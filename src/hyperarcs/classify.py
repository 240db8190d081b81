"""Classification of small generalized hyperfocused arcs.

For every 1-factorization class of K_2n (n = 3, 4, 5): when the triple
closure reaches the full factor set, any embedding has all its focus points
on one line, so the class cannot carry a non-linear minimum blocking set
and is recorded as forced linear.  Otherwise the embedding search runs and
each embedding's focus set is tested for linearity directly.  Non-linear
instances are reduced to projective-equivalence classes of their vertex
arcs through one ArcClasses table per run: the first arc of a class pays a
pass over all its ordered frames, every later arc the 24 frame images of
its first four points and an exact lookup.  The forms reported are the
canonical forms.
"""

from __future__ import annotations

from hyperarcs._record import Record
from hyperarcs.gf2 import FieldSpec
from hyperarcs.arcs import Arc
from hyperarcs.blocking import ArcClasses, is_doubled_quadrangle
from hyperarcs.onefact import (
    MAX_VERTICES,
    FactorizationError,
    OneFactorization,
    _check_budget,
    closure,
    embed_search,
    enumerate_factorizations,
)


class ClassRow(Record):
    """Per-factorization-class findings."""

    __slots__ = ("k", "index", "contains_all", "closure_depth", "embeddings",
                 "nonlinear_embeddings", "exhausted", "nonlinear_arc_forms")

    @property
    def searched(self) -> bool:
        """Whether the class was searched for embeddings: exactly when its
        closure does not force every triple collinear."""
        return not self.contains_all


class ClassificationReport(Record):
    __slots__ = ("spec", "max_k", "rows")

    @property
    def nonlinear_forms(self) -> tuple:  # (k, canonical form) pairs, deduplicated
        return tuple(sorted({(row.k, f) for row in self.rows for f in row.nonlinear_arc_forms}))

    @property
    def exhaustive(self) -> bool:  # closure-forced rows are exhausted
        return all(row.exhausted for row in self.rows)

    @property
    def example_exists(self) -> bool:
        """Whether ghf_eight has a valid triple: exactly when q >= 16.
        U = {0, 1, lam, lam + 1} is an additive group of order 4; a1 must
        avoid U, and a2 the 8 elements of U and U + a1, as a1 + a2 avoids U."""
        return self.spec.q >= 16

    @property
    def nonlinear_ks(self) -> tuple[int, ...]:
        return tuple(sorted({k for k, _ in self.nonlinear_forms}))

    def matches_example(self) -> bool | None:
        """Whether the non-linear classes found are exactly the classes of
        the ghf_eight construction over all valid triples: there are
        (q-2)(q-4)(q-8)/1344 of them (1 at q = 16, 15 at q = 32), and every
        one found is a construction class (see is_doubled_quadrangle).  A
        budgeted run that misses a class reads False.  None when the
        construction does not exist at this q."""
        if not self.example_exists:
            return None
        forms, q = self.nonlinear_forms, self.spec.q
        return 1344 * len(forms) == (q - 2) * (q - 4) * (q - 8) and all(
            is_doubled_quadrangle(Arc(self.spec, form)) for _, form in forms
        )

    def to_json(self) -> dict:
        return {
            "q": self.spec.q,
            "max_k": self.max_k,
            "classes": [
                {
                    "k": row.k,
                    "index": row.index,
                    "contains_all": row.contains_all,
                    "closure_depth": row.closure_depth,
                    "searched": row.searched,
                    "embeddings": row.embeddings,
                    "nonlinear_embeddings": row.nonlinear_embeddings,
                    "exhausted": row.exhausted,
                    "nonlinear_classes": len(row.nonlinear_arc_forms),
                }
                for row in self.rows
            ],
            "nonlinear": {
                "ks": list(self.nonlinear_ks),
                "projective_classes": len(self.nonlinear_forms),
            },
            "example_exists": self.example_exists,
            "matches_example": self.matches_example(),
            "exhaustive": self.exhaustive,
        }


def classify_ghf(
    spec: FieldSpec,
    max_k: int = 10,
    embed_budget: int | None = None,
    catalogs: dict[int, list[OneFactorization]] | None = None,
) -> ClassificationReport:
    """Classify arcs of size up to max_k admitting minimum blocking sets,
    at the given field order.

    Odd sizes never occur (a minimum blocking set forces k even), so the
    sweep covers k = 2n for n in 3..max_k//2.  catalogs may carry
    pre-enumerated factorization lists keyed by n; embed_budget bounds the
    per-class embedding search node count (None = exhaustive).  max_k is
    an int from 6, the first size swept, to onefact.MAX_VERTICES, and
    embed_budget None or an int >= 0; anything else, a bool included,
    raises FactorizationError.
    """
    if type(max_k) is not int:
        raise FactorizationError(f"max_k {max_k!r} is not an int")
    _check_budget("embed_budget", embed_budget)
    if max_k > MAX_VERTICES:
        raise FactorizationError(f"max_k = {max_k} is above the supported {MAX_VERTICES}")
    if max_k < 6:
        raise FactorizationError(f"max_k = {max_k} is below the first swept size 6")
    rows: list[ClassRow] = []
    classes = ArcClasses()

    for n in range(3, max_k // 2 + 1):
        facts = (
            catalogs[n]
            if catalogs is not None and n in catalogs
            else enumerate_factorizations(n)
        )
        for idx, fact in enumerate(facts):
            res = closure(fact)
            if res.contains_all:
                rows.append(
                    ClassRow(2 * n, idx, True, res.depth, 0, 0, True, ())
                )
                continue
            embeddings, exhausted = embed_search(
                fact, spec, max_nodes=embed_budget
            )
            nonlin = [e for e in embeddings if not e.focus_collinear()]
            arcs = sorted({e.arc_points() for e in nonlin})
            forms = tuple(
                sorted({classes.form(Arc(spec, pts)) for pts in arcs})
            )
            rows.append(
                ClassRow(
                    2 * n,
                    idx,
                    False,
                    res.depth,
                    len(embeddings),
                    len(nonlin),
                    exhausted,
                    forms,
                )
            )

    return ClassificationReport(spec, max_k, tuple(rows))
