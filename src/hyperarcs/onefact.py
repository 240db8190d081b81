"""1-factorizations of complete graphs K_2n and their plane embeddings.

A 1-factorization splits the edges of K_2n into 2n - 1 perfect matchings.
Two are isomorphic when a vertex relabeling maps one factor set onto the
other.  Enumeration up to isomorphism is by orderly generation: factors are
added in lexicographic order and a partial object survives only if no
relabeling yields a lexicographically smaller image, so exactly the minimal
representative of every class reaches full length.

The triple-closure machinery lives here too: triangles induce 3-sets of
factors whose embedded focus points must be collinear, and unioning sets
that share two members propagates that collinearity.  When the closure
reaches the full factor set, every embedding of the factorization has all
focus points on one line.  The closure runs in rounds; depth counts the
rounds that add members.  Each round unites only pairs with a member new in
the previous round, and matches each new member against the family either
by pushing (scanning the family) or by pulling (testing its supersets),
whichever the fixed cost estimate in closure() says is cheaper.

Embeddings (vertices to an arc, factors to focus points on all their
secants) are searched with the first four vertex images pinned to the
standard frame, which enumerates embeddings exactly once per projective
equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from hyperarcs.gf2 import FieldSpec
from hyperarcs import projplane as pp
from hyperarcs.projplane import Point


class FactorizationError(ValueError):
    """Structurally invalid factorization or catalog data."""


Edge = tuple[int, int]
Factor = tuple[Edge, ...]


@dataclass(frozen=True)
class OneFactorization:
    """Factors over vertex set {1..n_vertices}, each a perfect matching."""

    n_vertices: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        n2 = self.n_vertices
        if n2 % 2 or n2 < 4:
            raise FactorizationError(f"vertex count {n2} must be even and >= 4")
        factors = tuple(
            tuple(sorted(tuple(sorted(e)) for e in f)) for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if len(factors) != n2 - 1:
            raise FactorizationError(
                f"expected {n2 - 1} factors, got {len(factors)}"
            )
        seen: set[Edge] = set()
        for f in factors:
            verts = [v for e in f for v in e]
            if sorted(verts) != list(range(1, n2 + 1)):
                raise FactorizationError(f"factor {f} is not a perfect matching")
            for e in f:
                if e in seen:
                    raise FactorizationError(f"edge {e} appears twice")
                seen.add(e)

    @property
    def n_factors(self) -> int:
        return self.n_vertices - 1

    def factor_of_edge(self) -> dict[Edge, int]:
        """Map each edge to its (1-based) factor index."""
        out: dict[Edge, int] = {}
        for i, f in enumerate(self.factors, start=1):
            for e in f:
                out[e] = i
        return out


# ---------------------------------------------------------------------------
# Catalog text format: "1-2 3-4 5-6|1-3 2-5 4-6|..." one factorization per
# line, edges sorted inside factors, factors sorted by smallest edge.


def format_factorization(fact: OneFactorization) -> str:
    factors = sorted(fact.factors)
    return "|".join(" ".join(f"{u}-{v}" for u, v in f) for f in factors)


def parse_factorization(text: str, n_vertices: int | None = None) -> OneFactorization:
    factors = []
    for chunk in text.strip().split("|"):
        edges = []
        for token in chunk.split():
            try:
                u, v = token.split("-")
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise FactorizationError(f"bad edge token {token!r}") from exc
        factors.append(tuple(edges))
    if not factors or not factors[0]:
        raise FactorizationError("empty factorization")
    n2 = n_vertices or max(v for f in factors for e in f for v in e)
    return OneFactorization(n2, tuple(factors))


def format_catalog(facts) -> str:
    return "\n".join(format_factorization(f) for f in facts) + "\n"


def parse_catalog(text: str) -> list[OneFactorization]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_factorization(line))
        except FactorizationError as exc:
            raise FactorizationError(f"line {lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Orderly enumeration up to isomorphism
#
# Internals use 0-based vertices and matchings as partner tuples.  The
# matchings of K_2n are listed in lexicographic order of their sorted edge
# lists, so a matching's list index doubles as its rank; the identity
# matching (0,1)(2,3)... has rank 0.  In a factorization whose factors are
# sorted, factor t pairs vertex 0 with vertex t+1, so generation proceeds
# bucket by bucket and produces factors in strictly increasing rank order.


def _all_matchings(n2: int) -> list[tuple[int, ...]]:
    res: list[tuple[int, ...]] = []
    partner = [-1] * n2

    def rec(todo: list[int]):
        if not todo:
            res.append(tuple(partner))
            return
        v = todo[0]
        rest = todo[1:]
        for i, u in enumerate(rest):
            partner[v], partner[u] = u, v
            rec(rest[:i] + rest[i + 1 :])
        partner[v] = -1

    rec(list(range(n2)))
    return res


def _apply_perm(perm, matching):
    out = [0] * len(matching)
    for v, u in enumerate(matching):
        out[perm[v]] = perm[u]
    return tuple(out)


def _stabilizer_of_identity(n: int) -> list[tuple[int, ...]]:
    """Vertex permutations preserving the matching (0,1)(2,3)...: block
    permutations combined with in-block swaps; order 2^n * n!."""
    perms = []
    for block in permutations(range(n)):
        for flips in product((0, 1), repeat=n):
            sigma = [0] * (2 * n)
            for i in range(n):
                sigma[2 * i] = 2 * block[i] + flips[i]
                sigma[2 * i + 1] = 2 * block[i] + (flips[i] ^ 1)
            perms.append(tuple(sigma))
    return perms


def _sigma_onto_identity(matching) -> tuple[int, ...]:
    """One fixed relabeling sending the matching onto the identity one."""
    sigma = [0] * len(matching)
    slot = 0
    for v in range(len(matching)):
        if matching[v] > v:
            sigma[v] = slot
            sigma[matching[v]] = slot + 1
            slot += 2
    return tuple(sigma)


class _EnumContext:
    def __init__(self, n: int):
        n2 = 2 * n
        self.n = n
        self.n2 = n2
        self.matchings = _all_matchings(n2)
        self.index = {m: i for i, m in enumerate(self.matchings)}
        self.masks = []
        for m in self.matchings:
            mask = 0
            for v, u in enumerate(m):
                if u > v:
                    mask |= 1 << (v * n2 + u)
            self.masks.append(mask)
        self.bucket: dict[int, list[int]] = {p: [] for p in range(1, n2)}
        for i, m in enumerate(self.matchings):
            self.bucket[m[0]].append(i)

        self.stab_perms = _stabilizer_of_identity(n)
        if n > 5:
            # K_12 and up is never enumerated; canonical_form applies the
            # permutations directly there, because the action table would
            # not fit in memory
            self.stab_rows = None
            return
        matchings = self.matchings
        index = self.index
        mask0 = self.masks[0]
        valid2 = [m for m in self.bucket[2] if not self.masks[m] & mask0]
        self.stab_rows = [
            [index[_apply_perm(sigma, m)] for m in matchings]
            for sigma in self.stab_perms
        ]
        # canonical second factors: minimal in their stabilizer orbit
        # among matchings disjoint from the identity factor
        self.reps2 = {
            m for m in valid2 if all(row[m] >= m for row in self.stab_rows)
        }
        r2max = max(self.reps2)
        s2 = {m for m in valid2 if m <= r2max}
        # for every matching disjoint from the identity: which stabilizer
        # elements send it into the small-rank set s2
        t_by_m: dict[int, list[int]] = {}
        disjoint = [i for i, mk in enumerate(self.masks) if not mk & mask0]
        for t, row in enumerate(self.stab_rows):
            for m in disjoint:
                if row[m] in s2:
                    t_by_m.setdefault(m, []).append(t)
        self.t_by_m = {m: tuple(ts) for m, ts in t_by_m.items()}


@lru_cache(maxsize=None)
def _context(n: int) -> _EnumContext:
    return _EnumContext(n)


def _smaller_image_exists(ctx: _EnumContext, ranks, per_factor) -> bool:
    """True when some relabeling puts the factor set strictly below its own
    sorted rank sequence.  per_factor holds, for each factor i, the images
    of all current factors under the fixed map sending factor i onto the
    identity matching; composing with stabilizer elements covers every
    relabeling whose image could start at rank 0.  A beating image must put
    a small-rank matching in second position, so only stabilizer elements
    achieving that (precomputed in t_by_m) need full comparison."""
    t_by_m = ctx.t_by_m
    rows = ctx.stab_rows
    for mlist in per_factor:
        cands: set[int] = set()
        for m in mlist:
            hit = t_by_m.get(m)
            if hit:
                cands.update(hit)
        for t in cands:
            row = rows[t]
            if sorted(row[m] for m in mlist) < ranks:
                return True
    return False


def enumerate_factorizations(n: int) -> list[OneFactorization]:
    """Isomorphism-class representatives of the 1-factorizations of K_2n,
    in deterministic canonical order.  Supported for 2 <= n <= 5, that is
    K4 to K10 (396 classes), matching classify.MAX_K = 10; K12, with
    526,915,620 classes, is refused."""
    if not isinstance(n, int) or not 2 <= n <= 5:
        raise FactorizationError(f"n = {n!r} out of supported range 2..5")
    ctx = _context(n)
    n2 = ctx.n2
    matchings = ctx.matchings
    masks = ctx.masks
    index = ctx.index
    results: list[tuple[int, ...]] = []

    def rec(ranks: list[int], per_factor: list[list[int]], sigmas: list, used: int):
        level = len(ranks)
        if level == n2 - 1:
            results.append(tuple(ranks))
            return
        for m in ctx.bucket[level + 1]:
            if masks[m] & used:
                continue
            pt_new = matchings[m]
            child_ranks = ranks + [m]
            sig_new = _sigma_onto_identity(pt_new)
            child_per = [
                mlist + [index[_apply_perm(sig, pt_new)]]
                for sig, mlist in zip(sigmas, per_factor)
            ]
            child_per.append(
                [index[_apply_perm(sig_new, matchings[r])] for r in child_ranks]
            )
            if level + 1 == 2:
                if m not in ctx.reps2:
                    continue
            elif _smaller_image_exists(ctx, child_ranks, child_per):
                continue
            rec(child_ranks, child_per, sigmas + [sig_new], used | masks[m])

    identity = 0
    rec([identity], [[identity]], [tuple(range(n2))], masks[identity])
    return [_ranks_to_factorization(ctx, ranks) for ranks in results]


def _ranks_to_factorization(ctx: _EnumContext, ranks) -> OneFactorization:
    factors = []
    for r in ranks:
        m = ctx.matchings[r]
        factors.append(
            tuple(sorted((v + 1, u + 1) for v, u in enumerate(m) if u > v))
        )
    return OneFactorization(ctx.n2, tuple(factors))


def canonical_form(fact: OneFactorization) -> tuple[Factor, ...]:
    """Canonical representative of the isomorphism class: the factor tuple
    of the lexicographically least relabeled image.  Invariant under vertex
    permutation and factor reorder."""
    n2 = fact.n_vertices
    if n2 % 2 or not 4 <= n2 <= 12:
        raise FactorizationError(f"unsupported vertex count {n2}")
    ctx = _context(n2 // 2)
    mine = []
    for f in fact.factors:
        partner = [0] * n2
        for u, v in f:
            partner[u - 1], partner[v - 1] = v - 1, u - 1
        mine.append(ctx.index[tuple(partner)])
    best = None
    for i in range(len(mine)):
        sig = _sigma_onto_identity(ctx.matchings[mine[i]])
        base = [ctx.index[_apply_perm(sig, ctx.matchings[m])] for m in mine]
        if ctx.stab_rows is None:
            base_pts = [ctx.matchings[m] for m in base]
            for sigma in ctx.stab_perms:
                seq = sorted(ctx.index[_apply_perm(sigma, p)] for p in base_pts)
                if best is None or seq < best:
                    best = seq
        else:
            for row in ctx.stab_rows:
                seq = sorted(row[m] for m in base)
                if best is None or seq < best:
                    best = seq
    return _ranks_to_factorization(ctx, best).factors


def isomorphic(a: OneFactorization, b: OneFactorization) -> bool:
    if a.n_vertices != b.n_vertices:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Triangle triples and the collinearity closure


@dataclass(frozen=True)
class ClosureResult:
    family: frozenset[frozenset[int]]
    contains_all: bool
    depth: int


def triangle_triples(fact: OneFactorization) -> frozenset[frozenset[int]]:
    """For each vertex triangle, the set of the three factors carrying its
    edges.  The factors are distinct automatically: two sides of a triangle
    share a vertex, and a matching holds at most one of them."""
    factor_of = fact.factor_of_edge()
    triples = set()
    for u, v, w in combinations(range(1, fact.n_vertices + 1), 3):
        triples.add(
            frozenset((factor_of[(u, v)], factor_of[(u, w)], factor_of[(v, w)]))
        )
    return frozenset(triples)


def closure(fact: OneFactorization) -> ClosureResult:
    """Grow the triangle triples by uniting members sharing at least two
    factors, to a fixpoint.  contains_all reports whether the full factor
    set is reached, which forces all focus points of any embedding onto
    one line.

    Rounds are semi-naive: a round unites only pairs with a member added
    by the previous round (the triples count as added before round one),
    since the union of two older members is already in the family.  depth
    counts the rounds that add members, exactly as if every round united
    all pairs.  Each new member a is matched against the family in the
    cheaper of two directions: push scans the family for members b
    meeting a in two or more factors; pull walks the 2^(k - |a|) proper
    supersets a | c and keeps one when some member c | s with s a subset
    of a, |s| >= 2, witnesses it.  Pull is chosen when
    8 * 2^(k - |a|) < |family|, which favours it for large a late on."""
    k = fact.n_factors
    full = (1 << k) - 1
    family = {sum(1 << (i - 1) for i in t) for t in triangle_triples(fact)}
    added = list(family)
    depth = 0
    while True:
        size = len(family)
        new = set()
        for a in added:
            outside = full ^ a
            if 8 << outside.bit_count() < size:  # pull
                c = outside
                while c:
                    u = a | c
                    if u not in family and u not in new:
                        s = (a - 1) & a
                        while s:
                            if s & (s - 1) and c | s in family:
                                new.add(u)
                                break
                            s = (s - 1) & a
                    c = (c - 1) & outside
            else:  # push
                for b in family:
                    x = a & b
                    if x & (x - 1):
                        u = a | b
                        if u not in family:
                            new.add(u)
        if not new:
            break
        family |= new
        added = new
        depth += 1
    # masks to factor sets through the index tuples of their low and high
    # halves, 2^(k/2) entries each
    h = k // 2
    low, high = [()], [()]
    for i in range(h):
        low += [s + (i + 1,) for s in low]
    for i in range(h, k):
        high += [s + (i + 1,) for s in high]
    lmask = (1 << h) - 1
    out = frozenset(frozenset(low[m & lmask] + high[m >> h]) for m in family)
    return ClosureResult(out, full in family, depth)


def closure_survey(facts) -> list[dict]:
    """Closure verdict per factorization; the shape feeds reports directly."""
    rows = []
    for idx, fact in enumerate(facts):
        res = closure(fact)
        rows.append(
            {
                "index": idx,
                "contains_all": res.contains_all,
                "depth": res.depth,
                "family_size": len(res.family),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Embeddings into PG(2,q)


@dataclass(frozen=True)
class Embedding:
    """Vertex images (an arc) and factor images (focus points), 1-based
    indices shifted down by one."""

    spec: FieldSpec
    fact: OneFactorization
    vertices: tuple[Point, ...]
    foci: tuple[Point, ...]

    def validate(self) -> None:
        spec = self.spec
        pts = self.vertices
        if len(set(pts)) != len(pts):
            raise FactorizationError("vertex images not distinct")
        for a, b, c in combinations(pts, 3):
            if pp.collinear(spec, a, b, c):
                raise FactorizationError("vertex images contain a collinear triple")
        if len(set(self.foci)) != len(self.foci):
            raise FactorizationError("focus images not distinct")
        if set(self.foci) & set(pts):
            raise FactorizationError("a focus image collides with a vertex image")
        for fi, factor in enumerate(self.fact.factors):
            focus = self.foci[fi]
            for u, v in factor:
                if not pp.collinear(spec, focus, pts[u - 1], pts[v - 1]):
                    raise FactorizationError(
                        f"focus of factor {fi + 1} misses edge ({u},{v})"
                    )

    def focus_collinear(self) -> bool:
        return pp.is_linear(self.spec, self.foci)

    def arc_points(self) -> tuple[Point, ...]:
        return tuple(sorted(self.vertices))


def _pinned_four(fact: OneFactorization) -> tuple[int, ...]:
    """Four vertices covering as many two-edge factors as possible, so the
    frame pin forces focus points immediately."""
    factor_of = fact.factor_of_edge()
    best, best_score = None, -1
    for quad in combinations(range(1, fact.n_vertices + 1), 4):
        pairs = [
            ((quad[0], quad[1]), (quad[2], quad[3])),
            ((quad[0], quad[2]), (quad[1], quad[3])),
            ((quad[0], quad[3]), (quad[1], quad[2])),
        ]
        score = sum(1 for e1, e2 in pairs if factor_of[e1] == factor_of[e2])
        if score > best_score:
            best, best_score = quad, score
            if score == 3:
                break
    return best


def embed_search(
    fact: OneFactorization,
    spec: FieldSpec,
    limit: int | None = None,
    max_nodes: int | None = None,
) -> tuple[list[Embedding], bool]:
    """All embeddings up to projective equivalence, via a backtracking
    search with four vertex images pinned to the standard frame.

    Returns (embeddings, exhausted): exhausted is False when limit or
    max_nodes stopped the search early.
    """
    n2 = fact.n_vertices
    if n2 > 10:
        raise FactorizationError("embedding search supports at most 10 vertices")
    if spec.q > 32:
        raise FactorizationError("embedding search supports q <= 32")

    factor_of = fact.factor_of_edge()
    edge_factor = {}
    for (u, v), fi in factor_of.items():
        edge_factor[(u, v)] = fi
        edge_factor[(v, u)] = fi

    pinned = _pinned_four(fact)
    order = list(pinned)
    remaining = [v for v in range(1, n2 + 1) if v not in pinned]

    all_pts = pp.all_points(spec)
    found: list[Embedding] = []
    state_pos: dict[int, Point] = {}
    state_focus: dict[int, Point] = {}
    used: set[Point] = set()
    nodes = 0
    budget_blown = False

    def place(v: int, p: Point):
        """Try to place vertex v at point p; returns an undo list or None."""
        if p in used:
            return None
        # arc condition: no two placed vertices already aligned with p
        lines_seen = set()
        for u, up in state_pos.items():
            if up == p:
                return None
            line = pp.line_through(spec, p, up)
            if line in lines_seen:
                return None
            lines_seen.add(line)
        undo = []
        state_pos[v] = p
        used.add(p)
        undo.append(("pos", v, p))
        for u, up in list(state_pos.items()):
            if u == v:
                continue
            fi = edge_factor[(v, u)]
            line = pp.line_through(spec, p, up)
            focus = state_focus.get(fi)
            if focus is not None:
                if not pp.incident(spec, focus, line):
                    _undo(undo)
                    return None
                continue
            # another fully placed edge of this factor forces the focus
            other = next(
                (
                    (a, b)
                    for a, b in fact.factors[fi - 1]
                    if a in state_pos and b in state_pos and v not in (a, b)
                ),
                None,
            )
            if other is None:
                continue
            other_line = pp.line_through(
                spec, state_pos[other[0]], state_pos[other[1]]
            )
            if other_line == line:
                _undo(undo)
                return None
            focus = pp.meet(spec, line, other_line)
            if focus in used:
                _undo(undo)
                return None
            state_focus[fi] = focus
            used.add(focus)
            undo.append(("focus", fi, focus))
        return undo

    def _undo(undo):
        for kind, key, p in reversed(undo):
            if kind == "pos":
                del state_pos[key]
            else:
                del state_focus[key]
            used.discard(p)

    def candidates(v: int) -> list[Point]:
        constraint_lines = []
        for u, up in state_pos.items():
            fi = edge_factor[(v, u)]
            focus = state_focus.get(fi)
            if focus is not None:
                constraint_lines.append(pp.line_through(spec, focus, up))
        if not constraint_lines:
            return all_pts
        pts = set(pp.line_points(spec, constraint_lines[0]))
        for line in constraint_lines[1:]:
            pts &= set(pp.line_points(spec, line))
        return sorted(pts)

    def next_vertex(left: list[int]) -> int:
        def constrained(v):
            return sum(
                1
                for u in state_pos
                if state_focus.get(edge_factor[(v, u)]) is not None
            )

        return max(left, key=lambda v: (constrained(v), -v))

    def rec(left: list[int]):
        nonlocal nodes, budget_blown
        if limit is not None and len(found) >= limit:
            return
        if not left:
            emb = Embedding(
                spec,
                fact,
                tuple(state_pos[v] for v in range(1, n2 + 1)),
                tuple(state_focus[i] for i in range(1, n2)),
            )
            emb.validate()
            found.append(emb)
            return
        v = next_vertex(left)
        rest = [u for u in left if u != v]
        for p in candidates(v):
            if max_nodes is not None and nodes >= max_nodes:
                budget_blown = True
                return
            nodes += 1
            undo = place(v, p)
            if undo is None:
                continue
            rec(rest)
            _undo(undo)
            if budget_blown or (limit is not None and len(found) >= limit):
                return

    ok = True
    for v, p in zip(order, pp.STANDARD_FRAME):
        undo = place(v, p)
        if undo is None:
            ok = False
            break
    if ok:
        rec(remaining)
    exhausted = not budget_blown and (limit is None or len(found) < limit)
    return found, exhausted
