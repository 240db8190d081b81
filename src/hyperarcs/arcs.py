"""Translation arcs and their hyperfocus structure.

A translation arc is the orbit of an affine point under the group of
translations (x, y) -> (x + a, y + b) indexed by an additive subgroup G of
F_q x F_q.  Every secant of such an arc meets the line at infinity in the
direction of a nonzero element of G, so the q-1 or fewer directions form a
linear blocking set: translation arcs are hyperfocused.

This module builds them, doubles them through uncovered points, enumerates
the translation q-arcs containing a given one via the additive normal form
a*x + (a+1)*y + b*x^(2^i) + (b+1)*y^(2^i) = 0, and runs the completion
procedure that yields arcs contained in no hyperoval and no proper subplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from hyperarcs.gf2 import FieldSpec, field_from_json, field_make
from hyperarcs import projplane as pp
from hyperarcs.projplane import (
    LINE_AT_INFINITY,
    ORIGIN,
    Line,
    Point,
)

CONTAINED = "CONTAINED"
NOT_CONTAINED = "NOT_CONTAINED"
INCONCLUSIVE = "INCONCLUSIVE"


class ArcError(ValueError):
    """A point set that violates an arc-side contract."""


class CollinearError(ArcError):
    """A point set with three collinear points; carries the field and the
    first collinear triple found, as a witness."""

    def __init__(self, spec: FieldSpec, witness: tuple[Point, Point, Point]):
        super().__init__(f"three collinear points: {witness}")
        self.spec = spec
        self.witness = witness


Pair = tuple[int, int]


def _span(pairs) -> set[Pair]:
    elements = {(0, 0)}
    for a, b in pairs:
        elements |= {(a ^ x, b ^ y) for x, y in elements}
    return elements


@dataclass(frozen=True)
class AdditiveSubgroup:
    """An F2-subspace of F_q x F_q, presented by a basis of pairs."""

    spec: FieldSpec
    basis: tuple[Pair, ...]
    elements: tuple[Pair, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, pair: Pair) -> bool:
        return pair in set(self.elements)


def subgroup_make(spec: FieldSpec, basis) -> AdditiveSubgroup:
    basis = tuple((int(a), int(b)) for a, b in basis)
    for a, b in basis:
        spec.check(a, b)
    elements = _span(basis)
    if len(elements) != 1 << len(basis):
        raise ArcError("generators are not F2-independent")
    return AdditiveSubgroup(spec, basis, tuple(sorted(elements)))


@dataclass(frozen=True)
class Arc:
    """A set of points, no three collinear, kept in canonical sorted order."""

    spec: FieldSpec
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(sorted(set(self.points)))
        object.__setattr__(self, "points", pts)
        witness = _collinear_triple(self.spec, pts)
        if witness is not None:
            raise CollinearError(self.spec, witness)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in set(self.points)

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "points": [pp.point_to_json(p) for p in self.points],
        }


def arc_from_json(obj: dict) -> Arc:
    """The arc an arc file describes; CollinearError when it has three
    collinear points, other ArcError, GeometryError or FieldError when the
    data is malformed."""
    if not isinstance(obj, dict) or "field" not in obj or "points" not in obj:
        raise ArcError(f"malformed arc object: keys {sorted(obj) if isinstance(obj, dict) else type(obj)}")
    if not isinstance(obj["points"], (list, tuple)):
        raise ArcError(f"malformed arc object: points {obj['points']!r} is not a list")
    spec = field_from_json(obj["field"])
    pts = [pp.point_from_json(spec, p) for p in obj["points"]]
    return Arc(spec, tuple(pts))


def _collinear_triple(spec, pts):
    """First collinear triple among pts, or None.  Quadratic sweep: two
    distinct points seen on the same line through a base point betray one."""
    for i, p in enumerate(pts):
        seen: dict[Line, Point] = {}
        for q in pts[i + 1 :]:
            line = pp._line_through(spec, p, q)
            if line in seen:
                return (p, seen[line], q)
            seen[line] = q
    return None


# ---------------------------------------------------------------------------
# Translation arcs


def translation_arc(group: AdditiveSubgroup, base: Point = ORIGIN) -> Arc:
    """Orbit of an affine base point under the translations indexed by G.

    The slope test decides whether the orbit is an arc (see
    is_translation_arc_group), so the orbit is not swept for collinear
    triples."""
    spec = group.spec
    base = pp.normalize(spec, base)
    if base[2] != 1:
        raise ArcError("base point must be affine")
    if not _distinct_slopes(spec, group.basis):
        raise ArcError("orbit is not an arc: two elements of G share a slope")
    arc = object.__new__(Arc)
    object.__setattr__(arc, "spec", spec)
    object.__setattr__(
        arc, "points", tuple(sorted((a ^ base[0], b ^ base[1], 1) for a, b in group.elements))
    )
    return arc


def conic_translation_arc(spec: FieldSpec, h_basis) -> Arc:
    """Orbit arc of G = {(h, h^2) | h in H} for an additive H <= F_q."""
    return translation_arc(_graph_subgroup(spec, h_basis, 1))


def frobenius_translation_arc(spec: FieldSpec, h_basis, i: int) -> Arc:
    """Orbit arc of G = {(h, h^(2^i)) | h in H}; needs gcd(i, r) = 1.

    These arcs live inside the translation hyperoval x -> x^(2^i)."""
    if gcd(i, spec.r) != 1:
        raise ArcError(f"exponent {i} not coprime to degree {spec.r}")
    return translation_arc(_graph_subgroup(spec, h_basis, i))


def _graph_subgroup(spec: FieldSpec, h_basis, i: int) -> AdditiveSubgroup:
    basis = [(h, spec.frob(h, i)) for h in h_basis]
    return subgroup_make(spec, basis)


def split_conic_arc(spec: FieldSpec, eta: int | None = None, b: int | None = None):
    """Double the conic arc over F_sqrt(q) through A = (eta, b*eta^2).

    Candidate pairs are validated by the only sound criterion: the point
    (eta, b*eta^2, 1) must lie on no secant of the small arc, which the
    slope test decides (see extend_double).  With explicit
    (eta, b) the pair is checked and the doubled arc returned; with none
    given, all pairs are scanned and the first valid one used.  Returns
    (arc, eta, b), or None when the scan finds no valid pair.
    """
    if spec.r % 2 != 0:
        raise ArcError("q must be a square")
    half = set(spec.subfield(spec.r // 2))
    group = _graph_subgroup(spec, _subfield_basis(spec, spec.r // 2), 1)
    exp, log = spec.exp, spec.log

    def pair_of(e, bb):
        return (e, exp[log[bb] + log[exp[2 * log[e]]]])  # (eta, b * eta^2)

    def valid(e, bb):
        return (
            e not in half
            and bb in half
            and bb != 1
            and _distinct_slopes(spec, group.basis + (pair_of(e, bb),))
        )

    if eta is not None or b is not None:
        if eta is None or b is None:
            raise ArcError("give both eta and b, or neither")
        spec.check(eta, b)
        if not valid(eta, b):
            raise ArcError(f"(eta={eta}, b={b}) fails the secant-avoidance check")
        return translation_arc(extend_double(group, pair_of(eta, b))), eta, b

    for e in spec.elements():
        for bb in sorted(half):
            if valid(e, bb):
                return translation_arc(extend_double(group, pair_of(e, bb))), e, bb
    return None


def _subfield_basis(spec: FieldSpec, s: int) -> list[int]:
    basis: list[int] = []
    seen = {0}
    for a in spec.subfield(s):
        if a not in seen:
            basis.append(a)
            seen |= {a ^ x for x in seen}
    return basis


# ---------------------------------------------------------------------------
# Secants, directions, hyperfocus


def secants(arc: Arc) -> tuple[Line, ...]:
    if len(arc) < 2:
        raise ArcError("secants need at least two points")
    spec = arc.spec
    return tuple(
        pp._line_through(spec, p, q) for p, q in combinations(arc.points, 2)
    )


def secant_directions(group: AdditiveSubgroup) -> tuple[Point, ...]:
    """Points at infinity met by the secants of the orbit arc: one per
    nonzero element of G."""
    spec = group.spec
    dirs = {
        pp.direction_point(spec, a, b)
        for a, b in group.elements
        if (a, b) != (0, 0)
    }
    return tuple(sorted(dirs))


def is_hyperfocused_line(arc: Arc, line: Line) -> bool:
    """True when the line avoids the arc and the secants cut it in exactly
    k - 1 points (the minimum possible for a k-arc).

    The secant pq meets the line l at l x (p x q) = (l.q) p + (l.p) q
    (characteristic two), so the k dot products l.p are taken once, a zero
    one meaning l passes through an arc point, and each pair costs one
    normalized combination; no secant or meet is built."""
    spec = arc.spec
    exp, log = spec.exp, spec.log
    dots = []
    for p in arc.points:
        d = pp._dot(exp, log, p, line)
        if d == 0:
            return False
        dots.append(log[d])
    if len(dots) < 2:
        raise ArcError("secants need at least two points")
    terms = [(dp, log[p[0]], log[p[1]], log[p[2]]) for dp, p in zip(dots, arc.points)]
    hits = {
        pp._normalize_fast(
            spec, exp[dq + p0] ^ exp[dp + q0], exp[dq + p1] ^ exp[dp + q1],
            exp[dq + p2] ^ exp[dp + q2],
        )
        for (dp, p0, p1, p2), (dq, q0, q1, q2) in combinations(terms, 2)
    }
    return len(hits) == len(arc) - 1


def hyperfocused_lines(arc: Arc) -> list[Line]:
    if len(arc) < 3:
        raise ArcError("hyperfocus needs at least three points")
    return [l for l in pp.all_lines(arc.spec) if is_hyperfocused_line(arc, l)]


# ---------------------------------------------------------------------------
# Doubling and affine completeness


def _secant_point_set(arc: Arc) -> set[Point]:
    spec = arc.spec
    covered: set[Point] = set()
    for line in secants(arc):
        covered.update(pp._line_points(spec, line))
    return covered


def extend_double(group: AdditiveSubgroup, pair: Pair) -> AdditiveSubgroup:
    """Adjoin a pair whose point lies on no secant of the orbit arc of G.

    The slope test on G's basis plus the pair decides: for an arc group G
    and (a, b) outside G, translating by G shows that the doubled orbit has
    a collinear triple iff (a, b, 1) lies on a secant of G's orbit."""
    spec = group.spec
    a, b = pair
    spec.check(a, b)
    if (a, b) in group:
        raise ArcError(f"pair {pair} already in the subgroup")
    if not _distinct_slopes(spec, group.basis):
        raise ArcError("orbit is not an arc: two elements of G share a slope")
    basis = group.basis + ((a, b),)
    if not _distinct_slopes(spec, basis):
        raise ArcError(f"point ({a}, {b}, 1) lies on a secant")
    return subgroup_make(spec, basis)


def _uncovered(arc: Arc) -> tuple[tuple[Point, ...], list[Point]]:
    """The affine points and the points at infinity lying on no secant and
    not in the arc, from one walk of the secants."""
    spec = arc.spec
    covered = _secant_point_set(arc) if len(arc) >= 2 else set()
    covered.update(arc.points)
    affine = tuple(
        (a, b, 1)
        for a in spec.elements()
        for b in spec.elements()
        if (a, b, 1) not in covered
    )
    at_infinity = [
        p for p in pp._line_points(spec, LINE_AT_INFINITY) if p not in covered
    ]
    return affine, at_infinity


def uncovered_affine(arc: Arc) -> tuple[Point, ...]:
    """Affine points lying on no secant and not in the arc."""
    return _uncovered(arc)[0]


# ---------------------------------------------------------------------------
# Translation q-arcs through a fixed arc: the additive normal form


def normal_form_q_arc(spec: FieldSpec, alpha: int, beta: int, i: int) -> Arc | None:
    """Solution set of a*x + (a+1)*y + b*x^(2^i) + (b+1)*y^(2^i) = 0, as an
    arc when it is one.

    The left side is F2-linear in (x, y), so the solutions form an additive
    subgroup; they always include (0,0) and (1,1).  Returns the orbit arc
    when the kernel has dimension r and the slope test accepts its basis,
    else None.
    """
    if gcd(i, spec.r) != 1:
        raise ArcError(f"exponent {i} not coprime to degree {spec.r}")
    spec.check(alpha, beta)
    basis = _normal_form_kernel(spec, alpha, beta, i)
    if len(basis) != spec.r:
        return None
    try:
        return translation_arc(subgroup_make(spec, basis))
    except ArcError:
        return None


def _normal_form_value(spec, alpha, beta, i, x, y):
    exp, log = spec.exp, spec.log
    return (
        exp[log[alpha] + log[x]]
        ^ exp[log[alpha ^ 1] + log[y]]
        ^ exp[log[beta] + log[spec.frob(x, i)]]
        ^ exp[log[beta ^ 1] + log[spec.frob(y, i)]]
    )


def _normal_form_kernel(spec, alpha, beta, i) -> list[Pair]:
    """A basis of the kernel of the F2-linear map behind the normal form,
    by elimination on the 2r basis vectors of F_q x F_q."""
    r = spec.r
    rows = []  # (image value, domain vector encoded as a 2r-bit int)
    for j in range(r):
        rows.append((_normal_form_value(spec, alpha, beta, i, 1 << j, 0), 1 << j))
        rows.append(
            (_normal_form_value(spec, alpha, beta, i, 0, 1 << j), 1 << (r + j))
        )
    kernel_vecs = []
    pivots: dict[int, tuple[int, int]] = {}
    for val, vec in rows:
        while val:
            top = val.bit_length() - 1
            if top in pivots:
                pval, pvec = pivots[top]
                val ^= pval
                vec ^= pvec
            else:
                pivots[top] = (val, vec)
                break
        if val == 0:
            kernel_vecs.append(vec)
    mask = (1 << r) - 1
    return [(vec & mask, vec >> r) for vec in kernel_vecs]


def translation_superarcs(group: AdditiveSubgroup) -> list[Arc]:
    """All translation q-arcs containing the orbit arc of G.

    Enumerates the normal-form parameters directly and keeps the solutions
    that are q-arcs through the original orbit.  Requires (0,0) and (1,1)
    in G so the normal form applies as stated.
    """
    spec = group.spec
    if (0, 0) not in group or (1, 1) not in group:
        raise ArcError("subgroup must contain (0,0) and (1,1)")
    exponents = [i for i in range(1, spec.r) if gcd(i, spec.r) == 1]
    if spec.r == 1:
        exponents = [1]
    exp, log = spec.exp, spec.log
    found: dict[tuple, Arc] = {}
    for i in exponents:
        # the normal form at each element of G, split into its alpha part
        # (evaluated once per alpha) and its beta part, all as logs
        logs = [
            (log[x], log[y], log[spec.frob(x, i)], log[spec.frob(y, i)])
            for x, y in group.elements
        ]
        for alpha in spec.elements():
            la, la1 = log[alpha], log[alpha ^ 1]
            alpha_part = [(exp[la + lx] ^ exp[la1 + ly], lxf, lyf) for lx, ly, lxf, lyf in logs]
            for beta in spec.elements():
                lb, lb1 = log[beta], log[beta ^ 1]
                if any(
                    v ^ exp[lb + lxf] ^ exp[lb1 + lyf] for v, lxf, lyf in alpha_part
                ):
                    continue
                arc = normal_form_q_arc(spec, alpha, beta, i)
                if arc is not None:
                    found.setdefault(arc.points, arc)
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# Completion: arcs in no hyperoval and no proper subplane


@dataclass(frozen=True)
class CompletionReport:
    """Certificate from the doubling-to-completeness procedure."""

    spec: FieldSpec
    arc: Arc
    seed_size: int
    chosen: tuple[Pair, ...]
    uncovered_empty: bool
    hyperoval_verdict: str
    subplane_verdict: str
    superarc_count: int

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "arc_size": len(self.arc),
            "seed_size": self.seed_size,
            "chosen": [list(a) for a in self.chosen],
            "uncovered_empty": self.uncovered_empty,
            "hyperoval": self.hyperoval_verdict,
            "subplane": self.subplane_verdict,
            "superarcs": self.superarc_count,
        }


def build_complete_translation_arc(r: int, s: int) -> CompletionReport:
    """Grow the conic arc over GF(2^s) inside PG(2, 2^r) until every affine
    point lies on a secant.

    The first adjoined point also avoids every translation q-arc containing
    the seed, which is what keeps the final arc out of all hyperovals.
    Points are scanned in lexicographic (a, b) order, so runs are
    reproducible.
    """
    if s <= 2 or s >= r or r % s != 0:
        raise ArcError(f"s = {s} must be a proper divisor of r = {r} with s > 2")
    spec = field_make(r)
    group = _graph_subgroup(spec, _subfield_basis(spec, s), 1)
    superarcs = translation_superarcs(group)
    forbidden = set().union(*(set(a.points) for a in superarcs)) if superarcs else set()

    chosen: list[Pair] = []
    seed_size = group.order
    while True:
        arc = translation_arc(group)
        uncovered, at_infinity = _uncovered(arc)
        if not uncovered:
            break
        pool = uncovered if chosen else [p for p in uncovered if p not in forbidden]
        if not pool:
            raise ArcError("no uncovered point avoids the containing q-arcs")
        a, b, _ = min(pool)
        group = extend_double(group, (a, b))
        chosen.append((a, b))

    hyper, _ = _complete_hyperoval(arc, at_infinity)
    return CompletionReport(
        spec=spec,
        arc=arc,
        seed_size=seed_size,
        chosen=tuple(chosen),
        uncovered_empty=True,
        hyperoval_verdict=hyper,
        subplane_verdict=subplane_bound(arc),
        superarc_count=len(superarcs),
    )


def hyperoval_containment(arc: Arc):
    """Decide whether an affinely complete arc extends to a hyperoval.

    Affine completeness pins any containing hyperoval down to the arc plus
    points on the line at infinity, so only those completions are tried.
    Returns (verdict, hyperoval_points_or_None).
    """
    uncovered, at_infinity = _uncovered(arc)
    if uncovered:
        raise ArcError("arc is not affinely complete; verdict would be unsound")
    return _complete_hyperoval(arc, at_infinity)


def _complete_hyperoval(arc: Arc, candidates: list[Point]):
    """hyperoval_containment of an affinely complete arc, given the points
    at infinity lying on no secant and not in the arc."""
    spec = arc.spec
    q = spec.q
    k = len(arc)
    if k >= q + 2:
        return CONTAINED, arc.points
    if k < q:
        return NOT_CONTAINED, None
    need = q + 2 - k
    for extra in combinations(candidates, need):
        try:
            oval = Arc(spec, arc.points + extra)
        except ArcError:
            continue
        return CONTAINED, oval.points
    return NOT_CONTAINED, None


def subplane_bound(arc: Arc) -> str:
    """Cardinality test against the largest proper subplane: an arc in a
    plane of order m has at most m + 2 points."""
    r = arc.spec.r
    divisors = [d for d in range(1, r) if r % d == 0]
    if not divisors:
        return NOT_CONTAINED
    s_max = max(divisors)
    return NOT_CONTAINED if len(arc) > (1 << s_max) + 2 else INCONCLUSIVE


# ---------------------------------------------------------------------------
# Exhaustive subgroup enumeration (service for sweeps and searches)


def enumerate_subgroups(spec: FieldSpec, dim: int):
    """All F2-subspaces of F_q x F_q of the given dimension, as basis tuples
    of pairs, one subspace each (reduced echelon enumeration)."""
    n = 2 * spec.r
    mask_of = lambda bits: sum(1 << b for b in bits)

    def decode(vec: int) -> Pair:
        return (vec & (spec.q - 1), vec >> spec.r)

    for pivots in combinations(range(n - 1, -1, -1), dim):
        free_positions = [
            [b for b in range(p) if b not in pivots] for p in pivots
        ]
        counters = [0] * dim
        sizes = [1 << len(f) for f in free_positions]
        while True:
            basis = []
            for i, p in enumerate(pivots):
                vec = 1 << p
                c = counters[i]
                for j, b in enumerate(free_positions[i]):
                    if (c >> j) & 1:
                        vec |= 1 << b
                basis.append(decode(vec))
            yield tuple(basis)
            i = 0
            while i < dim:
                counters[i] += 1
                if counters[i] < sizes[i]:
                    break
                counters[i] = 0
                i += 1
            if i == dim:
                break


def _distinct_slopes(spec: FieldSpec, basis) -> bool:
    """Whether the nonzero elements of the span of basis have pairwise
    distinct slopes b / a, with q standing in for infinity.  The span grows
    one basis pair at a time, and the test stops at the first repeat."""
    exp, log = spec.exp, spec.log
    shift = spec.q - 1
    elems = [(0, 0)]
    slopes = set()
    for va, vb in basis:
        fresh = [(x ^ va, y ^ vb) for x, y in elems]
        for u, v in fresh:
            s = exp[log[v] + shift - log[u]] if u else spec.q
            if s in slopes:
                return False
            slopes.add(s)
        elems.extend(fresh)
    return True


def is_translation_arc_group(group: AdditiveSubgroup) -> bool:
    """Orbit is an arc iff the nonzero elements of G have pairwise distinct
    slopes (translating any collinear triple moves one point to the origin)."""
    return _distinct_slopes(group.spec, group.basis)


def enumerate_arc_subgroups(spec: FieldSpec, dims):
    """Exhaustively enumerate the subgroups of the given dimensions whose
    orbit is an arc, yielding basis tuples."""
    if spec.r > 8:
        raise ArcError("exhaustive sweeps are supported for r <= 8")
    for dim in dims:
        for basis in enumerate_subgroups(spec, dim):
            if _distinct_slopes(spec, basis):
                yield basis
