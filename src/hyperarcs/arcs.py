"""Translation arcs and their hyperfocus structure.

A translation arc is the orbit of an affine point under the group of
translations (x, y) -> (x + a, y + b) indexed by an additive subgroup G of
F_q x F_q.  Every secant of such an arc meets the line at infinity in the
direction of a nonzero element of G, so the q-1 or fewer directions form a
linear blocking set: translation arcs are hyperfocused.  The orbit is an arc
exactly when those directions are |G| - 1 distinct points, so counting them
is the one arc test (is_translation_arc_group).

This module builds them, doubles them through uncovered points, enumerates
the translation q-arcs containing a given one via the additive normal form
a*x + (a+1)*y + b*x^(2^i) + (b+1)*y^(2^i) = 0, and runs the completion
procedure that yields arcs contained in no hyperoval and no proper subplane.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from hyperarcs._record import Record
from hyperarcs.gf2 import FieldSpec, field_from_json, field_make
from hyperarcs import projplane as pp
from hyperarcs.projplane import (
    LINE_AT_INFINITY,
    ORIGIN,
    Line,
    Point,
    _collinear_triple,
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


class AdditiveSubgroup(Record):
    """An F2-subspace of F_q x F_q, presented by a basis of pairs and its
    elements, sorted, so (0, 0) first.

    The constructor also records the directions of the nonzero elements,
    the points (a : b : 0) where the secants of the orbit arc meet the line
    at infinity, as an int bitmask: bit d for the direction a/b, and bit q
    for b = 0.  is_translation_arc_group, translation_arc and
    secant_directions read it, so a group's directions are derived once.  It
    is an int, not a set, because an int of q + 1 bits is far smaller than a
    set of up to q + 1 ints, and a sweep holds a thousand groups at once.
    Equality and hashing read the spec, basis and elements only."""

    __slots__ = ("spec", "basis", "elements", "_directions")

    def __init__(self, spec: FieldSpec, basis: tuple[Pair, ...], elements: tuple[Pair, ...]):
        # slots written directly, not by Record.__init__: a sweep builds thousands
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "elements", elements)
        q, exp, log = spec.q, spec.exp, spec.log
        shift = q - 1
        directions = 0
        for a, b in elements[1:]:
            directions |= 1 << (exp[log[a] + shift - log[b]] if b else q)
        object.__setattr__(self, "_directions", directions)

    def _key(self) -> tuple:
        return self.spec, self.basis, self.elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.elements


def subgroup_make(spec: FieldSpec, basis) -> AdditiveSubgroup:
    """The subgroup spanned by the basis pairs, each checked as a pair of
    field elements (FieldError otherwise, before any independence test).

    The span is built as a list that each generator doubles.  A generator
    is F2-independent of those before it exactly when it is not in their
    span, and then its coset is disjoint from that span, so the generators
    are independent when none is found in the span built so far; the first
    one found is refused (ArcError) before it doubles anything, so the list
    never outgrows the q^2 pairs."""
    basis = _read_pairs(spec, basis)
    elements = [(0, 0)]
    for a, b in basis:
        if (a, b) in elements:
            raise ArcError("generators are not F2-independent")
        elements += [(a ^ x, b ^ y) for x, y in elements]
    elements.sort()
    return AdditiveSubgroup(spec, basis, tuple(elements))


def _read_pairs(spec: FieldSpec, basis) -> tuple[Pair, ...]:
    """basis as a tuple of pairs of field elements: ArcError unless it is a
    sequence of pairs, then FieldError for a value."""
    try:
        basis = tuple([(a, b) for a, b in basis])
    except (TypeError, ValueError):
        raise ArcError(f"basis {basis!r} is not a sequence of pairs") from None
    for a, b in basis:
        spec.check(a, b)
    return basis


class Arc(Record):
    """A set of points, no three collinear, kept in canonical sorted order."""

    __slots__ = ("spec", "points")

    def __init__(self, spec: FieldSpec, points: tuple[Point, ...]):
        pts = tuple(sorted(set(pp._read_points(spec, points))))
        witness = _collinear_triple(spec, pts)
        if witness is not None:
            raise CollinearError(spec, witness)
        super().__init__(spec, pts)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "points": [pp.point_to_json(p) for p in self.points],
        }


def arc_from_json(obj: dict) -> Arc:
    """The arc an arc file describes; CollinearError when it has three
    collinear points, other ArcError, GeometryError or FieldError when the
    data is malformed or lists one projective point twice."""
    if not isinstance(obj, dict) or "field" not in obj or "points" not in obj:
        raise ArcError(f"malformed arc object: keys {sorted(obj) if isinstance(obj, dict) else type(obj)}")
    if not isinstance(obj["points"], (list, tuple)):
        raise ArcError(f"malformed arc object: points {obj['points']!r} is not a list")
    spec = field_from_json(obj["field"])
    pts = [pp.point_from_json(spec, p) for p in obj["points"]]
    seen: set[Point] = set()
    for p in pts:
        if p in seen:
            raise ArcError(f"point {pp.point_to_json(p)} is listed twice")
        seen.add(p)
    return Arc(spec, tuple(pts))


# ---------------------------------------------------------------------------
# Translation arcs


def translation_arc(group: AdditiveSubgroup, base: Point = ORIGIN) -> Arc:
    """Orbit of an affine base point under the translations indexed by G.

    The direction count decides whether the orbit is an arc (see
    is_translation_arc_group), read from G's direction bitmask, so the
    orbit is not swept for collinear triples, and its points, affine and
    normalized, bypass Arc's checks.  They are the elements of G, sorted,
    translated by the base (x, y); XOR with (0, 0) keeps that order, so
    only an orbit through another base is sorted again."""
    spec = group.spec
    x, y, z = pp.normalize(spec, base)
    if z != 1:
        raise ArcError("base point must be affine")
    if not is_translation_arc_group(group):
        raise ArcError("orbit is not an arc: two elements of G share a direction")
    if x or y:
        return _proved_arc(spec, tuple(sorted([(a ^ x, b ^ y, 1) for a, b in group.elements])))
    return _proved_arc(spec, tuple([(a, b, 1) for a, b in group.elements]))


def _proved_arc(spec: FieldSpec, points: tuple[Point, ...]) -> Arc:
    """The Arc of points already proved an arc: normalized, distinct,
    sorted and no three collinear.  Its slots are set directly, past
    Arc.__init__'s reading and collinearity sweep, for the callers that
    build thousands: translation_arc and classify_ghf, whose point sets come
    from embed_search."""
    arc = object.__new__(Arc)
    object.__setattr__(arc, "spec", spec)
    object.__setattr__(arc, "points", points)
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

    Returns (arc, eta, b).  The pair is valid when eta lies outside
    F_sqrt(q), b lies in F_sqrt(q) minus 1, and A lies on no secant of the
    conic arc, which extend_double decides by the direction count of the
    doubled group; any other pair raises ArcError.

    With no pair given it is (2, 0), which is valid.  The conic group
    G = {(h, h^2) : h in F_sqrt(q)} has directions 1/h, all in F_sqrt(q).
    The coset through (eta, 0) adds the direction at infinity and, for
    h != 0, the direction (h + eta)/h^2 = 1/h + eta/h^2, outside F_sqrt(q)
    whenever eta is.  Two of these new directions agree only if
    eta = hh'/(h + h'), which lies in F_sqrt(q).  So the 2 sqrt(q) - 1
    directions are distinct, and the doubled orbit is an arc.  eta = 2, the
    class of X, lies in no proper subfield, because the defining polynomial
    is irreducible of degree r.  It is also the first valid pair in the
    order eta, then b: eta = 0 and eta = 1 lie in F_sqrt(q), and b = 0
    comes first.
    """
    if spec.r % 2 != 0:
        raise ArcError("q must be a square")
    if (eta is None) != (b is None):
        raise ArcError("give both eta and b, or neither")
    if eta is None:
        eta, b = 2, 0
    spec.check(eta, b)
    half = spec.subfield(spec.r // 2)
    failed = f"(eta={eta}, b={b}) fails the secant-avoidance check"
    if eta in half or b not in half or b == 1:
        raise ArcError(failed)
    group = _graph_subgroup(spec, _subfield_basis(spec, spec.r // 2), 1)
    exp, log = spec.exp, spec.log
    try:
        # b * eta^2 as two table products: exp covers sums of two logs only
        doubled = extend_double(group, (eta, exp[log[b] + log[exp[2 * log[eta]]]]))
    except ArcError:
        raise ArcError(failed) from None
    return translation_arc(doubled), eta, b


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
    """Points at infinity met by the secants of the orbit arc: (a/b, 1, 0),
    or (1, 0, 0) when b = 0, for each nonzero (a, b) in G; read off G's
    direction bitmask, lowest bit first."""
    q = group.spec.q
    mask = group._directions
    points = []
    rest = mask & ((1 << q) - 1)
    while rest:
        low = rest & -rest
        points.append((low.bit_length() - 1, 1, 0))
        rest ^= low
    if mask >> q:
        # sorted, (1, 0, 0) falls between (0, 1, 0) and (1, 1, 0)
        points.insert(mask & 1, (1, 0, 0))
    return tuple(points)


def is_hyperfocused_line(arc: Arc, line: Line) -> bool:
    """True when the line avoids the arc and the secants cut it in exactly
    k - 1 points (the minimum possible for a k-arc).

    The line is read through pp.normalize, so it need not be normalized:
    GeometryError when it is not a triple or is the zero triple, FieldError
    for a coordinate outside the field."""
    return _is_hyperfocused_line(arc, pp.normalize(arc.spec, line))


def _is_hyperfocused_line(arc: Arc, line: Line) -> bool:
    """is_hyperfocused_line of a checked line.

    The secant pq meets the line l at l x (p x q) = (l.q) p + (l.p) q
    (characteristic two), so the k dot products l.p are taken once, from
    the logs of l's coordinates, a zero one meaning l passes through an arc
    point.  Dividing by (l.p)(l.q), the meet is p' + q' with p' = p / (l.p).
    Fix the last coordinate c with l_c != 0 and call the other two j < h.
    A point X of l is fixed by its j and h coordinates, since l_c X_c =
    l_j X_j + l_h X_h, and (X_j, X_h) is never (0, 0); so it is fixed by
    the ratio X_j / X_h, read as infinity when X_h = 0.  With u_p =
    p_j / (l.p) and w_p = p_h / (l.p), the secant pq meets l at the point
    of ratio (u_p + u_q) / (w_p + w_q): one table division per pair, and no
    secant, meet or normalized point is built."""
    spec = arc.spec
    exp, log = spec.exp, spec.log
    shift, infinity = spec.q - 1, spec.q
    j, h = (0, 1) if line[2] else (0, 2) if line[1] else (1, 2)
    l0, l1, l2 = log[line[0]], log[line[1]], log[line[2]]
    uw = []
    for p in arc.points:
        d = exp[log[p[0]] + l0] ^ exp[log[p[1]] + l1] ^ exp[log[p[2]] + l2]
        if d == 0:
            return False
        ld = shift - log[d]
        uw.append((exp[log[p[j]] + ld], exp[log[p[h]] + ld]))
    if len(uw) < 2:
        raise ArcError("secants need at least two points")
    hits = {
        exp[log[up ^ uq] + shift - log[wp ^ wq]] if wp != wq else infinity
        for (up, wp), (uq, wq) in combinations(uw, 2)
    }
    return len(hits) == len(arc) - 1


def hyperfocused_lines(arc: Arc) -> list[Line]:
    if len(arc) < 3:
        raise ArcError("hyperfocus needs at least three points")
    return [l for l in pp.all_lines(arc.spec) if _is_hyperfocused_line(arc, l)]


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

    The direction count of the doubled group decides: for an arc group G
    and (a, b) outside G, translating by G shows that the doubled orbit has
    a collinear triple iff (a, b, 1) lies on a secant of G's orbit."""
    spec = group.spec
    (a, b), = _read_pairs(spec, (pair,))
    if (a, b) in group:
        raise ArcError(f"pair {pair} already in the subgroup")
    if not is_translation_arc_group(group):
        raise ArcError("orbit is not an arc: two elements of G share a direction")
    doubled = subgroup_make(spec, group.basis + ((a, b),))
    if not is_translation_arc_group(doubled):
        raise ArcError(f"point ({a}, {b}, 1) lies on a secant")
    return doubled


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


def _translation_uncovered(group: AdditiveSubgroup) -> tuple[list[int], list[Point]]:
    """_uncovered of the orbit arc of G through the origin, from the
    intercepts of its secants instead of their points.

    Returns (rows, at_infinity): bit y of rows[x] is set when (x, y, 1) lies
    on no secant and not in the arc; at_infinity is as in _uncovered, the
    points of the line at infinity that are not secant_directions(G).

    G is an arc group, so each slope m of G belongs to one nonzero g in G.
    The secants of slope m join p and p + g for p in G: they are the lines
    y = m*x + c for c in C_m = {b + m*a : (a, b) in G}, an F2-subspace of
    F_q, and (x, y) lies on one iff y + m*x is in C_m.  The vertical
    secants are x = a for a in C_inf = {a : (a, b) in G}.  So for each x
    the covered y of slope m form the coset m*x + C_m.  Reducing m*x by an
    echelon basis of C_m names that coset, F2-linearly in x, so the names
    for all x come from those of the r unit vectors, and one bit mask per
    coset serves every x that meets it."""
    spec = group.spec
    q, exp, log = spec.q, spec.exp, spec.log
    covered = [0] * q
    for a, b in group.elements:  # the arc itself, on no secant when k = 1
        covered[a] |= 1 << b
    full = (1 << q) - 1
    # bit y of lows[j] is set when bit j of y is clear
    lows = [((1 << (1 << j)) - 1) * (full // ((1 << (2 << j)) - 1)) for j in range(spec.r)]
    vertical: set[int] = set()
    for ga, gb in group.elements[1:]:
        if not ga:
            vertical = {a for a, _ in group.elements}
            continue
        lm = log[exp[log[gb] + q - 1 - log[ga]]]
        echelon: dict[int, int] = {}  # top bit -> basis vector of C_m
        for a, b in group.basis:
            c = b ^ exp[lm + log[a]]
            while c and c.bit_length() - 1 in echelon:
                c ^= echelon[c.bit_length() - 1]
            if c:
                echelon[c.bit_length() - 1] = c
        reducers = sorted(echelon.items(), reverse=True)
        names = [0]
        for j in range(spec.r):
            name = exp[lm + log[1 << j]]
            for top, v in reducers:
                if name >> top & 1:
                    name ^= v
            names += [t ^ name for t in names]
        # the names are the values with no pivot bit; the mask of t + 2^j,
        # for a bit j that is no pivot, is that of t with y and y + 2^j swapped
        masks = {0: sum(1 << c for c in {b ^ exp[lm + log[a]] for a, b in group.elements})}
        for j, low in enumerate(lows):
            if j not in echelon:
                h = 1 << j
                masks.update(
                    [(t | h, (mask & low) << h | (mask >> h) & low) for t, mask in masks.items()]
                )
        covered = [row | masks[name] for row, name in zip(covered, names)]
    rows = [0 if x in vertical else full ^ row for x, row in enumerate(covered)]
    directions = set(secant_directions(group))
    at_infinity = [p for p in pp._line_points(spec, LINE_AT_INFINITY) if p not in directions]
    return rows, at_infinity


# ---------------------------------------------------------------------------
# Translation q-arcs through a fixed arc: the additive normal form


def normal_form_q_arc(spec: FieldSpec, alpha: int, beta: int, i: int) -> Arc | None:
    """Solution set of a*x + (a+1)*y + b*x^(2^i) + (b+1)*y^(2^i) = 0, as an
    arc when it is one.

    The left side is F2-linear in (x, y), so the solutions form an additive
    subgroup; they always include (0,0) and (1,1).  Returns the orbit arc
    when the kernel has dimension r and is an arc group, else None.
    """
    if gcd(i, spec.r) != 1:
        raise ArcError(f"exponent {i} not coprime to degree {spec.r}")
    spec.check(alpha, beta)
    basis = _normal_form_kernel(spec, alpha, beta, i)
    if len(basis) != spec.r:
        return None
    group = subgroup_make(spec, basis)
    return translation_arc(group) if is_translation_arc_group(group) else None


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


def _normal_form_parameters(group: AdditiveSubgroup, i: int) -> list[Pair]:
    """The pairs (alpha, beta) whose normal form with exponent 2^i vanishes
    on all of G, by solving a linear system over F_q.

    With d = x + y the normal form reads alpha*d + beta*d^(2^i) =
    y + y^(2^i), one equation over F_q in the unknowns (alpha, beta).  Its
    coefficients and its right side are F2-linear in (x, y), so the
    equations of G's basis imply those of every element of G.  The first
    basis row with d != 0 (so d^(2^i) != 0 too) leaves the line of q pairs
    beta = (y + y^(2^i) + d*alpha) / d^(2^i), and the other rows cut it to
    one pair or none if one of them is independent of it (rank 2), else to
    the whole line or none (rank 1).  With no such row (rank 0) the system
    holds for all q^2 pairs or for none."""
    spec = group.spec
    exp, log = spec.exp, spec.log
    rows = [(x ^ y, spec.frob(x ^ y, i), y ^ spec.frob(y, i)) for x, y in group.basis]
    pivot = next((row for row in rows if row[0]), None)
    if pivot is None:
        candidates = [(a, b) for a in spec.elements() for b in spec.elements()]
    else:
        d, e, c = pivot
        le = spec.q - 1 - log[e]
        candidates = [(a, exp[log[c ^ exp[log[d] + log[a]]] + le]) for a in spec.elements()]
    return [
        (a, b)
        for a, b in candidates
        if all(exp[log[a] + log[d]] ^ exp[log[b] + log[e]] == c for d, e, c in rows)
    ]


def translation_superarcs(group: AdditiveSubgroup) -> list[Arc]:
    """All translation q-arcs containing the orbit arc of G.

    A translation q-arc through (0,0) and (1,1) is the solution set of a
    normal form a*x + (a+1)*y + b*x^(2^i) + (b+1)*y^(2^i) = 0 with
    gcd(i, r) = 1.  It contains G exactly when the form vanishes on G, a
    linear system in (a, b) over F_q of at most dim G equations, solved by
    _normal_form_parameters: one pair at rank 2, a line of q pairs at
    rank 1, all q^2 pairs or none at rank 0.  normal_form_q_arc is called
    on those solutions only, not on all q^2 pairs.  Requires (0,0) and
    (1,1) in G so the normal form applies as stated.
    """
    spec = group.spec
    if (0, 0) not in group or (1, 1) not in group:
        raise ArcError("subgroup must contain (0,0) and (1,1)")
    exponents = [i for i in range(1, spec.r) if gcd(i, spec.r) == 1]
    if spec.r == 1:
        exponents = [1]
    found: dict[tuple, Arc] = {}
    for i in exponents:
        for alpha, beta in _normal_form_parameters(group, i):
            arc = normal_form_q_arc(spec, alpha, beta, i)
            if arc is not None:
                found.setdefault(arc.points, arc)
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# Completion: arcs in no hyperoval and no proper subplane


class CompletionReport(Record):
    """Certificate from the doubling-to-completeness procedure."""

    __slots__ = ("spec", "arc", "seed_size", "chosen", "uncovered_empty",
                 "hyperoval_verdict", "subplane_verdict", "superarc_count")

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
    forbidden = [0] * spec.q  # bit y of forbidden[x]: (x, y, 1) on a superarc
    for superarc in superarcs:
        for x, y, _ in superarc.points:
            forbidden[x] |= 1 << y

    chosen: list[Pair] = []
    seed_size = group.order
    while True:
        uncovered, at_infinity = _translation_uncovered(group)
        if not any(uncovered):
            break
        pool = uncovered if chosen else [u & ~f for u, f in zip(uncovered, forbidden)]
        a = next((x for x, row in enumerate(pool) if row), None)
        if a is None:
            raise ArcError("no uncovered point avoids the containing q-arcs")
        b = (pool[a] & -pool[a]).bit_length() - 1
        group = extend_double(group, (a, b))
        chosen.append((a, b))

    arc = translation_arc(group)
    hyper, _ = _complete_hyperoval(arc, at_infinity)
    return CompletionReport(
        spec, arc, seed_size, tuple(chosen), True, hyper, subplane_bound(arc), len(superarcs)
    )


def hyperoval_containment(arc: Arc):
    """Decide whether an affinely complete arc extends to a hyperoval, as
    _complete_hyperoval argues.  Returns (verdict, hyperoval_points_or_None).
    """
    uncovered, at_infinity = _uncovered(arc)
    if uncovered:
        raise ArcError("arc is not affinely complete; verdict would be unsound")
    return _complete_hyperoval(arc, at_infinity)


def _complete_hyperoval(arc: Arc, candidates: list[Point]):
    """hyperoval_containment of an affinely complete arc, given the
    candidates: the points at infinity on no secant and not in the arc.

    A hyperoval through the k-arc adds need = q + 2 - k points, on no secant
    and, by affine completeness, at infinity: candidates, at most two, so
    k >= q.  Conversely, a set S of candidates has no collinear triple with
    two arc points, as S is on no secant, nor with one, a, unless a is at
    infinity with S.  So the first need candidates complete the arc unless
    there are fewer, or need = 2 and an arc point is at infinity."""
    q = arc.spec.q
    k = len(arc)
    need = q + 2 - k
    if need <= 0:
        return CONTAINED, arc.points
    if k < q or len(candidates) < need or (
        need == 2 and any(p[2] == 0 for p in arc.points)
    ):
        return NOT_CONTAINED, None
    return CONTAINED, tuple(sorted((*arc.points, *candidates[:need])))


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


def _echelon_bases(spec: FieldSpec, dims, key):
    """Reduced-echelon bases of the F2-subspaces of F_q x F_q of each
    dimension in dims whose nonzero elements have pairwise distinct keys,
    key[a + b*2^r] for the element (a, b).

    Pivot sets run from the highest bits down, and the vector of each pivot
    ranges over its free bits, those below it that are no pivot, the first
    vector's fastest.  Each basis is built last vector first, so the first
    vector is chosen innermost.  The span of the vectors chosen so far and
    the keys of its nonzero elements are carried down, and a choice whose
    new elements repeat a key is dropped with every basis that would extend
    it: a span that repeats a key stays a subset of every span extending
    it.  Each level reads the keys of the elements e ^ v that its choices v
    would add one span element e at a time, for all its choices at once, so
    a choice is tested by one set union; at the innermost level no span or
    key set is grown, and each basis whose first vector passes is yielded
    as it is found, its first pair prepended to the pairs chosen above.
    That pair, the choice's basis head, is built once per pivot set for
    every level but the outermost, which runs once per pivot set.

    Memory: the choice lists hold up to 2^(2r-1) vectors, and each level
    holds its key columns, len(span) x len(choices) keys, up to 2^(2r-1)
    again at the innermost level, all built before that level's first
    basis; below the outermost level the heads add one tuple per vector.
    enumerate_subgroups at r = 10 holds about 43 MiB and takes about 0.1 s
    before its first basis at dimension 1, and about 95 MiB and 0.2-0.3 s at
    dimension 2, of which the heads of the 2^18 innermost choices take
    about 45 MiB and 0.1 s."""
    r, q = spec.r, spec.q

    def extend(level, choices, span, keys, tail):
        vecs, heads = choices[level]
        # the keys of the elements each choice v adds, e ^ v, one tuple per v
        news = zip(*[[key[e ^ v] for v in vecs] for e in span])
        size = len(keys) + len(span)
        if not level:
            for head, new in zip(heads, news):
                if len(keys.union(new)) == size:
                    yield head + tail
            return
        for v, head, new in zip(vecs, heads, news):
            grown = keys.union(new)
            if len(grown) == size:
                yield from extend(level - 1, choices, span + [e ^ v for e in span], grown,
                                  head + tail)

    for dim in dims:
        if dim == 0:
            yield ()
            continue
        for pivots in combinations(range(2 * r - 1, -1, -1), dim):
            choices = []
            for p in pivots:
                vecs = [1 << p]
                for b in range(p):
                    if b not in pivots:
                        vecs += [v | 1 << b for v in vecs]
                heads = (((v & (q - 1), v >> r),) for v in vecs)
                # each choice's basis head, built once per pivot set: kept in a
                # list where its level runs once per choice above it, but not at
                # the outermost level, the last pivot's, which runs once
                choices.append((vecs, heads if p == pivots[-1] else list(heads)))
            yield from extend(dim - 1, choices, [0], set(), ())


def enumerate_subgroups(spec: FieldSpec, dim: int):
    """All F2-subspaces of F_q x F_q of the given dimension, as basis tuples
    of pairs, one subspace each (reduced echelon enumeration).  Keyed by
    the elements themselves, no span repeats a key, so none is dropped.
    ArcError unless dim is an int >= 0."""
    _check_dimension(dim)
    return _echelon_bases(spec, (dim,), range(spec.q * spec.q))


def _check_dimension(dim) -> None:
    if type(dim) is not int or dim < 0:
        raise ArcError(f"dimension {dim!r} is not a non-negative int")


def is_translation_arc_group(group: AdditiveSubgroup) -> bool:
    """Whether the orbit of G is an arc: its secants meet the line at
    infinity in |G| - 1 distinct directions.

    Translating a collinear triple of the orbit by one of its points puts
    that point at the origin, so the orbit has one iff two nonzero g, g' in
    G lie on one line through the origin, that is, iff their directions
    (a : b : 0) agree.  That is the classical slope test too: the slope
    b/a, with infinity for a = 0, and the direction a/b, with q for b = 0,
    are both the projective point (a : b), one the reciprocal of the other
    with 0 and infinity swapped, so slopes repeat exactly when directions
    do.  The directions are the set bits of G's direction bitmask, so the
    test is a popcount."""
    return group._directions.bit_count() == len(group.elements) - 1


def enumerate_arc_subgroups(spec: FieldSpec, dims):
    """Exhaustively enumerate the subgroups of the given dimensions whose
    orbit is an arc, yielding basis tuples: the bases of enumerate_subgroups
    that pass is_translation_arc_group, in the same order.  That test
    depends only on the span, so _echelon_bases keyed by direction drops
    every basis whose first chosen vectors already span a repeated
    direction.  ArcError when r > 8 or a dimension is not an int >= 0."""
    if spec.r > 8:
        raise ArcError("exhaustive sweeps are supported for r <= 8")
    try:
        dims = tuple(dims)
    except TypeError:
        raise ArcError(f"dims {dims!r} is not a sequence of dimensions") from None
    for dim in dims:
        _check_dimension(dim)
    r, q = spec.r, spec.q
    exp, log = spec.exp, spec.log
    # direction a/b of the element a + b*2^r, with q for b = 0, as in
    # AdditiveSubgroup's direction bitmask
    direction = [exp[log[v & (q - 1)] + q - 1 - log[v >> r]] if v >> r else q
                 for v in range(q * q)]
    yield from _echelon_bases(spec, dims, direction)
