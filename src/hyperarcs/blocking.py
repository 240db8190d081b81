"""Blocking sets of the secants of an arc.

A k-arc has k(k-1)/2 secants, and an external point covers at most k/2 of
them, so a blocking set needs at least k - 1 points.  At that minimum the
counting is rigid: k must be even, every blocker lies on exactly k/2
secants, and every secant carries exactly one blocker.  So each blocker's
secants read off a perfect matching of the arc, and a minimum blocking set
is a 1-factorization of the complete graph on the arc; the exact-cover
search below needs one blocker per secant through one arc point only.
"""

from __future__ import annotations

from itertools import combinations

from hyperarcs._record import Record
from hyperarcs.gf2 import FieldSpec
from hyperarcs import projplane as pp
from hyperarcs.arcs import (
    Arc,
    ArcError,
    AdditiveSubgroup,
    secant_directions,
    secants,
    subgroup_make,
    translation_arc,
)
from hyperarcs.projplane import Matrix, Point
from hyperarcs.onefact import OneFactorization


class BlockingError(ValueError):
    """A point set that violates a blocking-set contract."""


class BlockingSet(Record):
    """External points meeting every secant of a fixed arc."""

    __slots__ = ("spec", "points")

    def __init__(self, spec: FieldSpec, points: tuple[Point, ...]):
        # slots written directly, not by Record.__init__: a sweep builds hundreds
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "points", tuple(sorted(set(points))))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def linear(self) -> bool:
        return pp._is_linear(self.spec, self.points)

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "points": [pp.point_to_json(p) for p in self.points],
            "linear": self.linear,
        }


def _point_masks(spec: FieldSpec, lines, points) -> dict[Point, int]:
    """Each given point, read through pp._read_points, mapped to the bitmask
    of the lines through it (bit i for lines[i]).  By incidence, so the cost
    does not grow with q, unlike a walk along the lines."""
    masks = {}
    for p in pp._read_points(spec, points):
        masks[p] = sum(1 << i for i, line in enumerate(lines) if pp._incident(spec, p, line))
    return masks


def is_blocking(arc: Arc, points) -> bool:
    """Every secant meets the point set; the set must avoid the arc."""
    lines = secants(arc)
    masks = _point_masks(arc.spec, lines, points)
    if not masks.keys().isdisjoint(arc.points):
        raise BlockingError("blocking set intersects the arc")
    covered = 0
    for mask in masks.values():
        covered |= mask
    return covered == (1 << len(lines)) - 1


def _blocker_candidates(arc: Arc) -> dict[Point, int]:
    """The candidates of min_blocking_sets with their secant masks, bit i
    for the i-th pair of combinations(range(k), 2), on L = p0 x pi in turn:
    secant ab meets L at a' + b', t' = t / (L.t), named as in
    is_hyperfocused_line, and a name held by k/2 - 1 pairs is a candidate."""
    spec = arc.spec
    exp, log = spec.exp, spec.log
    shift, infinity = spec.q - 1, spec.q
    pts = arc.points
    k = len(pts)
    logs = [(log[x], log[y], log[z]) for x, y, z in pts]
    # secant (0, i) has index i - 1; those avoiding p0 follow from k - 1 on
    rest = list(enumerate(combinations(range(1, k), 2), start=k - 1))
    found = {}
    for i in range(1, k):
        line = pp._cross(exp, log, pts[0], pts[i])
        j, h = (0, 1) if line[2] else (1, 2) if line[0] else (0, 2)
        l0, l1, l2 = log[line[0]], log[line[1]], log[line[2]]
        scaled = [None] * k
        for t in range(1, k):
            if t != i:
                a0, a1, a2 = logs[t]
                ld = shift - log[exp[a0 + l0] ^ exp[a1 + l1] ^ exp[a2 + l2]]
                scaled[t] = (exp[a0 + ld], exp[a1 + ld], exp[a2 + ld])
        names = {}
        for idx, (a, b) in rest:
            if i != a and i != b:
                sa, sb = scaled[a], scaled[b]
                w = sa[h] ^ sb[h]
                name = exp[log[sa[j] ^ sb[j]] + shift - log[w]] if w else infinity
                names[name] = names.get(name, 1 << (i - 1)) | 1 << idx
        for mask in names.values():
            if mask.bit_count() == k // 2:
                other = mask >> k - 1
                a, b = rest[(other & -other).bit_length() - 1][1]
                sa, sb = scaled[a], scaled[b]
                found[pp._normalize_fast(spec, sa[0] ^ sb[0], sa[1] ^ sb[1], sa[2] ^ sb[2])] = mask
    return found


def min_blocking_sets(arc: Arc) -> list[BlockingSet]:
    """All blocking sets of the secants of minimum size k - 1.

    Odd k admits none (an external point covers at most (k-1)/2 < k/2
    secants, so k - 1 of them cannot reach k(k-1)/2).  For even k the
    candidates are the external points on exactly k/2 secants, found with
    the naming argument of is_hyperfocused_line (_blocker_candidates).
    Their k/2 secants partition the arc, so each lies on exactly one secant
    through the first arc point p0: a minimum blocking set takes one
    candidate on each, and k - 1 disjoint ones, one on each, cover
    (k-1) k/2 = k(k-1)/2 secants, all of them.  So the exact cover branches
    on the secants through p0, in order.
    """
    k = len(arc)
    if k < 3:
        raise ArcError("blocking needs at least three arc points")
    if k % 2 == 1:
        return []
    masks = _blocker_candidates(arc)
    # the candidates on each secant through p0, whose bit is their lowest
    through = [[] for _ in range(k - 1)]
    for p, m in masks.items():
        through[(m & -m).bit_length() - 1].append((p, m))
    solutions = []

    def search(i: int, covered: int, chosen: tuple[Point, ...]):
        if i == k - 1:
            solutions.append(chosen)
            return
        for p, m in through[i]:
            if not m & covered:
                search(i + 1, covered | m, chosen + (p,))

    search(0, 0, ())
    out = [BlockingSet(arc.spec, pts) for pts in solutions]
    if len(out) > 1:
        out.sort(key=lambda b: b.points)
    for b in out:
        _assert_minimum_counting(b, masks, k)
    return out


def _assert_minimum_counting(blocking: BlockingSet, masks: dict[Point, int], k: int) -> None:
    """The forced structure at minimum size, read off the blockers' secant
    masks: k/2 secants per blocker, one blocker per secant."""
    covered = 0
    for p in blocking.points:
        m = masks.get(p, 0)
        if m.bit_count() != k // 2:
            raise BlockingError("a blocker misses its k/2 secant count")
        if m & covered:
            raise BlockingError("a secant carries two blockers")
        covered |= m
    if covered != (1 << (k * (k - 1) // 2)) - 1:
        raise BlockingError("a secant carries no blocker")


# ---------------------------------------------------------------------------
# The doubled-arc construction with a non-linear blocking set


def ghf_construct(group: AdditiveSubgroup, phi: Matrix) -> tuple[Arc, BlockingSet]:
    """Join a translation arc with its image under a homology fixing the
    line at infinity, and block the secants of the union.

    Secants inside either half already pass through a direction of G on the
    line at infinity; a cross secant from P to phi(Q) passes through the
    center of phi composed with the translation by P + Q.  The directions
    plus all such centers (the center of phi itself included) make 2k - 1
    points, one per secant: a minimum blocking set, never linear.
    """
    spec = group.spec
    k = group.order
    if k < 4:
        raise BlockingError("need a translation arc of size at least 4")
    lam_center = pp.center(spec, phi)
    if lam_center[2] == 0:
        raise BlockingError("map must be a homology (affine center), not an elation")
    arc = translation_arc(group)
    if lam_center in arc:
        raise BlockingError("homology center lies on the arc")
    image = [pp._apply_point(spec, phi, p) for p in arc.points]
    try:
        union = Arc(spec, arc.points + tuple(image))
    except ArcError as exc:
        raise BlockingError(f"union with the image is not an arc: {exc}") from exc
    if len(union) != 2 * k:
        raise BlockingError("image overlaps the arc")

    blockers = set(secant_directions(group))
    for a1, a2 in group.elements:
        composed = pp._compose(spec, phi, pp.elation(spec, a1, a2))
        blockers.add(pp._center(spec, composed))
    bset = BlockingSet(spec, tuple(blockers))
    if len(bset) != 2 * k - 1:
        raise BlockingError(f"expected {2 * k - 1} blockers, found {len(bset)}")
    if not is_blocking(union, bset.points):
        raise BlockingError("constructed set fails to block")
    if bset.linear:
        raise BlockingError("constructed set is unexpectedly linear")
    return union, bset


def ghf_eight(
    spec: FieldSpec,
    lam: int | None = None,
    a1: int | None = None,
    a2: int | None = None,
) -> tuple[Arc, BlockingSet, tuple[int, int, int]]:
    """The 8-point generalized hyperfocused arc over the quadrangle group.

    Valid parameters need lam outside {0, 1} and {a1, a2, a1 + a2} disjoint
    from {0, 1, lam, lam + 1}, which forces q >= 16: that set is an additive
    group of index 2 in F_8, so at q = 8 no triple avoids it (the proof is
    in classify.ClassificationReport.example_exists).  With parameters omitted
    the triple is (2, 4, 8), the first valid one scanning lam, then a1, then
    a2 upward: lam = 2 is the least outside {0, 1}, a1 = 4 the least outside
    U = {0, 1, 2, 3}, and a2 must avoid U and U + 4.  Bit arithmetic puts
    {4, 8, 12} outside U in every field with q >= 16.
    The 7 blockers form a subplane of order 2, which is re-checked here.
    """
    if lam is None and a1 is None and a2 is None:
        if spec.q < 16:
            raise BlockingError(f"no valid parameters exist for q = {spec.q}")
        lam, a1, a2 = 2, 4, 8
    elif lam is None or a1 is None or a2 is None:
        raise BlockingError("give all of lam, a1, a2, or none")
    else:
        spec.check(lam, a1, a2)
        if not _valid_parameters(lam, a1, a2):
            raise BlockingError(f"(lam={lam}, a1={a1}, a2={a2}) violates the constraints")

    quadrangle = subgroup_make(spec, [(0, 1), (1, 0)])
    arc, bset = ghf_construct(quadrangle, pp.homology(spec, lam, a1, a2))
    if not is_fano_configuration(spec, bset.points):
        raise BlockingError("blockers do not form a subplane of order 2")
    return arc, bset, (lam, a1, a2)


def _valid_parameters(lam: int, a1: int, a2: int) -> bool:
    return lam not in (0, 1) and not ({a1, a2, a1 ^ a2} & {0, 1, lam, lam ^ 1})


def is_doubled_quadrangle(arc: Arc) -> bool:
    """Whether a projectivity maps the arc onto an arc of ghf_eight for some
    valid triple: the square F = {0,1}^2 of the affine plane and lam*F + a.

    Each 4-subset S is mapped onto F by pp._to_standard_frame in increasing
    order, and the arc passes when its other four points go to lam*F + a
    for a valid triple.  If some ordering of S does that, this one does:
    the two maps differ by some x -> Mx + t of the frame's stabilizer, M in
    GL(2,2) and t in F, which sends lam*F + a to lam*F + (Ma + t).  That
    triple is valid too, since M permutes {a1, a2, a1 + a2}, and t, like
    the choice of a within lam*F + a, adds to each coordinate an element of
    the group {0, 1, lam, lam + 1} that those sums avoid."""
    if len(arc) != 8:
        return False
    spec = arc.spec
    for subset in combinations(arc.points, 4):
        m = pp._to_standard_frame(spec, *subset)
        rest = sorted(pp._apply_point(spec, m, p) for p in arc.points if p not in subset)
        if any(z != 1 for _, _, z in rest):
            continue
        (x0, y0, _), *others = rest
        steps = {(x ^ x0, y ^ y0) for x, y, _ in others}
        lam = max(x for x, _ in steps)
        if steps == {(lam, 0), (0, lam), (lam, lam)} and _valid_parameters(lam, x0, y0):
            return True
    return False


def is_fano_configuration(spec: FieldSpec, points) -> bool:
    """Seven points forming a subplane of order 2: every line through two
    of them contains exactly one more."""
    pts = sorted(set(pp._read_points(spec, points)))
    if len(pts) != 7:
        return False
    for p, q in combinations(pts, 2):
        line = pp._line_through(spec, p, q)
        others = sum(
            1 for s in pts if s not in (p, q) and pp._incident(spec, s, line)
        )
        if others != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# The collinearity forced on blockers of a triangle


def secant_blocker_map(arc: Arc, blocking: BlockingSet) -> dict:
    """Unique blocker per secant; raises unless the set is minimum-size."""
    if set(blocking.points) & set(arc.points):
        raise BlockingError("blocking set intersects the arc")
    if len(blocking) != len(arc) - 1:
        raise BlockingError("not a minimum-size blocking set")
    lines = secants(arc)
    masks = _point_masks(arc.spec, lines, blocking.points)
    mapping = {}
    for idx, (line, pair) in enumerate(zip(lines, combinations(arc.points, 2))):
        hits = [b for b, mask in masks.items() if mask >> idx & 1]
        if len(hits) != 1:
            raise BlockingError(f"secant {line} carries {len(hits)} blockers")
        mapping[frozenset(pair)] = hits[0]
    return mapping


def triangle_collinearity(arc: Arc, blocking: BlockingSet):
    """For every triangle in the arc, the blockers of its three sides are
    collinear.  Returns (True, None) or (False, first offending triangle)."""
    spec = arc.spec
    blocker_of = secant_blocker_map(arc, blocking)
    for tri in combinations(arc.points, 3):
        p1, p2, p3 = tri
        q1 = blocker_of[frozenset((p2, p3))]
        q2 = blocker_of[frozenset((p1, p3))]
        q3 = blocker_of[frozenset((p1, p2))]
        if not pp._collinear(spec, q1, q2, q3):
            return False, tri
    return True, None


def factorization_of(arc: Arc, blocking: BlockingSet) -> OneFactorization:
    """Read the minimum blocking set as a 1-factorization of the complete
    graph on the arc points (canonical order, 1-based vertices)."""
    index = {p: i + 1 for i, p in enumerate(arc.points)}
    edges = {b: [] for b in blocking.points}
    for pair, b in secant_blocker_map(arc, blocking).items():
        edges[b].append(tuple(sorted(index[p] for p in pair)))
    return OneFactorization(len(arc), tuple(sorted(tuple(sorted(e)) for e in edges.values())))


# ---------------------------------------------------------------------------
# Projective equivalence of arcs


# The stabilizer of STANDARD_FRAME in PGL(3, q).  The frame is the square
# {0,1}^2 of the affine plane, and the affine maps (x, y) -> A(x, y) + t with
# A in GL(2,2) and t in {0,1}^2 permute it; their matrices have entries 0
# and 1 only, so they act over every GF(2^r).  There are 24 of them, and a
# projectivity is fixed by the image of an ordered frame, so they are the
# whole stabilizer and induce all 24 permutations of the frame.  Each map is
# kept as its rows (a, b, c) and (d, e, f), coded 4b + 2a + c: the row's
# value at (x, y, 1) is that entry of (0, 1, x, x+1, y, y+1, x+y, x+y+1).
_GL22 = (
    ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
    ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)),
)
_FRAME_STABILIZER = tuple(
    (4 * b + 2 * a + c, 4 * e + 2 * d + f)
    for (a, b), (d, e) in _GL22
    for c in (0, 1)
    for f in (0, 1)
)


def _four_subsets(arc: Arc):
    """Every 4-subset of the arc's indices, (0, 1, 2, 3) first."""
    if len(arc) < 4:
        raise ArcError("canonical form needs at least four points")
    return combinations(range(len(arc)), 4)


def _subset_images(arc: Arc, subsets):
    """For each 4-subset of arc indices, its label: the least sorted image
    of the arc over the 24 maps sending an ordering of the subset to the
    standard frame.

    Any 4 arc points are in general position, so the subset in increasing
    order is a frame for pp._to_standard_frame, with matrix M.  The map of
    any other ordering is Q M for one Q of the frame's stabilizer, and each
    Q gives one ordering.  Every image holds the standard frame itself, so
    only the other k - 4 points are mapped: through M once, normalized, and
    then through each Q.  An affine point (x, y, 1) goes to
    (ax + by + c, dx + ey + f, 1) by XOR alone; a point at infinity goes to
    (ax + by, dx + ey, 0), normalized by one table division."""
    spec = arc.spec
    exp, log = spec.exp, spec.log
    shift = spec.q - 1
    pts = arc.points
    point_logs = [(log[p[0]], log[p[1]], log[p[2]]) for p in pts]
    frame = pp.STANDARD_FRAME

    for subset in subsets:
        rows = pp._to_standard_frame(spec, *(pts[i] for i in subset))
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
            (log[m[0]], log[m[1]], log[m[2]]) for m in rows
        )
        # the 24 images of each other point, one list per point
        columns = []
        for j, (l0, l1, l2) in enumerate(point_logs):
            if j in subset:
                continue
            x = exp[a0 + l0] ^ exp[a1 + l1] ^ exp[a2 + l2]
            y = exp[b0 + l0] ^ exp[b1 + l1] ^ exp[b2 + l2]
            z = exp[c0 + l0] ^ exp[c1 + l1] ^ exp[c2 + l2]
            if z:
                s = shift - log[z]
                x, y = exp[log[x] + s], exp[log[y] + s]
                w = (0, 1, x, x ^ 1, y, y ^ 1, x ^ y, x ^ y ^ 1)
                columns.append([(w[u], w[v], 1) for u, v in _FRAME_STABILIZER])
            else:
                # on the line at infinity the translation part drops out
                w = (0, 0, x, x, y, y, x ^ y, x ^ y)
                columns.append([
                    (exp[log[w[u]] + shift - log[w[v]]], 1, 0) if w[v] else (1, 0, 0)
                    for u, v in _FRAME_STABILIZER
                ])
        # The images share the frame and are disjoint from it, so their
        # sorted forms compare as the sorted images of the other points do:
        # either order puts first the set holding the least point of the
        # symmetric difference.
        best = min((sorted(images) for images in zip(*columns)), default=())
        yield tuple(sorted((*frame, *best)))


def arc_canonical_form(arc: Arc) -> tuple:
    """Canonical representative of the arc's projective class: the least
    sorted image over all k(k-1)(k-2)(k-3) maps sending an ordered 4-subset
    of the arc to the standard frame.  Equal forms mean projectively
    equivalent arcs.  Each 4-subset costs one projectivity, and its 24
    orderings 24 images by XOR through the frame's stabilizer.  To reduce
    many arcs to their classes, ArcClasses returns the same form for one
    projectivity and 24 XOR images per arc after the first arc of each
    class."""
    return min(_subset_images(arc, _four_subsets(arc)))


def projectively_equivalent(a: Arc, b: Arc) -> bool:
    """Whether some projectivity maps arc a onto arc b; False for arcs of
    different sizes or different planes.

    Let M_f be the projectivity sending the ordered frame f to the standard
    frame, image(a, f) the sorted M_f(a), and label(a, S) the least
    image(a, f) over the 24 orderings f of a 4-subset S.  Projectivities act
    regularly on ordered frames: exactly one sends a given ordered frame to
    another.  So if g maps a onto b, then for every ordering f of S,
    M_g(f) g = M_f, whence image(b, g(f)) = image(a, f); the orderings of S
    and of g(S) pair off with equal images, and label(b, g(S)) = label(a, S).
    Conversely, if label(a, S) = label(b, T), then image(a, f) = image(b, h)
    for some orderings f of S and h of T, and M_h^-1 M_f maps a onto b.
    The label needs one projectivity per subset: for two orderings f and g
    of S, M_g M_f^-1 sends the standard frame onto itself, so M_g = Q M_f
    for a Q in the frame's stabilizer, the 24 affine maps AGL(2,2) of the
    square {0,1}^2; each Q gives one ordering g, and label(a, S) is the
    least sorted Q M_f(a) over the 24 maps Q, f the increasing ordering.
    Hence a and b are equivalent if and only if the label of a's first
    4-subset is among the labels of b's 4-subsets, and the scan stops at the
    first match.  Equivalent arcs have the same set of labels, and so the
    same least label, which is the least frame image, arc_canonical_form."""
    # both raise ArcError below four points, whatever the sizes
    key = next(_subset_images(a, _four_subsets(a)))
    subsets = _four_subsets(b)
    if len(a) != len(b) or a.spec != b.spec:
        return False
    return key in _subset_images(b, subsets)


class ArcClasses:
    """A table of the projective classes of the arcs seen so far: form(arc)
    returns arc_canonical_form(arc), with one full pass over the ordered
    frames per class instead of one per arc.

    By the argument of projectively_equivalent, every arc of a class has
    the same set of 4-subset labels, and an arc whose first label lies in
    that set belongs to the class.  The table maps every label of every
    class met so far to the least of them, the canonical form; an arc's
    first label is therefore found exactly when its class has been met, and
    the form stored there is its own.  A later arc of a met class costs its
    first label only: one projectivity and the 24 XOR images of its other
    points.  Keying by label, not by frame image, stores 24 times fewer keys
    (70 per class of 8-arcs) for those 24 images per lookup."""

    def __init__(self):
        # field -> 4-subset label -> canonical form; labels carry no field
        self._tables: dict[FieldSpec, dict[tuple, tuple]] = {}

    def form(self, arc: Arc) -> tuple:
        table = self._tables.setdefault(arc.spec, {})
        labels = _subset_images(arc, _four_subsets(arc))
        first = next(labels)
        form = table.get(first)
        if form is None:
            keys = [first, *labels]
            form = min(keys)
            table.update(dict.fromkeys(keys, form))
        return form
