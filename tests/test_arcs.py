import copy
import pickle
import random
import time
from itertools import combinations, product
from math import gcd

import pytest

from hyperarcs.gf2 import FieldError, field_make
from hyperarcs import projplane as pp
from hyperarcs import arcs
from hyperarcs.arcs import (
    Arc,
    ArcError,
    CollinearError,
    CONTAINED,
    INCONCLUSIVE,
    NOT_CONTAINED,
    build_complete_translation_arc,
    conic_translation_arc,
    enumerate_subgroups,
    extend_double,
    frobenius_translation_arc,
    hyperfocused_lines,
    hyperoval_containment,
    is_hyperfocused_line,
    is_translation_arc_group,
    normal_form_q_arc,
    secant_directions,
    secants,
    split_conic_arc,
    subgroup_make,
    subplane_bound,
    translation_arc,
    translation_superarcs,
    uncovered_affine,
)

GF4 = field_make(2)
GF8 = field_make(3)
GF16 = field_make(4)

QUAD_BASIS = [(0, 1), (1, 0)]  # spans {(0,0),(0,1),(1,0),(1,1)}


def quad_group(spec):
    return subgroup_make(spec, QUAD_BASIS)


# ---------------------------------------------------------------------------
# Subgroups


def test_subgroup_span():
    g = quad_group(GF8)
    assert g.elements == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_trivial_subgroup():
    g = subgroup_make(GF8, [])
    assert g.elements == ((0, 0),)


def test_dependent_generators_rejected():
    with pytest.raises(ArcError):
        subgroup_make(GF8, [(1, 0), (1, 0)])
    with pytest.raises(ArcError):
        subgroup_make(GF8, [(1, 0), (0, 1), (1, 1)])


NON_INTS = [1.9, 1.0, "3", True, False]


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_subgroup_refuses_non_int_values(bad):
    # a float, str or bool is refused, never converted to an element
    with pytest.raises(FieldError):
        subgroup_make(GF8, [(bad, 0)])
    with pytest.raises(FieldError):
        subgroup_make(GF8, [(1, 0), (0, bad)])


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_non_int_after_dependent_pair_is_field_error(bad):
    # every pair is checked before the independence test
    with pytest.raises(FieldError):
        subgroup_make(GF8, [(1, 0), (1, 0), (bad, 1)])


@pytest.mark.parametrize("basis", [[(1, 2, 3)], [1], [(1, 0), (2,)], 5], ids=repr)
def test_subgroup_refuses_a_basis_of_non_pairs(basis):
    # unpacking alone would raise a bare ValueError or TypeError
    with pytest.raises(ArcError, match="basis .* is not a sequence of pairs"):
        subgroup_make(GF8, basis)


def test_repeated_generators_are_refused_after_checking():
    # a full basis of F_q x F_q spans all q^2 pairs; one more pair, or a
    # repeated one, is dependent, but a pair outside the field is still the error
    full = [(1 << i, 0) for i in range(3)] + [(0, 1 << i) for i in range(3)]
    assert len(subgroup_make(GF8, full).elements) == 64
    with pytest.raises(ArcError):
        subgroup_make(GF8, full + [(5, 3)])
    with pytest.raises(ArcError):
        subgroup_make(GF8, [(1, 0)] * 40)
    with pytest.raises(FieldError):
        subgroup_make(GF8, [(1, 0)] * 40 + [(8, 0)])


def test_dependent_generator_is_refused_before_the_span_grows():
    # the span stops at the first dependent generator: 32 copies of one
    # pair at r = 16 would otherwise double it to 2^32 pairs
    gf4096, gf65536 = field_make(12), field_make(16)
    start = time.perf_counter()
    with pytest.raises(ArcError):
        subgroup_make(gf65536, [(1, 0)] * 32)
    with pytest.raises(ArcError):
        subgroup_make(gf4096, [(1 << i, 0) for i in range(12)] + [(1, 0)] * 12)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Translation arcs


def test_quadrangle_orbit():
    arc = translation_arc(quad_group(GF8))
    assert arc.points == ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))


def test_collinear_orbit_rejected():
    # all of F4 x {0}: the orbit lies on the line X2 = 0
    with pytest.raises(ArcError):
        translation_arc(subgroup_make(GF4, [(1, 0), (2, 0)]))


def test_conic_translation_arc_gf8():
    arc = conic_translation_arc(GF8, [1, 2, 4])
    assert len(arc) == 8
    for a in GF8.elements():
        assert (a, GF8.mul(a, a), 1) in arc


def test_translation_arc_off_origin():
    g = quad_group(GF8)
    arc = translation_arc(g, (3, 5, 1))
    assert (3, 5, 1) in arc
    assert len(arc) == 4


def test_translation_arc_refuses_a_base_that_is_not_a_triple():
    with pytest.raises(pp.GeometryError, match="not a triple"):
        translation_arc(quad_group(GF8), (1, 2))


def test_base_at_infinity_rejected():
    with pytest.raises(ArcError):
        translation_arc(quad_group(GF8), (1, 0, 0))


def test_frobenius_arc_inside_translation_hyperoval():
    spec = field_make(5)
    arc = frobenius_translation_arc(spec, [1, 2, 4, 8, 16], 2)
    assert len(arc) == 32
    # every point sits on the graph of x -> x^4
    for x, y, z in arc.points:
        assert z == 1 and y == spec.frob(x, 2)


def test_frobenius_arc_gcd_violation():
    with pytest.raises(ArcError):
        frobenius_translation_arc(field_make(4), [1], 2)


def test_arc_rejects_collinear_points():
    with pytest.raises(ArcError):
        Arc(GF4, ((0, 0, 1), (1, 0, 1), (2, 0, 1)))


def test_arc_refuses_out_of_field_coordinates():
    with pytest.raises(FieldError):
        Arc(GF4, [(5, 0, 1), (0, 1, 1), (1, 0, 1)])


@pytest.mark.parametrize("bad", NON_INTS, ids=repr)
def test_arc_refuses_non_int_coordinates(bad):
    with pytest.raises(FieldError):
        Arc(GF4, [(bad, 0, 1), (0, 1, 1), (1, 0, 1)])


def test_arc_normalizes_its_points():
    # (3, 3, 3) is (1, 1, 1) over GF(4): the frame, listed unnormalized
    arc = Arc(GF4, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (3, 3, 3)])
    assert arc.points == ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    assert (1, 1, 1) in arc


def test_arc_json_round_trip():
    from hyperarcs.arcs import arc_from_json

    arc = conic_translation_arc(GF8, [1, 2, 4])
    again = arc_from_json(arc.to_json())
    assert again.points == arc.points
    assert again.spec == arc.spec
    with pytest.raises(ArcError):
        arc_from_json({"points": []})


# ---------------------------------------------------------------------------
# Secants and directions


def test_secant_count():
    arc = conic_translation_arc(GF8, [1, 2, 4])
    assert len(secants(arc)) == 8 * 7 // 2


def test_quadrangle_directions():
    dirs = secant_directions(quad_group(GF8))
    assert set(dirs) == {(0, 1, 0), (1, 0, 0), (1, 1, 0)}


def test_trivial_group_directions_empty():
    assert secant_directions(subgroup_make(GF8, [])) == ()


def test_directions_match_secant_hits():
    rng = random.Random(5)
    for _ in range(10):
        basis = []
        while len(basis) < 3:
            cand = (rng.randrange(8), rng.randrange(8))
            try:
                g = subgroup_make(GF8, basis + [cand])
            except ArcError:
                continue
            basis.append(cand)
        g = subgroup_make(GF8, basis)
        if not is_translation_arc_group(g):
            continue
        arc = translation_arc(g)
        hits = {pp.meet(GF8, pp.LINE_AT_INFINITY, s) for s in secants(arc)}
        assert hits == set(secant_directions(g))
        assert len(hits) == g.order - 1


def brute_directions(g):
    """The directions a/b of the nonzero elements of G by the checked field
    division, q standing for b = 0."""
    spec = g.spec
    return {spec.div(a, b) if b else spec.q for a, b in g.elements if (a, b) != (0, 0)}


def assert_direction_bitmask(g):
    dirs = brute_directions(g)
    assert g._directions == sum(1 << d for d in dirs)
    assert is_translation_arc_group(g) == (len(dirs) == g.order - 1)
    q = g.spec.q
    assert secant_directions(g) == tuple(sorted((d, 1, 0) if d < q else (1, 0, 0) for d in dirs))


def test_direction_bitmask_matches_brute_force_on_every_small_subgroup():
    # every subgroup of dimension 0-4 at r <= 3, arc groups and the rest
    count, verdicts = 0, set()
    for r in (1, 2, 3):
        spec = field_make(r)
        for dim in range(5):
            for basis in enumerate_subgroups(spec, dim):
                g = subgroup_make(spec, basis)
                assert_direction_bitmask(g)
                verdicts.add(is_translation_arc_group(g))
                count += 1
    assert count == 5 + 67 + 2761 and verdicts == {True, False}


@pytest.mark.parametrize("r", [9, 10])
def test_direction_bitmask_matches_brute_force_on_random_subgroups(r):
    # about half the bases start with elements of direction q, (x, 0), or
    # 0, (0, y), whose bits are the ends of the mask
    spec = field_make(r)
    rng = random.Random(900 + r)
    ends, verdicts = set(), set()
    for _ in range(60):
        basis = [(rng.randrange(1, spec.q), 0), (0, rng.randrange(1, spec.q))]
        basis = rng.sample(basis, rng.randrange(3))
        basis += [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(rng.randrange(1, 7))]
        try:
            g = subgroup_make(spec, basis)
        except ArcError:
            continue
        assert_direction_bitmask(g)
        ends.add((g._directions & 1, g._directions >> spec.q))
        verdicts.add(is_translation_arc_group(g))
    assert len(ends) == 4 and verdicts == {True, False}


def test_direction_bitmask_survives_copy_and_pickle():
    g = subgroup_make(GF16, [(1, 1), (2, 4), (4, 3)])
    assert is_translation_arc_group(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin._directions == g._directions
        assert secant_directions(twin) == secant_directions(g)
        assert translation_arc(twin) == translation_arc(g)


def test_subgroup_equality_and_hash_ignore_the_direction_bitmask():
    g = quad_group(GF8)
    twin = arcs.AdditiveSubgroup(GF8, g.basis, g.elements)
    object.__setattr__(twin, "_directions", 0)
    assert twin == g
    assert hash(twin) == hash(g) == hash((GF8, g.basis, g.elements))


# ---------------------------------------------------------------------------
# Hyperfocus


def test_translation_arc_hyperfocused_on_line_at_infinity():
    arc = translation_arc(quad_group(GF4))
    lines = hyperfocused_lines(arc)
    assert pp.LINE_AT_INFINITY in lines


def test_quadrangle_hyperfocused_lines_are_diagonal_lines():
    # independent construction: the three diagonal points of the quadrangle
    arc = translation_arc(quad_group(GF4))
    p1, p2, p3, p4 = arc.points
    diag = [
        pp.meet(GF4, pp.line_through(GF4, p1, p2), pp.line_through(GF4, p3, p4)),
        pp.meet(GF4, pp.line_through(GF4, p1, p3), pp.line_through(GF4, p2, p4)),
        pp.meet(GF4, pp.line_through(GF4, p1, p4), pp.line_through(GF4, p2, p3)),
    ]
    expected = [
        l
        for l in pp.all_lines(GF4)
        if all(pp.incident(GF4, d, l) for d in diag)
    ]
    assert expected  # char 2: diagonal points are collinear
    assert hyperfocused_lines(arc) == expected


def test_three_arcs_are_never_hyperfocused():
    # secants of a triangle pairwise meet in arc points, so an external line
    # always sees three distinct intersections
    count = 0
    pts = pp.all_points(GF4)
    rng = random.Random(9)
    while count < 20:
        tri = rng.sample(pts, 3)
        if pp.collinear(GF4, *tri):
            continue
        assert hyperfocused_lines(Arc(GF4, tuple(tri))) == []
        count += 1


def hyperfocused_by_definition(arc, line):
    """Oracle: the line avoids the arc, and the distinct meets of the line
    with the secants number k - 1."""
    spec = arc.spec
    if any(pp.incident(spec, p, line) for p in arc.points):
        return False
    hits = {pp.meet(spec, line, s) for s in secants(arc)}
    return len(hits) == len(arc) - 1


def random_arc(spec, rng, k):
    """A k-arc grown from shuffled points, each added off the secants of
    those before; retried when the growth gets stuck below k."""
    while True:
        pts = pp.all_points(spec)
        rng.shuffle(pts)
        chosen, covered = [], set()
        for p in pts:
            if p in covered:
                continue
            for a in chosen:
                covered.update(pp.line_points(spec, pp.line_through(spec, a, p)))
            chosen.append(p)
            if len(chosen) == k:
                return Arc(spec, tuple(chosen))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_hyperfocus_matches_definition_on_random_arcs(r):
    spec = field_make(r)
    rng = random.Random(70 + r)
    lines = pp.all_lines(spec)
    cases = [random_arc(spec, rng, k) for k in range(2, min(spec.q + 2, 10) + 1)
             for _ in range(3)]
    cases.append(translation_arc(quad_group(spec)))
    through, verdicts = 0, set()
    for arc in cases:
        for line in lines:
            expected = hyperfocused_by_definition(arc, line)
            assert is_hyperfocused_line(arc, line) == expected, (arc.points, line)
            through += any(pp.incident(spec, p, line) for p in arc.points)
            verdicts.add(expected)
    assert through and verdicts == {True, False}


def test_hyperfocus_needs_two_points():
    line = pp.LINE_AT_INFINITY
    for pts in ((), ((0, 0, 1),)):
        with pytest.raises(ArcError):
            is_hyperfocused_line(Arc(GF8, pts), line)


def test_hyperfocused_line_refuses_out_of_field_coordinate():
    # 9 would index past GF(8)'s log table
    with pytest.raises(FieldError):
        is_hyperfocused_line(translation_arc(quad_group(GF8)), (0, 0, 9))


def test_hyperfocused_line_refuses_zero_triple():
    # the zero triple is no line; it read as one that the arc meets
    with pytest.raises(pp.GeometryError, match="zero triple"):
        is_hyperfocused_line(translation_arc(quad_group(GF8)), (0, 0, 0))


@pytest.mark.parametrize("bad", [(0, 1), (0, 0, 1, 0), 1], ids=repr)
def test_hyperfocused_line_refuses_non_triples(bad):
    with pytest.raises(pp.GeometryError, match="not a triple"):
        is_hyperfocused_line(translation_arc(quad_group(GF8)), bad)


def test_hyperfocused_membership_matches_full_scan():
    arc = conic_translation_arc(GF8, [1, 2])
    full = hyperfocused_lines(arc)
    for line in pp.all_lines(GF8):
        assert (line in full) == is_hyperfocused_line(arc, line)


# ---------------------------------------------------------------------------
# Doubling


def test_extend_double_produces_double_arc():
    g = quad_group(GF8)
    arc = translation_arc(g)
    free = uncovered_affine(arc)
    assert free
    a, b, _ = free[0]
    g2 = extend_double(g, (a, b))
    assert g2.order == 8
    assert len(translation_arc(g2)) == 8


def test_extend_double_rejects_member():
    with pytest.raises(ArcError):
        extend_double(quad_group(GF8), (1, 1))


def test_extend_double_rejects_covered_point():
    g = quad_group(GF8)
    covered = arcs._secant_point_set(translation_arc(g))
    p = next(p for p in sorted(covered) if p[2] == 1 and (p[0], p[1]) not in g)
    with pytest.raises(ArcError):
        extend_double(g, (p[0], p[1]))


@pytest.mark.parametrize(
    "pair, error",
    [((1, 2, 3), ArcError), (1, ArcError), (None, ArcError), ((0, 8), FieldError),
     ((0, 1.0), FieldError)],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_extend_double_reads_its_pair_as_subgroup_make_does(pair, error):
    # unpacking alone would raise a bare ValueError or TypeError
    with pytest.raises(error) as info:
        extend_double(quad_group(GF8), pair)
    assert type(info.value) is error


def test_extend_double_from_trivial_group():
    g = subgroup_make(GF8, [])
    g2 = extend_double(g, (3, 4))
    assert g2.elements == ((0, 0), (3, 4))
    assert len(translation_arc(g2)) == 2


@pytest.mark.parametrize(
    "spec,basis",
    [(GF8, QUAD_BASIS), (GF16, [(h, GF16.mul(h, h)) for h in (1, 2, 4)])],
    ids=["quadrangle-q8", "conic-q16"],
)
def test_extend_double_matches_secant_walk(spec, basis):
    # on every affine point, the slope test in extend_double agrees with
    # walking the points of the orbit's secants
    g = subgroup_make(spec, basis)
    walked = arcs._secant_point_set(translation_arc(g))
    outcomes = set()
    for a in spec.elements():
        for b in spec.elements():
            if (a, b) in g or (a, b, 1) in walked:
                outcomes.add(False)
                with pytest.raises(ArcError):
                    extend_double(g, (a, b))
                continue
            outcomes.add(True)
            doubled = extend_double(g, (a, b))
            assert len(Arc(spec, translation_arc(doubled).points)) == 2 * g.order
    assert outcomes == {True, False}


def test_doubling_randomized():
    rng = random.Random(77)
    for r in (3, 4, 5, 6):
        spec = field_make(r)
        g = quad_group(spec)
        arc = translation_arc(g)
        free = uncovered_affine(arc)
        for p in rng.sample(list(free), min(3, len(free))):
            g2 = extend_double(g, (p[0], p[1]))
            assert len(translation_arc(g2)) == 2 * len(arc)


# ---------------------------------------------------------------------------
# Uncovered points


def uncovered_oracle(arc):
    """Double loop over affine points x secants, straight from the meaning."""
    spec = arc.spec
    lines = secants(arc) if len(arc) >= 2 else ()
    out = []
    for a in spec.elements():
        for b in spec.elements():
            p = (a, b, 1)
            if p in arc.points:
                continue
            if any(pp.incident(spec, p, l) for l in lines):
                continue
            out.append(p)
    return tuple(out)


def test_uncovered_matches_oracle_conic():
    arc = conic_translation_arc(GF8, [1, 2, 4])
    assert uncovered_affine(arc) == uncovered_oracle(arc)


def test_uncovered_matches_oracle_various():
    rng = random.Random(13)
    for _ in range(5):
        basis = []
        while len(basis) < 2:
            cand = (rng.randrange(16), rng.randrange(16))
            try:
                g = subgroup_make(GF16, basis + [cand])
            except ArcError:
                continue
            if is_translation_arc_group(g):
                basis.append(cand)
        arc = translation_arc(subgroup_make(GF16, basis))
        assert uncovered_affine(arc) == uncovered_oracle(arc)


def test_uncovered_two_point_arc_gf2():
    spec = field_make(1)
    arc = translation_arc(subgroup_make(spec, [(1, 1)]))
    # single secant; the rest of the affine plane is uncovered
    assert uncovered_affine(arc) == uncovered_oracle(arc)
    assert len(uncovered_affine(arc)) == 2


def test_uncovered_disjoint_from_arc_and_secants():
    arc = conic_translation_arc(GF16, [1, 2])
    lines = secants(arc)
    for p in uncovered_affine(arc):
        assert p not in arc
        assert not any(pp.incident(GF16, p, l) for l in lines)


def random_arc_group(spec, rng, dim):
    """A random subgroup of the given dimension whose orbit is an arc."""
    basis = []
    while len(basis) < dim:
        cand = (rng.randrange(spec.q), rng.randrange(spec.q))
        try:
            g = subgroup_make(spec, basis + [cand])
        except ArcError:
            continue
        if is_translation_arc_group(g):
            basis.append(cand)
    return subgroup_make(spec, basis)


def coset_uncovered(group):
    """_translation_uncovered read out as _uncovered's (affine, at_infinity)."""
    rows, at_infinity = arcs._translation_uncovered(group)
    q = group.spec.q
    affine = tuple((x, y, 1) for x, row in enumerate(rows) for y in range(q) if row >> y & 1)
    return affine, at_infinity


def test_coset_coverage_matches_secant_walk():
    # the completion's coverage by intercept cosets against the walk over
    # the secants' points, on seeded random translation arcs, r <= 8, on
    # the quadrangle (slopes 0 and infinity) and on the affinely complete
    # (6, 3) certificate arc
    rng = random.Random(612)
    cases = [subgroup_make(field_make(1), [(1, 1)]), subgroup_make(GF8, []), quad_group(GF16)]
    for r in range(2, 9):
        spec = field_make(r)
        for _ in range(5):
            cases.append(random_arc_group(spec, rng, rng.randrange(1, min(r, 4) + 1)))
    complete = conic_subfield_group(field_make(6), 3)
    for a, b in build_complete_translation_arc(6, 3).chosen:
        complete = extend_double(complete, (a, b))
    cases.append(complete)
    sizes = set()
    for g in cases:
        affine, at_infinity = coset_uncovered(g)
        assert (affine, at_infinity) == arcs._uncovered(translation_arc(g)), g.basis
        sizes.add(bool(affine))
    assert sizes == {True, False}


# ---------------------------------------------------------------------------
# Normal-form q-arcs


def test_normal_form_conic():
    arc = normal_form_q_arc(GF8, 0, 1, 1)
    assert arc is not None
    assert arc.points == tuple(sorted((x, GF8.mul(x, x), 1) for x in GF8.elements()))


def test_normal_form_inverse_frobenius():
    r = 4
    spec = field_make(r)
    arc = normal_form_q_arc(spec, 1, 0, r - 1)
    assert arc is not None
    for x, y, z in arc.points:
        assert x == spec.frob(y, r - 1)


def test_normal_form_contains_zero_and_one():
    for alpha in GF8.elements():
        for beta in GF8.elements():
            arc = normal_form_q_arc(GF8, alpha, beta, 1)
            if arc is not None:
                assert (0, 0, 1) in arc
                assert (1, 1, 1) in arc
                assert len(arc) == 8


def test_normal_form_rejects_degenerate_parameters():
    # alpha = beta makes the map a function of x + y alone: kernel too big
    assert normal_form_q_arc(GF8, 1, 1, 1) is None


def test_normal_form_gcd_violation():
    with pytest.raises(ArcError):
        normal_form_q_arc(GF16, 0, 1, 2)


def test_normal_form_solution_set_oracle():
    # the returned points are exactly the solutions of the displayed equation
    spec = GF16
    for alpha, beta, i in [(0, 1, 1), (1, 0, 3), (3, 7, 1)]:
        arc = normal_form_q_arc(spec, alpha, beta, i)
        solutions = {
            (x, y, 1)
            for x in spec.elements()
            for y in spec.elements()
            if arcs._normal_form_value(spec, alpha, beta, i, x, y) == 0
        }
        if arc is None:
            assert len(solutions) != spec.q or _has_collinear(spec, solutions)
        else:
            assert set(arc.points) == solutions


def _has_collinear(spec, pts):
    pts = sorted(pts)
    return arcs._collinear_triple(spec, tuple(pts)) is not None


# ---------------------------------------------------------------------------
# Superarcs


def conic_subfield_group(spec, s):
    return subgroup_make(
        spec,
        [(h, spec.mul(h, h)) for h in arcs._subfield_basis(spec, s)],
    )


def test_superarcs_r6_bound_and_membership():
    spec = field_make(6)
    g = conic_subfield_group(spec, 3)
    supers = translation_superarcs(g)
    assert 1 <= len(supers) <= 2  # at most r/s = 2
    conic = {(x, spec.mul(x, x), 1) for x in spec.elements()}
    assert any(set(a.points) == conic for a in supers)
    seed = set(translation_arc(g).points)
    for a in supers:
        assert seed <= set(a.points)
        assert len(a) == 64


def superarcs_by_scan(group):
    """translation_superarcs by scanning every (alpha, beta) in F_q x F_q
    for a normal form that vanishes on G, as it was done before the linear
    system."""
    spec = group.spec
    exponents = [i for i in range(1, spec.r) if gcd(i, spec.r) == 1] or [1]
    exp, log = spec.exp, spec.log
    found = {}
    for i in exponents:
        logs = [
            (log[x], log[y], log[spec.frob(x, i)], log[spec.frob(y, i)])
            for x, y in group.elements
        ]
        for alpha in spec.elements():
            la, la1 = log[alpha], log[alpha ^ 1]
            alpha_part = [(exp[la + lx] ^ exp[la1 + ly], lxf, lyf) for lx, ly, lxf, lyf in logs]
            for beta in spec.elements():
                lb, lb1 = log[beta], log[beta ^ 1]
                if any(v ^ exp[lb + lxf] ^ exp[lb1 + lyf] for v, lxf, lyf in alpha_part):
                    continue
                arc = normal_form_q_arc(spec, alpha, beta, i)
                if arc is not None:
                    found.setdefault(arc.points, arc)
    return [found[key].points for key in sorted(found)]


@pytest.mark.parametrize(
    "r,s", [(r, s) for r in range(1, 7) for s in range(1, r + 1) if r % s == 0]
)
def test_superarcs_match_parameter_scan(r, s):
    # the conic group over GF(2^s) gives a system of rank 0 (s = 1: every
    # pair solves it), rank 1 (s = 2: a line of q pairs) or rank 2 (s >= 3:
    # at most one pair)
    spec = field_make(r)
    g = conic_subfield_group(spec, s)
    assert [a.points for a in translation_superarcs(g)] == superarcs_by_scan(g)
    exponents = [i for i in range(1, r) if gcd(i, r) == 1] or [1]
    counts = {len(arcs._normal_form_parameters(g, i)) for i in exponents}
    expected = {1: {spec.q ** 2}, 2: {spec.q}}.get(s)
    if expected is None:
        assert counts <= {0, 1}
    else:
        assert counts == expected


def test_superarcs_require_zero_and_one():
    with pytest.raises(ArcError):
        translation_superarcs(subgroup_make(GF8, [(2, 3)]))


def test_superarcs_all_contain_random_seed_point():
    # independent re-check: every translation q-arc through a random point of
    # the seed, found by scanning normal forms directly
    spec = field_make(6)
    g = conic_subfield_group(spec, 3)
    supers = translation_superarcs(g)
    rng = random.Random(3)
    seed_pt = rng.choice(translation_arc(g).points)
    for a in supers:
        assert seed_pt in a


def test_superarcs_r8_s4_bound():
    # the other divisor pair in range: s = 4 > 2 inside r = 8
    spec = field_make(8)
    g = conic_subfield_group(spec, 4)
    supers = translation_superarcs(g)
    assert 1 <= len(supers) <= 2
    seed = set(translation_arc(g).points)
    for a in supers:
        assert len(a) == 256
        assert seed <= set(a.points)


# ---------------------------------------------------------------------------
# Completion


def test_build_complete_6_3():
    report = build_complete_translation_arc(6, 3)
    assert report.seed_size == 8
    assert len(report.arc) >= 16
    assert report.uncovered_empty
    assert uncovered_affine(report.arc) == ()
    assert report.hyperoval_verdict == NOT_CONTAINED
    assert report.subplane_verdict == NOT_CONTAINED
    assert report.superarc_count <= 2
    # every chosen point was genuinely uncovered at its step: replay
    g = conic_subfield_group(field_make(6), 3)
    for a, b in report.chosen:
        arc = translation_arc(g)
        assert (a, b, 1) in uncovered_affine(arc)
        g = extend_double(g, (a, b))
    assert translation_arc(g).points == report.arc.points


def test_build_complete_bad_parameters():
    with pytest.raises(ArcError):
        build_complete_translation_arc(6, 2)  # s must exceed 2
    with pytest.raises(ArcError):
        build_complete_translation_arc(6, 4)  # not a divisor


def test_hyperoval_containment_quadrangle_gf4():
    # k = q here, and indeed every 4-arc of PG(2,4) completes to a hyperoval
    arc = translation_arc(quad_group(GF4))
    assert uncovered_affine(arc) == ()
    verdict, oval = hyperoval_containment(arc)
    assert verdict == CONTAINED
    assert oval is not None and len(oval) == 6
    assert set(arc.points) <= set(oval)


def test_hyperoval_containment_frobenius_full_arc():
    # the graph of x -> x^2 over all of GF(8) extends to a hyperoval
    spec = GF8
    arc = frobenius_translation_arc(spec, [1, 2, 4], 1)
    assert len(arc) == 8
    assert uncovered_affine(arc) == ()
    verdict, oval = hyperoval_containment(arc)
    assert verdict == CONTAINED
    assert oval is not None and len(oval) == 10
    Arc(spec, oval)  # still an arc


def test_hyperoval_containment_frobenius_q32():
    # the graph of x -> x^4 over all of GF(32) sits inside a translation
    # hyperoval that is not a conic
    spec = field_make(5)
    arc = frobenius_translation_arc(spec, [1, 2, 4, 8, 16], 2)
    assert uncovered_affine(arc) == ()
    verdict, oval = hyperoval_containment(arc)
    assert verdict == CONTAINED
    assert oval is not None and len(oval) == 34


def test_hyperoval_containment_requires_completeness():
    arc = translation_arc(quad_group(GF8))
    assert uncovered_affine(arc)
    with pytest.raises(ArcError):
        hyperoval_containment(arc)


def complete_by_subsets(arc, candidates):
    """Oracle: the subset search _complete_hyperoval replaced, trying each
    need-subset of the candidates in turn."""
    q, k = arc.spec.q, len(arc)
    if k >= q + 2:
        return CONTAINED, arc.points
    if k < q:
        return NOT_CONTAINED, None
    for extra in combinations(candidates, q + 2 - k):
        try:
            return CONTAINED, Arc(arc.spec, arc.points + extra).points
        except ArcError:
            continue
    return NOT_CONTAINED, None


def completion_case(arc, candidates):
    """Which rule of _complete_hyperoval decides the arc."""
    q, k = arc.spec.q, len(arc)
    need = q + 2 - k
    if need <= 0:
        return "hyperoval"
    if k < q:
        return "k < q"
    if len(candidates) < need:
        return "too few candidates"
    if need == 2 and any(p[2] == 0 for p in arc.points):
        return "arc point at infinity"
    return f"completed by {need}"


def test_complete_hyperoval_matches_subset_search():
    # projective images of translation hyperovals (x, x^(2^i)) with 0-2
    # points dropped, and arcs with k < q; complete or not, the candidates
    # at infinity decide alike.  At q >= 4 two candidates of a q-arc are the
    # two points its hyperoval lacks, so they span the line at infinity only
    # when no arc point is there: q = 2 is what reaches that case.
    cases = set()
    for r in (1, 2, 3, 4):
        spec = field_make(r)
        rng = random.Random(2800 + r)
        exponents = [i for i in range(1, max(r, 2)) if gcd(i, r) == 1]
        for _ in range(40):
            i = rng.choice(exponents)
            oval = [(x, spec.frob(x, i), 1) for x in spec.elements()] + [(0, 1, 0), (1, 0, 0)]
            m = pp.frame_map(spec, pp.STANDARD_FRAME, random_arc(spec, rng, 4).points)
            image = [pp.apply_point(spec, m, p) for p in oval]
            rng.shuffle(image)
            tried = [Arc(spec, tuple(image[drop:])) for drop in (0, 1, 2)]
            if spec.q > 3:
                tried.append(random_arc(spec, rng, rng.randrange(3, spec.q)))
            for arc in tried:
                candidates = arcs._uncovered(arc)[1]
                got = arcs._complete_hyperoval(arc, candidates)
                assert got == complete_by_subsets(arc, candidates)
                cases.add(completion_case(arc, candidates))
    assert cases == {
        "hyperoval", "k < q", "too few candidates", "arc point at infinity",
        "completed by 1", "completed by 2",
    }


def test_subplane_bound_cases():
    spec6 = field_make(6)
    # 16 points in PG(2,64): 16 > 2^3 + 2
    big = conic_translation_arc(spec6, [1, 2, 4, 8])
    assert len(big) == 16
    assert subplane_bound(big) == NOT_CONTAINED
    small = translation_arc(quad_group(GF16))
    assert subplane_bound(small) == INCONCLUSIVE  # 4 <= 2^2 + 2
    prime = conic_translation_arc(field_make(5), [1, 2, 4])
    assert subplane_bound(prime) == NOT_CONTAINED  # 8 > 2^1 + 2


# ---------------------------------------------------------------------------
# The doubled split-conic arc


def test_split_conic_requires_square_order():
    with pytest.raises(ArcError):
        split_conic_arc(GF8)


@pytest.mark.parametrize("r", [4, 6, 8, 10])
def test_split_conic_scan(r):
    spec = field_make(r)
    arc, eta, b = split_conic_arc(spec)
    assert (eta, b) == (2, 0)
    half = 1 << (r // 2)
    assert len(arc) == 2 * half
    # half the points on each of the two conics
    first = {p for p in arc.points if p[1] == spec.mul(p[0], p[0])}
    shift = spec.mul(b ^ 1, spec.mul(eta, eta))
    second = {p for p in arc.points if p[1] == spec.mul(p[0], p[0]) ^ shift}
    assert len(first) == half
    assert len(second) == half
    assert first | second == set(arc.points)


def test_split_conic_explicit_pair_validation():
    result = split_conic_arc(GF16)
    if result is not None:
        _, eta, b = result
        arc, e2, b2 = split_conic_arc(GF16, eta, b)
        assert (e2, b2) == (eta, b)
        assert len(arc) == 8
    with pytest.raises(ArcError):
        split_conic_arc(GF16, 1, 0)  # eta inside the subfield


# ---------------------------------------------------------------------------
# Subgroup enumeration and the sweep invariants


def count_subspaces(n, d):
    """Gaussian binomial [n choose d]_2, by the product formula."""
    num = den = 1
    for k in range(d):
        num *= (1 << (n - k)) - 1
        den *= (1 << (d - k)) - 1
    return num // den


@pytest.mark.parametrize("r,dim", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_enumerate_subgroups_counts(r, dim):
    spec = field_make(r)
    seen = set()
    for basis in enumerate_subgroups(spec, dim):
        g = subgroup_make(spec, basis)
        assert g.order == 1 << dim
        seen.add(g.elements)
    assert len(seen) == count_subspaces(2 * r, dim)


def subgroups_by_counters(spec, dim):
    """enumerate_subgroups as a loop over one counter per pivot, the first
    counter fastest, as it was done before the shared echelon generator."""
    for pivots in combinations(range(2 * spec.r - 1, -1, -1), dim):
        free = [[b for b in range(p) if b not in pivots] for p in pivots]
        for counters in product(*(range(1 << len(f)) for f in reversed(free))):
            basis = []
            for p, f, c in zip(pivots, free, reversed(counters)):
                vec = (1 << p) | sum(1 << b for j, b in enumerate(f) if c >> j & 1)
                basis.append((vec & (spec.q - 1), vec >> spec.r))
            yield tuple(basis)


@pytest.mark.parametrize(
    "r,dim", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]
)
def test_enumerate_subgroups_matches_counter_loop(r, dim):
    spec = field_make(r)
    assert list(enumerate_subgroups(spec, dim)) == list(subgroups_by_counters(spec, dim))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_enumerate_arc_subgroups_is_filtered_enumeration(r):
    # the pruned enumeration yields exactly the bases of enumerate_subgroups
    # whose spans have pairwise distinct slopes, in the same order
    spec = field_make(r)
    dims = (2, 3, 4)

    def mul(a, b):  # shift-and-xor modulo the field polynomial
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a >> r:
                a ^= spec.poly
        return p

    # slope[x, y] = c with y = c*x, None for x = 0
    slope = {(x, mul(c, x)): c for x in range(1, spec.q) for c in range(spec.q)}
    slope.update({(0, y): None for y in range(spec.q)})

    def distinct_slopes(basis):
        # grows the span a basis pair at a time and stops at a repeat
        span, seen = [(0, 0)], set()
        for a, b in basis:
            fresh = [(x ^ a, y ^ b) for x, y in span]
            for e in fresh:
                if slope[e] in seen:
                    return False
                seen.add(slope[e])
            span += fresh
        return True

    want = [b for d in dims for b in enumerate_subgroups(spec, d) if distinct_slopes(b)]
    assert list(arcs.enumerate_arc_subgroups(spec, dims)) == want


def test_translation_arcs_and_directions_match_checked_oracle():
    # every arc group at r <= 3, from the origin and from an off-origin
    # base: the orbit through Arc's checked constructor, and the meets of
    # its secants with the line at infinity through the public routines
    groups = [subgroup_make(spec, basis) for spec in (GF4, GF8)
              for basis in arcs.enumerate_arc_subgroups(spec, (2, 3, 4))]
    assert len(groups) == 1122
    for g in groups:
        spec = g.spec
        for base in ((0, 0, 1), (spec.q - 1, 1, 1)):
            orbit = [pp.apply_point(spec, pp.elation(spec, a, b), base)
                     for a, b in g.elements]
            assert translation_arc(g, base).points == Arc(spec, orbit).points
            meets = {pp.meet(spec, pp.line_through(spec, p, q), pp.LINE_AT_INFINITY)
                     for p, q in combinations(orbit, 2)}
            assert secant_directions(g) == tuple(sorted(meets))


def test_enumerate_subgroups_refuses_negative_dimension():
    # combinations() would report "r must be non-negative"
    with pytest.raises(ArcError, match="dimension -1"):
        list(enumerate_subgroups(GF8, -1))


@pytest.mark.parametrize("dims", [(2.0,), (2, -1), (True,), 2], ids=repr)
def test_enumerate_arc_subgroups_refuses_bad_dimensions(dims):
    # (2.0,) would raise TypeError from combinations()
    with pytest.raises(ArcError, match="dimension|dims"):
        list(arcs.enumerate_arc_subgroups(GF8, dims))


def test_enumerate_arc_subgroups_refuses_r_above_8():
    with pytest.raises(ArcError, match="r <= 8"):
        list(arcs.enumerate_arc_subgroups(field_make(9), (2,)))


def test_enumerate_arc_subgroups_r4_count():
    assert sum(1 for _ in arcs.enumerate_arc_subgroups(GF16, (3, 4))) == 65280


def test_arc_group_slope_criterion_matches_direct_check():
    # the slope test against the Arc() collinearity sweep of the orbit's
    # points, which shares no code with it, on random subgroups of
    # dimension 2..r around random affine base points
    rng = random.Random(21)
    outcomes = set()
    for r in range(2, 7):
        spec = field_make(r)
        for _ in range(40):
            dim = rng.randrange(2, r + 1)
            basis = []
            while len(basis) < dim:
                cand = (rng.randrange(spec.q), rng.randrange(spec.q))
                try:
                    subgroup_make(spec, basis + [cand])
                except ArcError:
                    continue
                basis.append(cand)
            g = subgroup_make(spec, basis)
            base = (rng.randrange(spec.q), rng.randrange(spec.q), 1)
            orbit = tuple((a ^ base[0], b ^ base[1], 1) for a, b in g.elements)
            try:
                direct = Arc(spec, orbit)
            except CollinearError:
                direct = None
            outcomes.add(direct is not None)
            assert is_translation_arc_group(g) == (direct is not None)
            if direct is None:
                with pytest.raises(ArcError):
                    translation_arc(g, base)
            else:
                assert translation_arc(g, base) == direct
    assert outcomes == {True, False}


def _normal_form_point_sets(spec):
    forms = set()
    r = spec.r
    for i in [i for i in range(1, max(r, 2)) if gcd(i, r) == 1] or [1]:
        for alpha in spec.elements():
            for beta in spec.elements():
                arc = normal_form_q_arc(spec, alpha, beta, i)
                if arc is not None:
                    forms.add(arc.points)
    return forms


def test_normal_forms_cover_all_translation_q_arcs_small():
    # every translation q-arc through (0,0,1) and (1,1,1) appears among the
    # normal-form arcs, checked exhaustively for r <= 3
    for r in (2, 3):
        spec = field_make(r)
        forms = _normal_form_point_sets(spec)
        found = set()
        target = (1, 1)
        for basis in enumerate_subgroups(spec, r):
            g = subgroup_make(spec, basis)
            if target in g and is_translation_arc_group(g):
                found.add(translation_arc(g).points)
        assert found <= forms
        assert found  # the conic arc at least


def test_normal_forms_cover_all_translation_q_arcs_r4():
    # the r = 4 sweep: all 16-element arc subgroups through (1,1)
    spec = field_make(4)
    forms = _normal_form_point_sets(spec)
    found = set()
    for basis in arcs.enumerate_arc_subgroups(spec, (4,)):
        g = subgroup_make(spec, basis)
        if (1, 1) in g:
            found.add(translation_arc(g).points)
    assert found
    assert found <= forms
