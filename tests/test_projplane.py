import inspect
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperarcs.gf2 import FieldError, field_make
from hyperarcs import projplane as pp
from hyperarcs import arcs, blocking


GF4 = field_make(2)
GF8 = field_make(3)


def random_point(spec, rng):
    while True:
        t = tuple(rng.randrange(spec.q) for _ in range(3))
        if any(t):
            return pp.normalize(spec, t)


def random_projectivity(spec, rng):
    while True:
        rows = tuple(
            tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3)
        )
        if pp.matrix_det(spec, rows) != 0:
            return pp.matrix_make(spec, rows)


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_affine_unchanged():
    assert pp.normalize(GF8, (5, 3, 1)) == (5, 3, 1)


def test_normalize_infinity():
    assert pp.normalize(GF8, (0, 6, 0)) == (0, 1, 0)


def test_normalize_scalar_multiple_of_unit_point():
    w = 2  # a generator of GF(4)
    assert pp.normalize(GF4, (w, w, w)) == (1, 1, 1)


def test_normalize_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        p = random_point(GF8, rng)
        assert pp.normalize(GF8, p) == p


def test_normalize_zero_rejected():
    with pytest.raises(pp.GeometryError):
        pp.normalize(GF4, (0, 0, 0))


@pytest.mark.parametrize("bad", [(1, 2), (1, 2, 3, 4), 5, None], ids=repr)
def test_normalize_refuses_non_triples(bad):
    # unpacking alone would raise a bare ValueError or TypeError
    with pytest.raises(pp.GeometryError, match="not a triple"):
        pp.normalize(GF8, bad)


# ---------------------------------------------------------------------------
# Incidence


def test_line_through_example():
    line = pp.line_through(GF8, (0, 0, 1), (1, 1, 1))
    assert line == (1, 1, 0)
    assert pp.incident(GF8, (0, 0, 1), line)
    assert pp.incident(GF8, (1, 1, 1), line)


def test_line_through_repeated_point_rejected():
    with pytest.raises(pp.GeometryError):
        pp.line_through(GF8, (1, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("bad", [1.5, 1.0, "3", True, False], ids=repr)
def test_normalize_refuses_non_int_coordinates(bad):
    # an affine point would come back unscaled, with the value passed through
    for point in ((bad, 0, 1), (0, bad, 1), (1, 1, bad)):
        with pytest.raises(FieldError):
            pp.normalize(GF8, point)


@pytest.mark.parametrize("bad", [-1, 4])
def test_public_incidence_rejects_bad_coordinates(bad):
    # -1 would read log[-1] and q would index past the log table; both are
    # FieldError at the public names, in any argument
    good = (1, 1, 1)
    wrong = (0, bad, 1)
    for first, second in ((wrong, good), (good, wrong)):
        with pytest.raises(FieldError):
            pp.line_through(GF4, first, second)
        with pytest.raises(FieldError):
            pp.meet(GF4, first, second)
        with pytest.raises(FieldError):
            pp.incident(GF4, first, second)
        with pytest.raises(FieldError):
            pp.collinear(GF4, first, second, (1, 0, 0))
        with pytest.raises(FieldError):
            pp.matrix_det(GF4, (first, second, (1, 0, 0)))
        with pytest.raises(FieldError):
            pp.is_linear(GF4, (first, second))
    with pytest.raises(FieldError):
        pp.line_points(GF4, wrong)
    with pytest.raises(FieldError):
        pp.apply_point(GF4, pp.IDENTITY, wrong)
    wrong_matrix = ((1, 0, 0), (0, 1, 0), (0, 0, bad))
    with pytest.raises(FieldError):
        pp.apply_point(GF4, wrong_matrix, good)
    with pytest.raises(FieldError):
        pp.inverse(GF4, wrong_matrix)
    for f, g in ((pp.IDENTITY, wrong_matrix), (wrong_matrix, pp.IDENTITY)):
        with pytest.raises(FieldError):
            pp.compose(GF4, f, g)
    with pytest.raises(FieldError):
        pp.center(GF4, ((bad, 0, 0), (0, bad, 0), (0, 0, 1)))


# Points, lines and matrices that no public name may read, each with the one
# error it must raise: GeometryError for the shape, FieldError for a value.
BAD_TRIPLES = [
    ((1, 2), pp.GeometryError),
    ((1, 2, 1, 5), pp.GeometryError),
    (None, pp.GeometryError),
    (7, pp.GeometryError),
    ((0, 0, 0), pp.GeometryError),
    ((0, 8, 1), FieldError),
]
BAD_MATRICES = [
    (((1, 0), (0, 1)), pp.GeometryError),
    (((1, 0, 0), (0, 1, 0)), pp.GeometryError),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1, 0)), pp.GeometryError),
    (((1, 0, 0), (0, 1, 0), (0, 0, 8)), FieldError),
]

_P, _L, _M, _F = (1, 1, 1), (0, 0, 1), pp.IDENTITY, pp.STANDARD_FRAME
_QUAD = arcs.subgroup_make(GF8, [(0, 1), (1, 0)])
_ARC = arcs.translation_arc(_QUAD)

# Each public name that reads a point or line, or a matrix, from its caller,
# as one call per argument position with that argument left open.
TRIPLE_READERS = {
    "normalize": [lambda x: pp.normalize(GF8, x)],
    "point_from_json": [lambda x: pp.point_from_json(GF8, x)],
    "incident": [lambda x: pp.incident(GF8, x, _L), lambda x: pp.incident(GF8, _P, x)],
    "line_through": [
        lambda x: pp.line_through(GF8, x, _P), lambda x: pp.line_through(GF8, _P, x)
    ],
    "meet": [lambda x: pp.meet(GF8, x, _L), lambda x: pp.meet(GF8, _L, x)],
    "collinear": [
        lambda x: pp.collinear(GF8, x, _P, _L),
        lambda x: pp.collinear(GF8, _P, x, _L),
        lambda x: pp.collinear(GF8, _P, _L, x),
    ],
    "is_linear": [lambda x: pp.is_linear(GF8, [_P, x])],
    "line_points": [lambda x: pp.line_points(GF8, x)],
    "apply_point": [lambda x: pp.apply_point(GF8, _M, x)],
    "frame_map": [
        lambda x: pp.frame_map(GF8, _F[:3] + (x,), _F),
        lambda x: pp.frame_map(GF8, _F, _F[:3] + (x,)),
    ],
    "arcs.is_hyperfocused_line": [lambda x: arcs.is_hyperfocused_line(_ARC, x)],
    "blocking.is_blocking": [lambda x: blocking.is_blocking(_ARC, [x])],
    "blocking.is_fano_configuration": [
        lambda x: blocking.is_fano_configuration(GF8, pp.all_points(GF8)[:6] + [x])
    ],
}
MATRIX_READERS = {
    "matrix_det": [lambda m: pp.matrix_det(GF8, m)],
    "matrix_make": [lambda m: pp.matrix_make(GF8, m)],
    "apply_point": [lambda m: pp.apply_point(GF8, m, _P)],
    "compose": [lambda m: pp.compose(GF8, m, _M), lambda m: pp.compose(GF8, _M, m)],
    "inverse": [lambda m: pp.inverse(GF8, m)],
    "center": [lambda m: pp.center(GF8, m)],
    "blocking.ghf_construct": [lambda m: blocking.ghf_construct(_QUAD, m)],
}
# Public names that read no point, line or matrix, or (the JSON writers) only
# the library's own points, with no field to check them against.
READS_NO_GEOMETRY = {
    "all_points", "all_lines", "elation", "homology", "point_to_json", "line_to_json"
}


def test_every_public_projplane_name_is_listed():
    # a public name added later must be listed, and then is tested below
    public = {
        name
        for name, f in inspect.getmembers(pp, inspect.isfunction)
        if f.__module__ == pp.__name__ and not name.startswith("_")
    }
    listed = {name for name in TRIPLE_READERS.keys() | MATRIX_READERS.keys() if "." not in name}
    assert public == listed | READS_NO_GEOMETRY
    assert not listed & READS_NO_GEOMETRY


def _misreads(calls, cases) -> list:
    """(argument position, bad value, outcome) for each call that does not
    raise exactly the expected error; a bare IndexError or ValueError is one."""
    wrong = []
    for i, call in enumerate(calls):
        for bad, error in cases:
            try:
                call(bad)
            except Exception as exc:
                if type(exc) is not error:
                    wrong.append((i, bad, repr(exc)))
            else:
                wrong.append((i, bad, "no error"))
    return wrong


@pytest.mark.parametrize("name", sorted(TRIPLE_READERS))
def test_public_names_refuse_bad_points_and_lines(name):
    assert _misreads(TRIPLE_READERS[name], BAD_TRIPLES) == []


# Each public name that reads a sequence of points, one call per argument
# position; a non-iterable there is a GeometryError, not a bare TypeError.
SEQUENCE_READERS = {
    "is_linear": [lambda x: pp.is_linear(GF8, x)],
    "frame_map": [lambda x: pp.frame_map(GF8, x, _F), lambda x: pp.frame_map(GF8, _F, x)],
    "arcs.Arc": [lambda x: arcs.Arc(GF8, x)],
    "blocking.is_blocking": [lambda x: blocking.is_blocking(_ARC, x)],
    "blocking.is_fano_configuration": [lambda x: blocking.is_fano_configuration(GF8, x)],
}
NOT_SEQUENCES = [(None, pp.GeometryError), (5, pp.GeometryError)]


@pytest.mark.parametrize("name", sorted(SEQUENCE_READERS))
def test_public_names_refuse_non_sequences_of_points(name):
    assert _misreads(SEQUENCE_READERS[name], NOT_SEQUENCES) == []


@pytest.mark.parametrize("name", sorted(MATRIX_READERS))
def test_public_names_refuse_bad_matrices(name):
    assert _misreads(MATRIX_READERS[name], BAD_MATRICES) == []


def test_matrices_may_hold_zeros():
    # the shape check is of three rows of three values, not of invertibility
    assert pp.matrix_det(GF8, ((0, 0, 0), (0, 1, 0), (0, 0, 1))) == 0
    assert pp.matrix_det(GF8, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_public_names_read_multiples_as_one_point():
    # normalized first, (2, 2, 2) is (1, 1, 1): one point, not two
    assert pp.is_linear(GF8, [(1, 1, 1), (2, 2, 2), (1, 0, 0)])
    with pytest.raises(pp.GeometryError, match="repeated point"):
        pp.line_through(GF8, (1, 1, 1), (2, 2, 2))
    assert pp.line_points(GF8, (0, 2, 2)) == pp.line_points(GF8, (0, 1, 1))


def test_collinear_at_infinity():
    assert pp.collinear(GF8, (1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_unit_triangle_not_collinear():
    for spec in (GF4, GF8, field_make(4)):
        assert not pp.collinear(spec, (0, 0, 1), (0, 1, 1), (1, 0, 1))


def test_meet_of_lines_through_common_point():
    rng = random.Random(11)
    for _ in range(100):
        p = random_point(GF8, rng)
        q = random_point(GF8, rng)
        r = random_point(GF8, rng)
        if q == p or r == p or pp.collinear(GF8, p, q, r):
            continue
        l1 = pp.line_through(GF8, p, q)
        l2 = pp.line_through(GF8, p, r)
        assert pp.meet(GF8, l1, l2) == p


def test_point_and_line_counts():
    for r in (1, 2, 3, 4):
        spec = field_make(r)
        q = spec.q
        pts = pp.all_points(spec)
        assert len(pts) == q * q + q + 1
        assert len(set(pts)) == len(pts)
        for line in pp.all_lines(spec):
            on = pp.line_points(spec, line)
            assert len(set(on)) == q + 1
            assert all(pp.incident(spec, p, line) for p in on)


def test_line_points_match_brute_force():
    spec = GF8
    rng = random.Random(5)
    for _ in range(20):
        line = random_point(spec, rng)
        expect = {p for p in pp.all_points(spec) if pp.incident(spec, p, line)}
        assert set(pp.line_points(spec, line)) == expect


def spanning_pair_points(spec, line):
    """Oracle: the line's points as other + t*base for a spanning pair, t
    over the nonzero field, each normalized, between other and base."""
    l1, l2, l3 = line
    if l1 == 0 and l2 == 0:
        base, other = (1, 0, 0), (0, 1, 0)
    elif l1 == 0:
        base, other = (1, 0, 0), pp.normalize(spec, (0, l3, l2))
    else:
        base, other = pp.normalize(spec, (l2, l1, 0)), pp.normalize(spec, (l3, 0, l1))
    pts = [other]
    for t in spec.nonzero():
        pts.append(pp.normalize(spec, tuple(o ^ spec.mul(t, b) for o, b in zip(other, base))))
    return pts + [base]


@pytest.mark.parametrize("r", range(1, 7))
def test_line_points_match_spanning_pair_walk_in_order(r):
    spec = field_make(r)
    for line in pp.all_lines(spec):
        assert pp.line_points(spec, line) == spanning_pair_points(spec, line)


# ---------------------------------------------------------------------------
# Elations and homologies


def test_elation_moves_origin():
    phi = pp.elation(GF8, 1, 1)
    assert pp.apply_point(GF8, phi, (0, 0, 1)) == (1, 1, 1)


def test_elation_group_law():
    rng = random.Random(17)
    for _ in range(100):
        a1, a2, b1, b2 = (rng.randrange(8) for _ in range(4))
        lhs = pp.compose(GF8, pp.elation(GF8, a1, a2), pp.elation(GF8, b1, b2))
        assert lhs == pp.elation(GF8, a1 ^ b1, a2 ^ b2)


def test_elation_zero_is_identity():
    assert pp.elation(GF8, 0, 0) == pp.IDENTITY


def test_elation_map_is_isomorphism_small():
    # exhaustive composition table for r <= 3
    for spec in (field_make(1), GF4, GF8):
        images = {}
        for a1 in spec.elements():
            for a2 in spec.elements():
                images[(a1, a2)] = pp.elation(spec, a1, a2)
        assert len(set(images.values())) == spec.q**2  # injective
        for (a1, a2), phi in images.items():
            for (b1, b2), psi in images.items():
                assert pp.compose(spec, phi, psi) == images[(a1 ^ b1, a2 ^ b2)]


def test_homology_with_lam_one_is_elation():
    assert pp.homology(GF8, 1, 3, 5) == pp.elation(GF8, 3, 5)


def test_homology_fixes_line_at_infinity_pointwise():
    phi = pp.homology(GF8, 4, 3, 5)
    for p in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (5, 1, 0)]:
        assert pp.apply_point(GF8, phi, p) == p


def test_homology_lam_zero_rejected():
    with pytest.raises(pp.GeometryError):
        pp.homology(GF8, 0, 1, 1)


def test_homology_center_is_fixed_point():
    rng = random.Random(23)
    for _ in range(50):
        lam = rng.randrange(2, 8)
        a1, a2 = rng.randrange(8), rng.randrange(8)
        phi = pp.homology(GF8, lam, a1, a2)
        c = pp.center(GF8, phi)
        assert c == pp.normalize(GF8, (a1, a2, 1 ^ lam))
        assert pp.apply_point(GF8, phi, c) == c


def test_center_of_elation_is_its_direction():
    assert pp.center(GF8, pp.elation(GF8, 1, 0)) == (1, 0, 0)


def test_center_of_identity_rejected():
    with pytest.raises(pp.GeometryError):
        pp.center(GF8, pp.IDENTITY)


def test_center_of_noncentral_map_rejected():
    swap = pp.matrix_make(GF8, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    with pytest.raises(pp.GeometryError):
        pp.center(GF8, swap)


def test_center_of_homology_composed_with_elation():
    # composing with the translation by (1, 0) shifts the center accordingly
    lam, a1, a2 = 2, 4, 7
    phi = pp.compose(GF8, pp.homology(GF8, lam, a1, a2), pp.elation(GF8, 1, 0))
    assert pp.center(GF8, phi) == pp.normalize(GF8, (a1 ^ lam, a2, 1 ^ lam))


# ---------------------------------------------------------------------------
# Frame maps and projectivities


def test_frame_map_identity():
    assert (
        pp.frame_map(GF8, pp.STANDARD_FRAME, pp.STANDARD_FRAME)
        == pp.IDENTITY
    )


def test_frame_map_defining_property():
    rng = random.Random(31)
    for _ in range(30):
        pts = []
        while len(pts) < 8:
            p = random_point(GF8, rng)
            if p in pts:
                continue
            if any(
                pp.collinear(GF8, a, b, p) for a, b in combinations(pts[:4], 2)
            ) and len(pts) < 4:
                continue
            ok = True
            if len(pts) >= 4:
                src4 = pts[4:]
                if any(pp.collinear(GF8, a, b, p) for a, b in combinations(src4, 2)):
                    ok = False
            if ok:
                pts.append(p)
        src, dst = pts[:4], pts[4:]
        phi = pp.frame_map(GF8, src, dst)
        for s, d in zip(src, dst):
            assert pp.apply_point(GF8, phi, s) == d


def test_frame_map_degenerate_rejected():
    degenerate = ((0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 1))  # first 3 collinear
    with pytest.raises(pp.GeometryError):
        pp.frame_map(GF8, degenerate, pp.STANDARD_FRAME)


@pytest.mark.parametrize(
    "frame, message",
    [
        # a collinear triple in every position of the frame
        (((1, 1, 1), (0, 0, 1), (0, 1, 1), (0, 1, 0)), "not in general position"),
        (((0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 0)), "not in general position"),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 0)), "not in general position"),
        # one point twice, literally or as a multiple, and the zero triple
        (((1, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)), "repeated point"),
        (((1, 1, 1), (0, 1, 0), (0, 0, 1), (2, 2, 2)), "repeated point"),
        (((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), "zero triple"),
        (pp.STANDARD_FRAME[:3], "four points"),
        (pp.STANDARD_FRAME + ((1, 2, 1),), "four points"),
    ],
)
def test_frame_map_refuses_a_non_frame(frame, message):
    for sources, targets in ((frame, pp.STANDARD_FRAME), (pp.STANDARD_FRAME, frame)):
        with pytest.raises(pp.GeometryError, match=message):
            pp.frame_map(GF8, sources, targets)


def test_frame_map_recovers_homology():
    lam, a1, a2 = 6, 2, 4
    phi = pp.homology(GF8, lam, a1, a2)
    images = tuple(pp.apply_point(GF8, phi, p) for p in pp.STANDARD_FRAME)
    assert pp.frame_map(GF8, pp.STANDARD_FRAME, images) == phi


def test_projectivities_preserve_collinearity():
    for r in (2, 3, 4, 5):
        spec = field_make(r)
        rng = random.Random(100 + r)
        for _ in range(250):
            phi = random_projectivity(spec, rng)
            p, q_, s = (random_point(spec, rng) for _ in range(3))
            lhs = pp.collinear(spec, p, q_, s)
            rhs = pp.collinear(
                spec,
                pp.apply_point(spec, phi, p),
                pp.apply_point(spec, phi, q_),
                pp.apply_point(spec, phi, s),
            )
            assert lhs == rhs


def test_compose_and_inverse():
    rng = random.Random(41)
    for _ in range(50):
        phi = random_projectivity(GF8, rng)
        assert pp.compose(GF8, phi, pp.inverse(GF8, phi)) == pp.IDENTITY


def test_matrix_make_rejects_singular():
    with pytest.raises(pp.GeometryError):
        pp.matrix_make(GF4, ((1, 1, 0), (1, 1, 0), (0, 0, 1)))


def test_point_json_round_trip():
    p = (5, 0, 1)
    assert pp.point_from_json(GF8, pp.point_to_json(p)) == p
    with pytest.raises(pp.GeometryError):
        pp.point_from_json(GF8, ["0x1", "0x2"])


@pytest.mark.parametrize("coordinate", [0.9, 2.9, 1.0, True, False, None, [1]])
def test_point_from_json_refuses_non_integer_coordinates(coordinate):
    with pytest.raises(pp.GeometryError, match="malformed coordinate"):
        pp.point_from_json(GF8, [coordinate, 0, 1])


def test_point_from_json_reads_ints_and_hex_strings():
    assert pp.point_from_json(GF8, [5, "0x0", 1]) == (5, 0, 1)
    with pytest.raises(pp.GeometryError, match="malformed coordinate"):
        pp.point_from_json(GF8, ["0xg", 0, 1])


def test_line_and_matrix_json_round_trip():
    line = pp.line_through(GF8, (0, 0, 1), (1, 1, 1))
    blob = pp.line_to_json(line)
    assert set(blob) == {"line"}
    assert pp.point_from_json(GF8, blob["line"]) == line


triples = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)
).filter(any)


@given(u=triples, v=triples)
@settings(max_examples=300, deadline=None)
def test_join_is_incident_to_both(u, v):
    p = pp.normalize(GF8, u)
    q = pp.normalize(GF8, v)
    if p == q:
        return
    line = pp.line_through(GF8, p, q)
    assert pp.incident(GF8, p, line)
    assert pp.incident(GF8, q, line)
    # duality: the meet of two lines is the join of two points transposed
    assert pp.meet(GF8, p, q) == line


@given(t=triples, s=st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_normalization_kills_scaling(t, s):
    scaled = tuple(GF8.mul(s, x) for x in t)
    assert pp.normalize(GF8, scaled) == pp.normalize(GF8, t)
