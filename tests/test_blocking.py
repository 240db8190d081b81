import hashlib
import random
import re
from itertools import combinations, permutations

import pytest

from hyperarcs.gf2 import FieldError, field_make
from hyperarcs import projplane as pp
from hyperarcs.projplane import GeometryError
from hyperarcs.arcs import (
    Arc,
    ArcError,
    conic_translation_arc,
    enumerate_arc_subgroups,
    hyperfocused_lines,
    secant_directions,
    secants,
    subgroup_make,
    translation_arc,
)
from hyperarcs.blocking import (
    ArcClasses,
    BlockingError,
    BlockingSet,
    arc_canonical_form,
    factorization_of,
    ghf_construct,
    ghf_eight,
    is_blocking,
    is_doubled_quadrangle,
    is_fano_configuration,
    min_blocking_sets,
    projectively_equivalent,
    secant_blocker_map,
    triangle_collinearity,
    _blocker_candidates,
)

GF4 = field_make(2)
GF8 = field_make(3)
GF16 = field_make(4)
GF32 = field_make(5)


def quad_arc(spec):
    return translation_arc(subgroup_make(spec, [(0, 1), (1, 0)]))


def brute_min_blocking(arc):
    """Oracle: scan all (k-1)-subsets of external points for coverage."""
    spec = arc.spec
    lines = [
        pp.line_through(spec, p, q) for p, q in combinations(arc.points, 2)
    ]
    external = [p for p in pp.all_points(spec) if p not in arc.points]
    masks = []
    for p in external:
        m = 0
        for i, line in enumerate(lines):
            if pp.incident(spec, p, line):
                m |= 1 << i
        masks.append(m)
    full = (1 << len(lines)) - 1
    k = len(arc)
    out = set()
    for subset in combinations(range(len(external)), k - 1):
        acc = 0
        for i in subset:
            acc |= masks[i]
        if acc == full:
            out.add(tuple(sorted(external[i] for i in subset)))
    return out


# ---------------------------------------------------------------------------
# Coverage and linearity checks


def test_directions_block_translation_arc():
    from hyperarcs.arcs import secant_directions

    g = subgroup_make(GF8, [(0, 1), (1, 0)])
    arc = translation_arc(g)
    dirs = secant_directions(g)
    assert is_blocking(arc, dirs)
    assert pp.is_linear(GF8, dirs)


def test_empty_set_blocks_nothing():
    arc = quad_arc(GF8)
    assert not is_blocking(arc, ())


def test_blocking_set_must_avoid_arc():
    arc = quad_arc(GF8)
    with pytest.raises(BlockingError):
        is_blocking(arc, ((0, 0, 1),))


def test_blocking_set_must_avoid_arc_given_as_a_multiple():
    # (3, 3, 3) is the arc point (1, 1, 1) of GF(4)'s quadrangle
    with pytest.raises(BlockingError, match="intersects the arc"):
        is_blocking(quad_arc(GF4), [(3, 3, 3)])


def test_blocking_checks_reject_bad_coordinates():
    arc = quad_arc(GF8)
    for bad in (-1, 8):
        with pytest.raises(FieldError):
            is_blocking(arc, ((0, bad, 1),))


def test_blocking_set_reads_its_points():
    with pytest.raises(GeometryError):
        BlockingSet(GF4, [(1, 2)])
    with pytest.raises(GeometryError):
        BlockingSet(GF4, [(0, 0, 0)])
    with pytest.raises(FieldError):
        BlockingSet(GF4, [(0, 4, 1)])
    with pytest.raises(GeometryError):
        BlockingSet(GF4, None)
    # (3, 3, 3) and (2, 2, 2) are multiples of (1, 1, 1), (2, 0, 2) of (1, 0, 1)
    assert BlockingSet(GF4, [(3, 3, 3), (2, 0, 2), (2, 2, 2)]).points == ((1, 0, 1), (1, 1, 1))


@pytest.mark.parametrize("spec", [GF4, GF8, GF16], ids=lambda s: f"q{s.q}")
def test_found_blocking_sets_equal_their_public_construction(spec):
    # min_blocking_sets and ghf_construct build theirs past the reading
    arcs = [quad_arc(spec), regular_hyperoval(spec)]
    if spec.q >= 16:
        arc, bset, _ = ghf_eight(spec)
        assert BlockingSet(spec, list(reversed(bset.points))) == bset
        arcs.append(arc)
    found = [b for arc in arcs for b in min_blocking_sets(arc)]
    assert found
    for b in found:
        assert BlockingSet(spec, list(reversed(b.points))) == b


def test_is_linear_small_sets():
    assert pp.is_linear(GF8, [(1, 0, 0)])
    assert pp.is_linear(GF8, [(1, 0, 0), (0, 1, 0)])
    assert pp.is_linear(GF8, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert not pp.is_linear(GF8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# Minimum blocking sets


def test_quadrangle_minimum_blocking_unique():
    arc = quad_arc(GF4)
    sets = min_blocking_sets(arc)
    assert len(sets) == 1
    assert sets[0].points == ((0, 1, 0), (1, 0, 0), (1, 1, 0))
    assert sets[0].linear


def test_quadrangle_agrees_with_brute_force():
    arc = quad_arc(GF4)
    assert {b.points for b in min_blocking_sets(arc)} == brute_min_blocking(arc)


def test_odd_arc_has_no_minimum_blocking():
    pts = [(0, 0, 1), (0, 1, 1), (1, 0, 1)]
    arc = Arc(GF4, tuple(pts))
    assert min_blocking_sets(arc) == []


def test_min_blocking_random_arcs_match_brute_force_gf4():
    rng = random.Random(4)
    pts = pp.all_points(GF4)
    tried = 0
    while tried < 12:
        sample = rng.sample(pts, 4)
        try:
            arc = Arc(GF4, tuple(sample))
        except Exception:
            continue
        tried += 1
        assert {b.points for b in min_blocking_sets(arc)} == brute_min_blocking(arc)


def test_min_blocking_random_four_arcs_match_brute_force_gf8():
    # C(69, 3) = 52,394 candidate sets per arc for the oracle
    rng = random.Random(8)
    pts = pp.all_points(GF8)
    tried = 0
    while tried < 10:
        try:
            arc = Arc(GF8, tuple(rng.sample(pts, 4)))
        except Exception:
            continue
        tried += 1
        found = {b.points for b in min_blocking_sets(arc)}
        assert found == brute_min_blocking(arc)
        assert found


def test_solver_recovers_constructed_set_q16():
    # the doubled-quadrangle blocking set turns up in the general search
    arc, bset, _ = ghf_eight(GF16)
    found = {b.points for b in min_blocking_sets(arc)}
    assert bset.points in found


def test_hyperoval_blocking_sets_are_external_lines():
    # a 6-arc of PG(2,4): its minimum blocking sets match brute force and
    # include the external-line sections
    spec = GF4
    conic = [(x, spec.mul(x, x), 1) for x in spec.elements()]
    oval = Arc(spec, tuple(conic) + ((0, 1, 0), (1, 0, 0)))
    assert len(oval) == 6
    found = {b.points for b in min_blocking_sets(oval)}
    assert found == brute_min_blocking(oval)
    assert found  # hyperfocused: external lines provide linear sets


def walk_candidates(arc):
    """Oracle: the points on exactly k/2 secants, each with the bitmask of
    its secants in pair order, from a walk along every secant's q + 1
    points."""
    spec, k = arc.spec, len(arc)
    masks = {}
    for idx, (p, q) in enumerate(combinations(arc.points, 2)):
        for x in pp.line_points(spec, pp.line_through(spec, p, q)):
            masks[x] = masks.get(x, 0) | 1 << idx
    return {x: m for x, m in masks.items() if m.bit_count() == k // 2}


def walk_min_blocking(arc):
    """Oracle: candidates with their secant masks from a walk along every
    secant's q + 1 points, then an exact cover of the secants that always
    branches on the lowest uncovered one."""
    k = len(arc)
    candidates = list(walk_candidates(arc).items())
    full = (1 << (k * (k - 1) // 2)) - 1
    out = set()

    def cover(covered, chosen):
        if covered == full:
            out.add(tuple(sorted(chosen)))
            return
        low = ~covered & (covered + 1)
        for x, m in candidates:
            if m & low and not m & covered:
                cover(covered | m, chosen + [x])

    if k % 2 == 0:
        cover(0, [])
    return out


def random_arc_prefixes(spec, rng, sizes):
    """Arcs of the given sizes: the prefixes of one randomly grown arc,
    grown until it has the largest size or no sampled point extends it."""
    grown = []
    for p in rng.sample(pp.all_points(spec), spec.q * spec.q + spec.q + 1):
        if not any(pp.collinear(spec, p, a, b) for a, b in combinations(grown, 2)):
            grown.append(p)
            if len(grown) == max(sizes):
                break
    return [Arc(spec, tuple(grown[:k])) for k in sizes if k <= len(grown)]


@pytest.mark.parametrize("spec", [GF4, GF8, GF16, GF32], ids=lambda s: f"q{s.q}")
def test_min_blocking_matches_walk_oracle_random_arcs(spec):
    rng = random.Random(spec.q + 1)
    arcs, found = [], 0
    for _ in range(6):
        arcs += random_arc_prefixes(spec, rng, range(4, 11))
    assert {len(arc) for arc in arcs} == set(range(4, min(spec.q + 2, 10) + 1))
    for arc in arcs:
        sets = {b.points for b in min_blocking_sets(arc)}
        assert sets == walk_min_blocking(arc)
        found += len(sets)
    assert found


@pytest.mark.parametrize("spec", [GF4, GF8], ids=lambda s: f"q{s.q}")
def test_min_blocking_matches_walk_oracle_hyperovals(spec):
    conic = [(x, spec.mul(x, x), 1) for x in spec.elements()]
    oval = Arc(spec, tuple(conic) + ((0, 1, 0), (1, 0, 0)))
    sets = {b.points for b in min_blocking_sets(oval)}
    assert sets and sets == walk_min_blocking(oval)


def conic_group_q1024():
    spec = field_make(10)
    return subgroup_make(spec, [(h, spec.mul(h, h)) for h in (1, 2, 4, 8)])


def test_min_blocking_translation_arc_q1024_is_its_directions():
    group = conic_group_q1024()
    arc = translation_arc(group)
    sets = min_blocking_sets(arc)
    assert len(arc) == 16 and [b.points for b in sets] == [secant_directions(group)]
    assert {b.points for b in sets} == walk_min_blocking(arc)


def naming_choice(arc, i):
    """Which coordinate of the line p0 pi the candidate search solves for:
    2 when its third coordinate is nonzero, else 0 when its first is, else 1."""
    p0, p = arc.points[0], arc.points[i]
    line = pp.line_through(arc.spec, p0, p)
    return next(c for c in (2, 0, 1) if line[c])


MIN_BLOCKING_DIGEST = "f8fd2990e1e859cbda3e565ba33e42b38baf9e66c14db8f7771152d54af7776c"


def test_min_blocking_sets_digest():
    # every set's points, in order, over the 1,122 translation arcs of the
    # r <= 3 sweep, seeded random arcs of sizes 4-10 at q = 4-32, and the
    # regular hyperoval of PG(2, 16); the digest was taken from the earlier
    # search, whose candidates came from secant meets
    population = [
        translation_arc(subgroup_make(spec, basis))
        for spec in (GF4, GF8)
        for basis in enumerate_arc_subgroups(spec, (2, 3, 4))
    ]
    assert len(population) == 1122
    rng = random.Random(2718)
    for spec in (GF4, GF8, GF16, GF32):
        for _ in range(8):
            population += random_arc_prefixes(spec, rng, range(4, 11))
    assert {len(arc) for arc in population} == set(range(4, 11))
    choices = {naming_choice(arc, i) for arc in population for i in range(1, len(arc))}
    assert choices == {0, 1, 2}
    conic = [(x, GF16.mul(x, x), 1) for x in GF16.elements()]
    oval = Arc(GF16, tuple(conic) + ((0, 1, 0), (1, 0, 0)))
    population.append(oval)

    digest = hashlib.sha256()
    for arc in population:
        sets = min_blocking_sets(arc)
        digest.update(repr([b.points for b in sets]).encode() + b"\n")
        # one blocker per secant, rebuilt by incidence
        for b in sets:
            assert set(secant_blocker_map(arc, b).values()) == set(b.points)
    assert digest.hexdigest() == MIN_BLOCKING_DIGEST

    # the hyperoval's minimum blocking sets are its 120 external lines
    external = [
        line for line in pp.all_lines(GF16)
        if not any(pp.incident(GF16, p, line) for p in oval.points)
    ]
    assert len(external) == 120
    assert [b.points for b in sets] == sorted(
        tuple(sorted(pp.line_points(GF16, line))) for line in external
    )


def test_blocker_candidates_build_no_line_or_meet(monkeypatch):
    # the candidates, with their secant masks, come from dot products and
    # table divisions alone, for any q
    big = translation_arc(conic_group_q1024())
    cases = [(arc, walk_candidates(arc))
             for arc in (quad_arc(GF4), quad_arc(GF32), ghf_eight(GF16)[0], big)]

    def refuse(*args):
        raise AssertionError("a line or a meet was built")

    monkeypatch.setattr(pp, "_meet", refuse)
    monkeypatch.setattr(pp, "_line_through", refuse)
    for arc, want in cases:
        through = _blocker_candidates(arc)
        assert len(through) == len(arc) - 1
        found = dict(c for candidates in through for c in candidates)
        assert found == want
        assert sum(map(len, through)) == len(want)
        assert not set(found) & set(arc.points)
        # each on the secant p0 pi of its list, whose bit is its lowest
        for i, candidates in enumerate(through):
            assert all((m & -m).bit_length() - 1 == i for _, m in candidates)


def secant_hits_by_incidence(arc, points):
    """Oracle: each secant, in pair order, with the points of the set on it."""
    spec = arc.spec
    rows = []
    for p, q in combinations(arc.points, 2):
        line = pp.line_through(spec, p, q)
        rows.append(((p, q), line, [b for b in points if pp.incident(spec, b, line)]))
    return rows


def check_against_incidence(arc, points):
    """is_blocking and secant_blocker_map agree with the oracle; returns the
    largest number of the set's points on one secant."""
    rows = secant_hits_by_incidence(arc, points)
    assert is_blocking(arc, points) == all(hits for _, _, hits in rows)
    bset = BlockingSet(arc.spec, tuple(points))
    bad = next(((line, hits) for _, line, hits in rows if len(hits) != 1), None)
    if len(bset) != len(arc) - 1:
        with pytest.raises(BlockingError, match="not a minimum-size"):
            secant_blocker_map(arc, bset)
    elif bad is None:
        assert secant_blocker_map(arc, bset) == {
            frozenset(pair): hits[0] for pair, _, hits in rows
        }
    else:
        line, hits = bad
        with pytest.raises(BlockingError, match=re.escape(f"secant {line} carries {len(hits)} ")):
            secant_blocker_map(arc, bset)
    return max(len(hits) for _, _, hits in rows)


def test_blocking_checks_match_incidence():
    rng = random.Random(27)
    pts8 = pp.all_points(GF8)
    conic4 = [(x, GF4.mul(x, x), 1) for x in GF4.elements()]
    cases = [
        quad_arc(GF8),
        conic_translation_arc(GF8, [1, 2, 4]),
        Arc(GF4, tuple(conic4) + ((0, 1, 0), (1, 0, 0))),
        ghf_eight(GF16)[0],
    ]
    while len(cases) < 8:
        try:
            cases.append(Arc(GF8, tuple(rng.sample(pts8, 6))))
        except Exception:
            continue
    verdicts, doubled = set(), 0
    for arc in cases:
        spec = arc.spec
        external = [p for p in pp.all_points(spec) if p not in arc.points]
        for bset in min_blocking_sets(arc)[:3]:
            assert check_against_incidence(arc, bset.points) == 1
            check_against_incidence(arc, bset.points[1:])  # too small to block
            # swap the first blocker for a second point on a secant of another
            (p, q), _ = next(
                (pair, b)
                for pair, b in secant_blocker_map(arc, bset).items()
                if b != bset.points[0]
            )
            extra = next(
                x
                for x in pp.line_points(spec, pp.line_through(spec, p, q))
                if x not in arc.points and x not in bset.points
            )
            swapped = bset.points[1:] + (extra,)
            assert check_against_incidence(arc, swapped) == 2
            doubled += 1
        for _ in range(20):
            sample = rng.sample(external, len(arc) - 1)
            verdicts.add(is_blocking(arc, sample))
            check_against_incidence(arc, sample)
    assert doubled and False in verdicts


# ---------------------------------------------------------------------------
# The doubled construction


def valid_params(spec):
    for lam in spec.elements():
        if lam in (0, 1):
            continue
        for a1 in spec.elements():
            for a2 in spec.elements():
                if not ({a1, a2, a1 ^ a2} & {0, 1, lam, lam ^ 1}):
                    yield lam, a1, a2


def first_valid_params(spec):
    return next(valid_params(spec), None)


def test_ghf_eight_no_parameters_at_q4_and_q8():
    # {0,1,lam,lam+1} is an additive subgroup; at q = 4 it exhausts the
    # field and at q = 8 its complement is a coset whose sums fall back in
    assert first_valid_params(GF4) is None
    assert first_valid_params(GF8) is None
    for spec in (GF4, GF8):
        with pytest.raises(BlockingError):
            ghf_eight(spec)


def test_ghf_eight_scan_matches_manual_scan():
    lam, a1, a2 = first_valid_params(GF16)
    arc, bset, params = ghf_eight(GF16)
    assert params == (lam, a1, a2)


@pytest.mark.parametrize("r", range(1, 9))
def test_ghf_eight_default_is_first_valid_triple(r):
    # the default (2, 4, 8) against the q^3 scan it replaced
    spec = field_make(r)
    first = first_valid_params(spec)
    if first is None:
        with pytest.raises(BlockingError, match=f"no valid parameters exist for q = {spec.q}"):
            ghf_eight(spec)
        return
    arc, bset, params = ghf_eight(spec)
    assert params == first
    assert (arc, bset) == ghf_eight(spec, *first)[:2]


def test_ghf_eight_structure():
    arc, bset, (lam, a1, a2) = ghf_eight(GF16)
    spec = GF16
    assert len(arc) == 8
    assert len(bset) == 7
    assert not bset.linear
    assert is_blocking(arc, bset.points)
    assert is_fano_configuration(spec, bset.points)
    # the listed points: three directions plus four homology centers
    expect = {
        pp.normalize(spec, (1, 0, 0)),
        pp.normalize(spec, (0, 1, 0)),
        pp.normalize(spec, (1, 1, 0)),
        pp.normalize(spec, (a1, a2, 1 ^ lam)),
        pp.normalize(spec, (a1 ^ lam, a2, 1 ^ lam)),
        pp.normalize(spec, (a1, a2 ^ lam, 1 ^ lam)),
        pp.normalize(spec, (a1 ^ lam, a2 ^ lam, 1 ^ lam)),
    }
    assert set(bset.points) == expect


def test_ghf_eight_equals_direct_construction():
    arc, bset, (lam, a1, a2) = ghf_eight(GF16)
    g = subgroup_make(GF16, [(0, 1), (1, 0)])
    arc2, bset2 = ghf_construct(g, pp.homology(GF16, lam, a1, a2))
    assert arc2.points == arc.points
    assert bset2.points == bset.points


def test_ghf_construct_counts_and_coverage():
    arc, bset = ghf_construct(
        subgroup_make(GF16, [(0, 1), (1, 0)]), pp.homology(GF16, 2, 4, 8)
    )
    spec = GF16
    assert len(arc) == 8 and len(bset) == 15 - 8  # 2k - 1 with k = 4
    blocker_of = secant_blocker_map(arc, bset)
    assert len(blocker_of) == 28
    # within-half secants blocked at infinity, cross secants at centers
    half = [p for p in arc.points if p[0] in (0, 1) and p[1] in (0, 1)]
    for p, q in combinations(half, 2):
        assert blocker_of[frozenset((p, q))][2] == 0


def test_ghf_construct_rejects_elation():
    g = subgroup_make(GF16, [(0, 1), (1, 0)])
    with pytest.raises(BlockingError):
        ghf_construct(g, pp.elation(GF16, 5, 7))


def test_ghf_construct_rejects_bad_parameters():
    g = subgroup_make(GF16, [(0, 1), (1, 0)])
    with pytest.raises(BlockingError):
        ghf_construct(g, pp.homology(GF16, 2, 1, 4))  # a1 in {0,1,lam,lam+1}


def test_ghf_eight_rejects_explicit_bad_triple():
    with pytest.raises(BlockingError):
        ghf_eight(GF16, 2, 1, 4)


def test_ghf_eight_refuses_a_partial_triple():
    with pytest.raises(BlockingError, match="give all of lam, a1, a2, or none"):
        ghf_eight(GF16, 2)


@pytest.mark.parametrize(
    "basis, phi, message",
    [
        ([(0, 1)], pp.homology(GF16, 2, 4, 8), "size at least 4"),
        ([(0, 1), (1, 0)], pp.homology(GF16, 2, 0, 0), "homology center lies on the arc"),
        # x -> 2x + (1, 0) sends the arc point (0, 0) to the arc point
        # (1, 0), and (1, 0) to (3, 0) on the same line
        ([(0, 1), (1, 0)], pp.homology(GF16, 2, 1, 0), "union with the image is not an arc"),
    ],
    ids=["order-2", "center-on-arc", "image-overlaps-arc"],
)
def test_ghf_construct_refusals(basis, phi, message):
    with pytest.raises(BlockingError, match=message):
        ghf_construct(subgroup_make(GF16, basis), phi)


def test_fano_configuration_needs_seven_points_of_a_subplane():
    arc, bset, _ = ghf_eight(GF16)
    assert is_fano_configuration(GF16, bset.points)
    assert not is_fano_configuration(GF16, bset.points[:6])
    # seven points with no three collinear, and the subplane with a point
    # swapped for one off it
    assert not is_fano_configuration(GF16, arc.points[:7])
    assert not is_fano_configuration(GF16, bset.points[:6] + arc.points[:1])


@pytest.mark.parametrize("spec", [GF16, GF32], ids=lambda s: f"q{s.q}")
def test_is_doubled_quadrangle_holds_on_ghf_eight_arcs(spec):
    # as built, and moved by a random projectivity so that the standard
    # frame is no longer the arc's first four points
    rng = random.Random(spec.q)
    for params in rng.sample(list(valid_params(spec)), 60):
        arc = ghf_eight(spec, *params)[0]
        assert is_doubled_quadrangle(arc)
        assert is_doubled_quadrangle(moved(arc, random_projectivity(spec, rng)))


@pytest.mark.parametrize("spec", [GF16, GF32], ids=lambda s: f"q{s.q}")
def test_is_doubled_quadrangle_fails_on_random_eight_arcs(spec):
    # every construction arc carries a non-linear minimum blocking set, and
    # projectivities keep it, so an arc without one is outside the
    # construction's classes
    rng = random.Random(spec.q + 3)
    for _ in range(200):
        arc = random_arc(spec, 8, rng)
        assert all(b.linear for b in min_blocking_sets(arc))
        assert not is_doubled_quadrangle(arc)


@pytest.mark.parametrize("spec", [GF16, GF32], ids=lambda s: f"q{s.q}")
def test_is_doubled_quadrangle_fails_on_conic_and_translation_arcs(spec):
    # eight points of a conic, and F + {0, (2, 4)}: the square and a
    # translate, the excluded lam = 1, which passes every other condition
    conic = Arc(spec, tuple((x, spec.mul(x, x), 1) for x in range(8)))
    doubled = translation_arc(subgroup_make(spec, [(0, 1), (1, 0), (2, 4)]))
    for arc in (conic, doubled):
        assert all(b.linear for b in min_blocking_sets(arc))
        assert not is_doubled_quadrangle(arc)
    assert not is_doubled_quadrangle(quad_arc(spec))


# ---------------------------------------------------------------------------
# Triangle collinearity


def test_triangle_collinearity_on_ghf_eight():
    arc, bset, _ = ghf_eight(GF16)
    ok, witness = triangle_collinearity(arc, bset)
    assert ok and witness is None


def test_triangle_collinearity_linear_blocking():
    arc = quad_arc(GF4)
    bset = min_blocking_sets(arc)[0]
    assert triangle_collinearity(arc, bset)[0]


def test_secant_blocker_map_refuses_a_blocker_on_the_arc():
    arc, bset, _ = ghf_eight(GF16)
    on_arc = BlockingSet(GF16, bset.points[1:] + arc.points[:1])
    with pytest.raises(BlockingError, match="blocking set intersects the arc"):
        secant_blocker_map(arc, on_arc)


@pytest.mark.parametrize(
    "function, size, message",
    [
        (min_blocking_sets, 3, "blocking needs at least three arc points"),
        (secants, 2, "secants need at least two points"),
        (hyperfocused_lines, 3, "hyperfocus needs at least three points"),
    ],
    ids=["min_blocking_sets", "secants", "hyperfocused_lines"],
)
def test_arc_functions_refuse_arcs_below_their_minimum_size(function, size, message):
    pts = ((0, 0, 1), (0, 1, 1), (1, 0, 1))
    with pytest.raises(ArcError, match=message):
        function(Arc(GF8, pts[:size - 1]))
    function(Arc(GF8, pts[:size]))


def test_triangle_collinearity_requires_minimum():
    arc = quad_arc(GF8)
    fake = BlockingSet(GF8, ((0, 1, 0), (1, 0, 0)))
    with pytest.raises(BlockingError):
        triangle_collinearity(arc, fake)


def test_exhaustive_triangle_property_gf4():
    # every minimum blocking set of every 4-arc satisfies the triangle
    # property; spot-check a sample of arcs exhaustively over their sets
    rng = random.Random(11)
    pts = pp.all_points(GF4)
    tried = 0
    while tried < 8:
        sample = rng.sample(pts, 4)
        try:
            arc = Arc(GF4, tuple(sample))
        except Exception:
            continue
        tried += 1
        for bset in min_blocking_sets(arc):
            assert triangle_collinearity(arc, bset)[0]


# ---------------------------------------------------------------------------
# Factorizations from blocking sets


def test_quadrangle_factorization_is_k4():
    arc = quad_arc(GF4)
    bset = min_blocking_sets(arc)[0]
    fact = factorization_of(arc, bset)
    assert fact.n_vertices == 4
    assert set(fact.factors) == {
        (((1, 2), (3, 4))),
        (((1, 3), (2, 4))),
        (((1, 4), (2, 3))),
    }


def test_ghf_eight_factorization_counts():
    arc, bset, _ = ghf_eight(GF16)
    fact = factorization_of(arc, bset)
    assert fact.n_vertices == 8
    assert fact.n_factors == 7
    for f in fact.factors:
        assert len(f) == 4


# ---------------------------------------------------------------------------
# Projective canonical form


def test_canonical_form_invariant_under_projectivity():
    rng = random.Random(6)
    arc = quad_arc(GF8)
    base = arc_canonical_form(arc)
    for _ in range(5):
        while True:
            rows = tuple(
                tuple(rng.randrange(8) for _ in range(3)) for _ in range(3)
            )
            if pp.matrix_det(GF8, rows):
                break
        phi = pp.matrix_make(GF8, rows)
        moved = Arc(GF8, tuple(pp.apply_point(GF8, phi, p) for p in arc.points))
        assert arc_canonical_form(moved) == base


def test_canonical_form_separates_inequivalent_arcs():
    # the doubled-quadrangle arc is not projectively equivalent to the
    # conic-type translation arc of the same size
    otto_arc, _, _ = ghf_eight(GF16)
    conic = conic_translation_arc(GF16, [1, 2, 4])
    assert len(conic) == 8 == len(otto_arc)
    assert arc_canonical_form(conic) != arc_canonical_form(otto_arc)


def test_hyperfocused_lines_give_minimum_blocking_sets():
    # each hyperfocused line cuts the secants in k-1 points, and that
    # section must appear among the minimum blocking sets
    from hyperarcs.arcs import hyperfocused_lines, secants

    for spec, arc in [
        (GF4, quad_arc(GF4)),
        (GF8, conic_translation_arc(GF8, [1, 2])),
        (GF8, conic_translation_arc(GF8, [1, 2, 4])),
    ]:
        found = {b.points for b in min_blocking_sets(arc)}
        for line in hyperfocused_lines(arc):
            section = tuple(
                sorted({pp.meet(spec, line, s) for s in secants(arc)})
            )
            assert len(section) == len(arc) - 1
            assert section in found


def test_hyperfocused_lines_are_the_lines_of_linear_minimum_blocking_sets():
    """hyperfocused_lines(arc) are exactly the lines carrying the linear
    sets of min_blocking_sets(arc), two routes with no shared search.

    A hyperfocused line L misses the arc and meets the secants in k - 1
    points; they block every secant and avoid the arc, so they form a
    minimum blocking set on L.  Conversely, let the k - 1 points of a
    minimum blocking set lie on a line L.  An arc point P on L is no
    blocker, and each of the k - 1 secants through P but L itself meets L
    only at P, so it would be unblocked; so L misses the arc.  Then each
    secant meets L in one point, its blocker, and L is hyperfocused.  Odd k
    has neither."""
    population = [
        translation_arc(subgroup_make(spec, basis))
        for spec in (GF4, GF8)
        for basis in enumerate_arc_subgroups(spec, (2, 3, 4))
    ]
    assert len(population) == 1122
    rng = random.Random(1729)
    randoms = []
    for spec in (GF8, GF16):
        for _ in range(12):
            randoms += random_arc_prefixes(spec, rng, range(3, 11))
    assert {len(arc) for arc in randoms} == set(range(3, 11))
    population += randoms
    for spec in (GF8, GF16):
        conic = [(x, spec.mul(x, x), 1) for x in spec.elements()]
        population.append(Arc(spec, tuple(conic) + ((0, 1, 0), (1, 0, 0))))
    eight, _, _ = ghf_eight(GF16)
    population.append(eight)

    counts = []
    for arc in population:
        linear = [b.points for b in min_blocking_sets(arc) if b.linear]
        carriers = {pp.line_through(arc.spec, *pts[:2]) for pts in linear}
        assert len(carriers) == len(linear)
        lines = hyperfocused_lines(arc)
        assert set(lines) == carriers
        counts.append(len(lines))
    assert counts[-3:] == [28, 120, 0]  # both hyperovals, then ghf_eight
    assert any(counts[:1122]) and any(counts[1122:-3])


def test_triangle_property_sampled_q8():
    # every minimum blocking set found over a spread of arcs in PG(2,8)
    # satisfies the triangle property
    rng = random.Random(88)
    pts = pp.all_points(GF8)
    arcs_to_try = [
        quad_arc(GF8),
        conic_translation_arc(GF8, [1, 2]),
        conic_translation_arc(GF8, [1, 2, 4]),
    ]
    tried = 0
    while tried < 6:
        sample = rng.sample(pts, 6)
        try:
            arcs_to_try.append(Arc(GF8, tuple(sample)))
        except Exception:
            continue
        tried += 1
    for arc in arcs_to_try:
        for bset in min_blocking_sets(arc):
            ok, witness = triangle_collinearity(arc, bset)
            assert ok, f"triangle property failed at {witness}"


def test_canonical_form_matches_frame_map_oracle():
    from itertools import permutations

    cases = [
        (quad_arc(GF4), ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))),
        (
            conic_translation_arc(GF8, [1, 2, 4]),
            ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
             (2, 1, 0), (2, 6, 1), (2, 7, 1), (3, 6, 1)),
        ),
        (
            ghf_eight(GF16)[0],
            ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
             (2, 1, 0), (2, 4, 1), (13, 2, 1), (15, 5, 1)),
        ),
    ]
    for arc, expected in cases:
        spec = arc.spec
        best = None
        for frame in permutations(arc.points, 4):
            m = pp.frame_map(spec, frame, pp.STANDARD_FRAME)
            assert [pp.apply_point(spec, m, p) for p in frame] == list(pp.STANDARD_FRAME)
            img = tuple(sorted(pp.apply_point(spec, m, p) for p in arc.points))
            if best is None or img < best:
                best = img
        assert arc_canonical_form(arc) == best == expected


# ---------------------------------------------------------------------------
# Projective classes by frame images


def random_arc(spec, k, rng):
    """k points, no three collinear, added greedily from a shuffled plane."""
    pts = pp.all_points(spec)
    rng.shuffle(pts)
    chosen = []
    for p in pts:
        if not any(pp.collinear(spec, p, a, b) for a, b in combinations(chosen, 2)):
            chosen.append(p)
            if len(chosen) == k:
                return Arc(spec, tuple(chosen))
    raise AssertionError(f"no {k}-arc from this shuffle")


def random_projectivity(spec, rng):
    while True:
        rows = tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3))
        if pp.matrix_det(spec, rows):
            return pp.matrix_make(spec, rows)


def moved(arc, phi):
    return Arc(arc.spec, tuple(pp.apply_point(arc.spec, phi, p) for p in arc.points))


@pytest.mark.parametrize(
    "spec, sizes", [(GF4, (4, 5, 6)), (GF8, (5, 6, 7)), (GF16, (5, 6, 7, 8))]
)
def test_arc_classes_agree_with_canonical_form(spec, sizes):
    rng = random.Random(spec.q)
    arcs = [random_arc(spec, k, rng) for k in sizes for _ in range(3)]
    forms = [arc_canonical_form(arc) for arc in arcs]
    classes = ArcClasses()
    for arc, form in zip(arcs, forms):
        assert ArcClasses().form(arc) == form
        assert classes.form(arc) == form
    for (a, fa), (b, fb) in combinations(zip(arcs, forms), 2):
        assert projectively_equivalent(a, b) == (fa == fb)
        assert projectively_equivalent(b, a) == (fa == fb)


@pytest.mark.parametrize("spec", [GF4, GF8, GF16])
def test_arc_classes_agree_on_projective_images(spec):
    rng = random.Random(100 + spec.q)
    classes = ArcClasses()
    for k in (4, 5, 6):
        arc = random_arc(spec, k, rng)
        form = arc_canonical_form(arc)
        for _ in range(3):
            image = moved(arc, random_projectivity(spec, rng))
            assert projectively_equivalent(arc, image)
            assert projectively_equivalent(image, arc)
            assert arc_canonical_form(image) == form
            assert classes.form(image) == form
        assert classes.form(arc) == form


def test_conic_arc_and_ghf_eight_stay_apart_in_either_order():
    otto_arc, _, _ = ghf_eight(GF16)
    conic = conic_translation_arc(GF16, [1, 2, 4])
    for first, second in ((conic, otto_arc), (otto_arc, conic)):
        classes = ArcClasses()
        assert classes.form(first) == arc_canonical_form(first)
        assert classes.form(second) == arc_canonical_form(second)
        assert classes.form(first) != classes.form(second)
        assert not projectively_equivalent(first, second)


def test_arc_classes_on_sampled_ghf_eight_arcs_q32():
    rng = random.Random(32)
    field_set = set(GF32.elements())
    triples = [
        (lam, a1, a2)
        for lam in sorted(field_set - {0, 1})
        for a1 in GF32.elements()
        for a2 in GF32.elements()
        if not {a1, a2, a1 ^ a2} & {0, 1, lam, lam ^ 1}
    ]
    assert len(triples) == 30 * 28 * 24
    arcs = [ghf_eight(GF32, *t)[0] for t in rng.sample(triples, 20)]
    classes = ArcClasses()
    forms = [classes.form(arc) for arc in arcs]
    assert forms == [arc_canonical_form(arc) for arc in arcs]
    for (a, fa), (b, fb) in combinations(list(zip(arcs, forms))[:6], 2):
        assert projectively_equivalent(a, b) == (fa == fb)


def test_projective_classes_need_four_points():
    three = Arc(GF8, ((0, 0, 1), (0, 1, 1), (1, 0, 1)))
    four = quad_arc(GF8)
    with pytest.raises(ArcError):
        arc_canonical_form(three)
    with pytest.raises(ArcError):
        ArcClasses().form(three)
    with pytest.raises(ArcError):
        projectively_equivalent(three, four)
    with pytest.raises(ArcError):
        projectively_equivalent(four, three)


def test_projectively_equivalent_needs_same_size_and_plane():
    otto_arc, _, _ = ghf_eight(GF16)
    assert not projectively_equivalent(quad_arc(GF16), otto_arc)
    # the quadrangle arcs of PG(2,8) and PG(2,16) have the same coordinates
    # but lie in different planes
    assert quad_arc(GF8).points == quad_arc(GF16).points
    assert not projectively_equivalent(quad_arc(GF8), quad_arc(GF16))
    assert projectively_equivalent(quad_arc(GF16), quad_arc(GF16))


# ---------------------------------------------------------------------------
# 4-subset labels through the standard frame's stabilizer


def test_frame_stabilizer_is_the_affine_group_of_the_square():
    from hyperarcs.blocking import _FRAME_STABILIZER

    frame = pp.STANDARD_FRAME
    assert len(_FRAME_STABILIZER) == 24
    # a row coded 4b + 2a + c is the row (a, b, c)
    maps = [
        tuple((code >> 1 & 1, code >> 2, code & 1) for code in rows) + ((0, 0, 1),)
        for rows in _FRAME_STABILIZER
    ]
    induced = set()
    for spec in (GF4, GF16):
        for q_map in maps:
            images = [pp.apply_point(spec, q_map, p) for p in frame]
            assert sorted(images) == sorted(frame)
            induced.add(tuple(frame.index(p) for p in images))
            # the ordered frame that q_map sends onto the standard frame
            permuted = tuple(frame[images.index(p)] for p in frame)
            assert pp.matrix_make(spec, q_map) == pp.frame_map(spec, permuted, frame)
    assert induced == set(permutations(range(4)))


def frame_images(arc, frames):
    """Oracle: for each ordered 4-subset of arc indices, the sorted image of
    the arc under a fresh matrix sending those points to the standard frame;
    every other point is mapped by 9 table multiplies and normalized."""
    spec = arc.spec
    exp, log = spec.exp, spec.log
    shift = spec.q - 1
    pts = arc.points
    point_logs = [(log[p[0]], log[p[1]], log[p[2]]) for p in pts]
    for frame in frames:
        rows = pp._to_standard_frame(spec, *(pts[i] for i in frame))
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
            (log[m[0]], log[m[1]], log[m[2]]) for m in rows
        )
        image = list(pp.STANDARD_FRAME)
        for j, (l0, l1, l2) in enumerate(point_logs):
            if j in frame:
                continue
            x = exp[a0 + l0] ^ exp[a1 + l1] ^ exp[a2 + l2]
            y = exp[b0 + l0] ^ exp[b1 + l1] ^ exp[b2 + l2]
            z = exp[c0 + l0] ^ exp[c1 + l1] ^ exp[c2 + l2]
            if z:
                s = shift - log[z]
                image.append((exp[log[x] + s], exp[log[y] + s], 1))
            elif y:
                image.append((exp[log[x] + shift - log[y]], 1, 0))
            else:
                image.append((1, 0, 0))
        image.sort()
        yield tuple(image)


def labels_by_orderings(arc):
    """Oracle: each 4-subset's label as the least frame image over its 24
    orderings, each with its own frame matrix."""
    return [
        min(frame_images(arc, permutations(subset)))
        for subset in combinations(range(len(arc)), 4)
    ]


def regular_hyperoval(spec):
    """The conic y = x^2, its point (0, 1, 0) at infinity and its nucleus
    (1, 0, 0)."""
    conic = tuple((t, spec.mul(t, t), 1) for t in spec.elements())
    return Arc(spec, conic + ((0, 1, 0), (1, 0, 0)))


def arc_through_infinity(spec, k, rng):
    """A random k-arc holding two points at infinity: greedy from a shuffled
    plane, after two shuffled points of the line at infinity."""
    pts = pp.all_points(spec)
    rng.shuffle(pts)
    at_infinity = [p for p in pts if p[2] == 0]
    chosen = at_infinity[:2]
    for p in pts:
        if p in chosen:
            continue
        if not any(pp.collinear(spec, p, a, b) for a, b in combinations(chosen, 2)):
            chosen.append(p)
            if len(chosen) == k:
                return Arc(spec, tuple(chosen))
    raise AssertionError(f"no {k}-arc from this shuffle")


def test_subset_labels_match_per_ordering_oracle():
    from hyperarcs.blocking import _four_subsets, _subset_images

    rng = random.Random(13)
    # the regular hyperovals, whose large stabilizers let several orderings
    # reach each label, and the doubled quadrangles, whose frame maps send
    # a point to infinity on 16 and 8 of their 70 subsets
    arcs = [regular_hyperoval(spec) for spec in (GF4, GF8, GF16)]
    arcs += [ghf_eight(GF16)[0], ghf_eight(GF32)[0]]
    images = list(frame_images(arcs[1], permutations(range(4))))
    assert images.count(min(images)) > 1
    for spec in (GF4, GF8, GF16, GF32):
        for k in range(4, min(spec.q + 2, 10) + 1):
            arcs.append(random_arc(spec, k, rng))
            arcs.append(arc_through_infinity(spec, k, rng))
    at_infinity = 0
    for arc in arcs:
        labels = list(_subset_images(arc, _four_subsets(arc)))
        assert labels == labels_by_orderings(arc)
        at_infinity += sum(p[2] == 0 for label in labels for p in label)
    # a label point at infinity comes from a point that the frame matrix
    # sends to infinity: every map of the stabilizer fixes that line
    assert at_infinity > 0
