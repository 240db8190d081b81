"""Acceptance suite: one test (or test group) per criterion, each tagged so
the terminal summary prints a PASS/FAIL line per criterion.

Three checks pinned to q = 8 (A3c, A4a, A7a) are kept exactly as required
and fail: the doubled-quadrangle construction has no valid parameters over
GF(8), because {0, 1, lam, lam+1} is an index-2 additive subgroup of F_8,
so two field elements outside it always sum back into it.  Exhaustive
computation confirms both halves (zero parameter triples produce an arc;
zero embeddings at q = 8 have non-collinear foci).  The same checks pass at
q = 16, the smallest order where the construction exists; those variants
follow each pinned check.
"""

import random
import time
from itertools import combinations

import pytest

from hyperarcs.gf2 import field_make
from hyperarcs import projplane as pp
from hyperarcs.arcs import (
    Arc,
    ArcError,
    build_complete_translation_arc,
    enumerate_arc_subgroups,
    enumerate_subgroups,
    is_hyperfocused_line,
    is_translation_arc_group,
    secant_directions,
    subgroup_make,
    translation_arc,
    translation_superarcs,
    uncovered_affine,
    _subfield_basis,
)
from hyperarcs.blocking import (
    BlockingError,
    arc_canonical_form,
    factorization_of,
    ghf_eight,
    is_fano_configuration,
    min_blocking_sets,
    secant_blocker_map,
    triangle_collinearity,
)
from hyperarcs.classify import classify_ghf
from hyperarcs.onefact import (
    OneFactorization,
    canonical_form,
    closure,
    embed_search,
    isomorphic,
)

CASE1 = OneFactorization(8, (
    ((8, 1), (2, 3), (4, 5), (6, 7)),
    ((8, 2), (1, 3), (4, 6), (5, 7)),
    ((8, 3), (1, 2), (4, 7), (5, 6)),
    ((8, 4), (1, 5), (2, 6), (3, 7)),
    ((8, 5), (1, 4), (2, 7), (3, 6)),
    ((8, 6), (1, 7), (2, 4), (3, 5)),
    ((8, 7), (1, 6), (2, 5), (3, 4)),
))
CASE2 = OneFactorization(8, (
    ((8, 1), (2, 3), (4, 5), (6, 7)),
    ((8, 2), (1, 4), (3, 6), (5, 7)),
    ((8, 3), (1, 6), (2, 5), (4, 7)),
    ((8, 4), (1, 7), (2, 6), (3, 5)),
    ((8, 5), (1, 2), (3, 7), (4, 6)),
    ((8, 6), (1, 5), (2, 7), (3, 4)),
    ((8, 7), (1, 3), (2, 4), (5, 6)),
))


# ---------------------------------------------------------------------------
# A1: factorization class counts


@pytest.mark.acceptance("A1", "factorization classes: K6 = 1, K8 = 6, K10 = 396")
def test_a1_factorization_counts(k6_catalog, k8_catalog, k10_catalog):
    from hyperarcs.onefact import enumerate_factorizations

    assert len(k6_catalog) == 1
    assert len(k8_catalog) == 6
    t = time.monotonic()
    assert len(enumerate_factorizations(3)) == 1
    k6_time = time.monotonic() - t
    t = time.monotonic()
    assert len(enumerate_factorizations(4)) == 6
    k8_time = time.monotonic() - t
    assert k6_time < 1.0 and k8_time < 1.0
    k10, k10_time = k10_catalog
    assert len(k10) == 396
    assert k10_time < 600.0
    print(
        f"\nA1 counts 1/6/396 ok; enumeration {k6_time:.2f}s/{k8_time:.2f}s/"
        f"{k10_time:.1f}s"
    )
    # representatives are pairwise non-isomorphic and structurally valid
    forms = {canonical_form(f) for f in k8_catalog}
    assert len(forms) == 6


# ---------------------------------------------------------------------------
# A2: triple closure reaches the full factor set on every K10 class


@pytest.mark.acceptance("A2", "closure reaches all factors on every K10 class")
def test_a2_k10_closure(k10_catalog):
    k10, _ = k10_catalog
    t = time.monotonic()
    results = [closure(f) for f in k10]
    elapsed = time.monotonic() - t
    failures = [i for i, res in enumerate(results) if not res.contains_all]
    assert failures == []
    assert len(results) == 396
    max_depth = max(res.depth for res in results)
    assert max_depth == 3  # frozen from the first verified run
    assert {res.depth for res in results} == {3}
    sizes = [len(res.family) for res in results]
    assert (sum(sizes), min(sizes), max(sizes)) == (176_261, 404, 466)
    assert elapsed < 60.0
    print(f"\nA2 all 396 closures complete, max depth {max_depth}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A3: the K8 dichotomy


@pytest.mark.acceptance("A3a", "K8 dichotomy: closure verdicts for the two cases")
def test_a3a_k8_closure_dichotomy(k8_catalog):
    assert not closure(CASE1).contains_all
    assert closure(CASE2).contains_all
    forms = {canonical_form(f): i for i, f in enumerate(k8_catalog)}
    assert canonical_form(CASE1) in forms
    assert canonical_form(CASE2) in forms
    # exactly one of the six classes escapes the closure: the first case
    stalling = [i for i, f in enumerate(k8_catalog) if not closure(f).contains_all]
    assert stalling == [forms[canonical_form(CASE1)]]


@pytest.mark.acceptance("A3b", "first case embeds in PG(2,8)")
def test_a3b_case1_embeds_q8():
    spec = field_make(3)
    t = time.monotonic()
    embs, exhausted = embed_search(CASE1, spec)
    elapsed = time.monotonic() - t
    assert exhausted
    assert len(embs) == 24  # frozen from the first verified exhaustive run
    for e in embs:
        e.validate()
    assert elapsed < 60.0
    print(f"\nA3b {len(embs)} embeddings at q=8 in {elapsed:.1f}s")


@pytest.mark.acceptance(
    "A3c", "every embedding arc at q=8 matches the doubled-quadrangle arc"
)
def test_a3c_embedding_arcs_match_example_q8():
    spec = field_make(3)
    embs, exhausted = embed_search(CASE1, spec)
    assert exhausted and embs
    try:
        example_arc, _, _ = ghf_eight(spec)
    except BlockingError as exc:
        raise AssertionError(
            "unattainable at q = 8: the comparison arc does not exist over "
            "GF(8).  {0,1,lam,lam+1} is an index-2 additive subgroup of F_8, "
            "so {a1,a2,a1+a2} always meets it; exhaustive scan of all 384 "
            f"parameter triples confirms ({exc}).  The found embeddings are "
            "all hyperfocused (collinear foci); the non-collinear instances "
            "first appear at q = 16 and are checked in the A3d variant."
        ) from exc
    target = arc_canonical_form(example_arc)
    for e in embs:
        assert arc_canonical_form(Arc(spec, e.arc_points())) == target


@pytest.mark.acceptance(
    "A3d", "non-collinear-focus embedding arcs at q=16 match the example arc"
)
def test_a3d_nonlinear_embedding_arcs_match_example_q16():
    spec = field_make(4)
    t = time.monotonic()
    embs, exhausted = embed_search(CASE1, spec)
    assert exhausted
    nonlinear = [e for e in embs if not e.focus_collinear()]
    # frozen counts: the non-collinear embeddings biject with the valid
    # homology parameter triples over GF(16)
    assert len(nonlinear) == 1344
    assert len(embs) - len(nonlinear) == 168
    valid_triples = sum(
        1
        for lam in spec.elements()
        if lam not in (0, 1)
        for a1 in spec.elements()
        for a2 in spec.elements()
        if not ({a1, a2, a1 ^ a2} & {0, 1, lam, lam ^ 1})
    )
    assert valid_triples == len(nonlinear)
    example_arc, _, _ = ghf_eight(spec)
    target = arc_canonical_form(example_arc)
    distinct = sorted({e.arc_points() for e in nonlinear})
    for pts in distinct:
        assert arc_canonical_form(Arc(spec, pts)) == target
    print(
        f"\nA3d {len(nonlinear)} non-collinear-focus embeddings over "
        f"{len(distinct)} arcs, all equivalent to the example "
        f"({time.monotonic()-t:.0f}s)"
    )


# ---------------------------------------------------------------------------
# A4: the doubled-quadrangle golden example


def _golden_checks(spec):
    arc, bset, params = ghf_eight(spec)
    assert len(arc) == 8
    assert len(bset) == 7
    blocker_of = secant_blocker_map(arc, bset)  # exactly one blocker per secant
    assert len(blocker_of) == 28
    assert not bset.linear
    assert is_fano_configuration(spec, bset.points)
    ok, witness = triangle_collinearity(arc, bset)
    assert ok, f"triangle property failed at {witness}"
    return arc, bset, params


@pytest.mark.acceptance("A4a", "doubled-quadrangle golden example at q=8")
def test_a4a_example_golden_q8():
    spec = field_make(3)
    try:
        _golden_checks(spec)
    except BlockingError as exc:
        raise AssertionError(
            "unattainable at q = 8: no (lam, a1, a2) satisfies the "
            "construction constraints over GF(8).  {0,1,lam,lam+1} is an "
            "additive subgroup of index 2, its complement is a single coset, "
            "and any two coset elements sum into the subgroup, so "
            "{a1,a2,a1+a2} always meets the forbidden set.  Brute force over "
            "all 6*64 = 384 triples finds zero arcs, in exact agreement.  "
            f"({exc})  The construction first exists at q = 16; see A4b."
        ) from exc


@pytest.mark.acceptance("A4b", "doubled-quadrangle golden example at q=16")
def test_a4b_example_golden_q16():
    spec = field_make(4)
    t = time.monotonic()
    arc, bset, params = _golden_checks(spec)
    elapsed = time.monotonic() - t
    lam, a1, a2 = params
    assert lam not in (0, 1)
    assert not ({a1, a2, a1 ^ a2} & {0, 1, lam, lam ^ 1})
    print(f"\nA4b golden example at q=16: params {params}, {elapsed*1000:.0f}ms")


# ---------------------------------------------------------------------------
# A5: every small translation arc is hyperfocused on the infinite line


@pytest.mark.acceptance(
    "A5", "translation arcs of order <= 16 are hyperfocused on the line at infinity"
)
def test_a5_hyperfocus_sweep():
    t = time.monotonic()
    checked = 0
    for r in (2, 3, 4):
        spec = field_make(r)
        for basis in enumerate_arc_subgroups(spec, (2, 3, 4)):
            g = subgroup_make(spec, basis)
            arc = translation_arc(g)
            assert is_hyperfocused_line(arc, pp.LINE_AT_INFINITY)
            assert len(secant_directions(g)) == g.order - 1
            checked += 1
    exhaustive = checked

    # sampled sweep for r in {5, 6}
    rng = random.Random(20260808)
    sampled = 0
    for r in (5, 6):
        spec = field_make(r)
        attempts = 0
        while sampled < exhaustive_sample_target(r) and attempts < 4000:
            attempts += 1
            dim = rng.choice((2, 3, 4))
            basis = [
                (rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(dim)
            ]
            try:
                g = subgroup_make(spec, basis)
            except ArcError:
                continue
            if not is_translation_arc_group(g):
                continue
            arc = translation_arc(g)
            assert is_hyperfocused_line(arc, pp.LINE_AT_INFINITY)
            assert len(secant_directions(g)) == g.order - 1
            sampled += 1
    elapsed = time.monotonic() - t
    assert elapsed < 60.0
    print(f"\nA5 exhaustive {exhaustive} arcs (r<=4) + {sampled} sampled, {elapsed:.0f}s")


def exhaustive_sample_target(r):
    return 40 if r == 5 else 80


def test_a5_filter_cross_validation():
    # the fast sweep agrees with the library predicate on a full dimension
    spec = field_make(3)
    fast = {frozenset(subgroup_make(spec, b).elements)
            for b in enumerate_arc_subgroups(spec, (2,))}
    direct = set()
    for basis in enumerate_subgroups(spec, 2):
        g = subgroup_make(spec, basis)
        if is_translation_arc_group(g):
            direct.add(frozenset(g.elements))
    assert fast == direct


# ---------------------------------------------------------------------------
# A6: completion certificate at (r, s) = (6, 3)


@pytest.mark.acceptance("A6", "completion certificate at (r,s) = (6,3) in PG(2,64)")
def test_a6_completion_certificate():
    t = time.monotonic()
    report = build_complete_translation_arc(6, 3)
    assert report.uncovered_empty
    assert uncovered_affine(report.arc) == ()
    assert report.hyperoval_verdict == "NOT_CONTAINED"
    assert report.subplane_verdict == "NOT_CONTAINED"
    assert len(report.arc) >= 16

    spec = field_make(6)
    g = subgroup_make(
        spec, [(h, spec.mul(h, h)) for h in _subfield_basis(spec, 3)]
    )
    supers = translation_superarcs(g)
    assert len(supers) <= 2  # at most r/s
    elapsed = time.monotonic() - t
    assert elapsed < 60.0
    print(
        f"\nA6 arc size {len(report.arc)}, {len(supers)} containing q-arcs, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# A7: classification of sizes up to 10


@pytest.fixture(scope="module")
def classification_q8(k10_catalog, k8_catalog, k6_catalog):
    k10, _ = k10_catalog
    catalogs = {3: k6_catalog, 4: k8_catalog, 5: k10}
    t = time.monotonic()
    rep = classify_ghf(field_make(3), max_k=10, catalogs=catalogs)
    return rep, time.monotonic() - t


@pytest.fixture(scope="module")
def classification_q16(k10_catalog, k8_catalog, k6_catalog):
    k10, _ = k10_catalog
    catalogs = {3: k6_catalog, 4: k8_catalog, 5: k10}
    t = time.monotonic()
    rep = classify_ghf(field_make(4), max_k=10, catalogs=catalogs)
    return rep, time.monotonic() - t


@pytest.mark.acceptance(
    "A7a", "classification at q=8 names one non-linear class at k=8"
)
def test_a7a_classification_q8_as_required(classification_q8):
    rep, elapsed = classification_q8
    assert elapsed < 600.0
    assert rep.exhaustive
    assert rep.nonlinear_ks == (8,) and len(rep.nonlinear_forms) == 1, (
        "unattainable at q = 8: the exhaustive run finds NO non-linear "
        "minimum blocking sets of any size up to 10 over GF(8) "
        f"(found sizes: {rep.nonlinear_ks!r}).  The only factorization "
        "class whose closure permits non-collinear foci was searched "
        "exhaustively; all its embeddings are hyperfocused, matching the "
        "nonexistence of valid doubled-quadrangle parameters over GF(8).  "
        "The classification statement holds vacuously at q = 8; the "
        "non-vacuous witness appears at q = 16 (A7c)."
    )


@pytest.mark.acceptance(
    "A7b", "classification at q=8: no non-linear instance exists (vacuous case)"
)
def test_a7b_classification_q8_actual(classification_q8, k8_catalog):
    rep, elapsed = classification_q8
    assert rep.exhaustive
    assert rep.nonlinear_forms == ()
    assert not rep.example_exists
    # odd sizes never appear, and every class was either closure-forced or
    # searched to exhaustion
    assert all(row.k % 2 == 0 for row in rep.rows)
    searched = [row for row in rep.rows if row.searched]
    assert [(row.k, row.contains_all) for row in searched] == [(8, False)]
    assert all(row.exhausted for row in searched)
    print(f"\nA7b q=8 classification vacuous, exhaustive, {elapsed:.0f}s")


@pytest.mark.acceptance(
    "A7c", "classification at q=16: exactly one non-linear class, at k=8"
)
def test_a7c_classification_q16(classification_q16):
    rep, elapsed = classification_q16
    assert rep.nonlinear_ks == (8,)
    assert len(rep.nonlinear_forms) == 1
    assert rep.example_exists
    assert rep.matches_example() is True
    # exhaustive-or-budgeted is reported either way; this run is exhaustive
    assert rep.exhaustive
    assert elapsed < 600.0
    print(f"\nA7c q=16: single non-linear class at k=8, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# A8: the exact-cover search agrees with brute force on PG(2,4)


def _brute_minimum_sets(spec, arc, external, masks, full, k):
    out = set()
    for subset in combinations(range(len(external)), k - 1):
        acc = 0
        for i in subset:
            acc |= masks[i]
        if acc == full:
            out.add(tuple(sorted(external[i] for i in subset)))
    return out


@pytest.mark.acceptance(
    "A8", "minimum blocking search matches brute force on all 4- and 6-arcs of PG(2,4)"
)
def test_a8_blocking_oracle_agreement():
    spec = field_make(2)
    points = pp.all_points(spec)
    t = time.monotonic()

    arcs_by_size = {4: [], 6: []}
    for quad in combinations(points, 4):
        try:
            arcs_by_size[4].append(Arc(spec, quad))
        except ArcError:
            continue
    assert len(arcs_by_size[4]) == 2520
    for six in combinations(points, 6):
        try:
            arcs_by_size[6].append(Arc(spec, six))
        except ArcError:
            continue
    assert len(arcs_by_size[6]) == 168  # the hyperovals of PG(2,4)

    checked = sets_seen = 0
    for k, arcs in arcs_by_size.items():
        for arc in arcs:
            lines = [
                pp.line_through(spec, p, q)
                for p, q in combinations(arc.points, 2)
            ]
            external = [p for p in points if p not in arc.points]
            masks = []
            for p in external:
                m = 0
                for i, line in enumerate(lines):
                    if pp.incident(spec, p, line):
                        m |= 1 << i
                masks.append(m)
            full = (1 << len(lines)) - 1
            expected = _brute_minimum_sets(spec, arc, external, masks, full, k)
            sets = min_blocking_sets(arc)
            assert {b.points for b in sets} == expected
            # every minimum set satisfies the triangle property: the
            # blockers of any triangle's three sides are collinear
            for bset in sets:
                ok, witness = triangle_collinearity(arc, bset)
                assert ok, f"triangle property failed at {witness}"
                sets_seen += 1
            checked += 1
    elapsed = time.monotonic() - t
    print(f"\nA8 {checked} arcs, {sets_seen} minimum sets cross-checked in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# A9: field and plane invariant suites at their stated ranges


@pytest.mark.acceptance("A9a", "field axioms and identities at the stated ranges")
def test_a9a_field_invariants():
    t = time.monotonic()
    for r in range(2, 9):
        spec = field_make(r)
        rng = random.Random(9000 + r)
        q = spec.q
        for _ in range(10_000):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert spec.mul(a, spec.add(b, c)) == spec.add(
                spec.mul(a, b), spec.mul(a, c)
            )
    for r in range(1, 9):
        spec = field_make(r)
        for a in spec.nonzero():
            assert spec.mul(a, spec.inv(a)) == 1
            assert spec.pow(a, spec.q - 1) == 1
    for r in range(1, 6):
        spec = field_make(r)
        for a in spec.elements():
            for b in spec.elements():
                s = spec.add(a, b)
                assert spec.mul(s, s) == spec.add(spec.mul(a, a), spec.mul(b, b))
    print(f"\nA9a field invariants, {time.monotonic()-t:.0f}s")


@pytest.mark.acceptance("A9b", "plane incidence invariants at the stated ranges")
def test_a9b_geometry_invariants():
    t = time.monotonic()
    # incidence preservation under random projectivities
    for r in (2, 3, 4, 5):
        spec = field_make(r)
        rng = random.Random(7000 + r)

        def rand_point():
            while True:
                v = tuple(rng.randrange(spec.q) for _ in range(3))
                if any(v):
                    return pp.normalize(spec, v)

        for _ in range(1000):
            rows = tuple(
                tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3)
            )
            if pp.matrix_det(spec, rows) == 0:
                continue
            phi = pp.matrix_make(spec, rows)
            a, b, c = rand_point(), rand_point(), rand_point()
            assert pp.collinear(spec, a, b, c) == pp.collinear(
                spec,
                pp.apply_point(spec, phi, a),
                pp.apply_point(spec, phi, b),
                pp.apply_point(spec, phi, c),
            )
            if b != a and c != a and not pp.collinear(spec, a, b, c):
                l1 = pp.line_through(spec, a, b)
                l2 = pp.line_through(spec, a, c)
                assert pp.meet(spec, l1, l2) == a

    # the translation map is an isomorphism onto the elations fixing the
    # infinite line pointwise: exhaustive composition tables for r <= 3
    for r in (1, 2, 3):
        spec = field_make(r)
        images = {
            (a1, a2): pp.elation(spec, a1, a2)
            for a1 in spec.elements()
            for a2 in spec.elements()
        }
        assert len(set(images.values())) == spec.q ** 2
        for (a1, a2), phi in images.items():
            for (b1, b2), psi in images.items():
                assert pp.compose(spec, phi, psi) == images[(a1 ^ b1, a2 ^ b2)]

    # counts: q^2 + q + 1 points and lines, q + 1 points per line
    for r in (1, 2, 3, 4):
        spec = field_make(r)
        pts = pp.all_points(spec)
        assert len(pts) == len(set(pts)) == spec.q**2 + spec.q + 1
        for line in pp.all_lines(spec):
            on = set(pp.line_points(spec, line))
            assert len(on) == spec.q + 1
            assert all(pp.incident(spec, p, line) for p in on)
    print(f"\nA9b geometry invariants, {time.monotonic()-t:.0f}s")


# ---------------------------------------------------------------------------
# Supporting cross-checks used by the criteria above


def test_k8_case_identification(k8_catalog):
    # the four classes other than the two named cases admit no embedding at
    # q = 8 or q = 16
    case_forms = {canonical_form(CASE1), canonical_form(CASE2)}
    others = [
        f for f in k8_catalog if canonical_form(f) not in case_forms
    ]
    assert len(others) == 4
    for spec in (field_make(3), field_make(4)):
        for fact in others:
            embs, exhausted = embed_search(fact, spec)
            assert exhausted
            assert embs == []


def test_case2_embeddings_are_forced_linear():
    spec = field_make(3)
    embs, exhausted = embed_search(CASE2, spec)
    assert exhausted and embs
    assert all(e.focus_collinear() for e in embs)


def test_embedding_round_trip_to_factorization():
    spec = field_make(4)
    embs, _ = embed_search(CASE1, spec, limit=6)
    nonlin = [e for e in embs if not e.focus_collinear()]
    for emb in (embs + nonlin)[:4]:
        arc = Arc(spec, emb.arc_points())
        from hyperarcs.blocking import BlockingSet

        bset = BlockingSet(spec, emb.foci, arc)
        assert isomorphic(factorization_of(arc, bset), CASE1)


def test_superarcs_r6_golden_file():
    import json
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "data" / "superarcs_r6.json").read_text()
    )
    spec = field_make(6)
    g = subgroup_make(
        spec, [(h, spec.mul(h, h)) for h in _subfield_basis(spec, 3)]
    )
    supers = translation_superarcs(g)
    assert len(supers) == golden["count"]
    got = [[pp.point_to_json(p) for p in a.points] for a in supers]
    assert got == golden["arcs"]
