import random
from itertools import combinations

import pytest

from hyperarcs.gf2 import field_make
from hyperarcs import projplane as pp
from hyperarcs.onefact import (
    FactorizationError,
    OneFactorization,
    canonical_form,
    closure,
    closure_survey,
    embed_search,
    enumerate_factorizations,
    format_catalog,
    format_factorization,
    isomorphic,
    parse_catalog,
    parse_factorization,
    triangle_triples,
)

# The two embeddable K8 classes, by their explicit factor lists.
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

K6 = OneFactorization(6, (
    ((1, 2), (3, 4), (5, 6)),
    ((1, 3), (2, 5), (4, 6)),
    ((1, 4), (2, 6), (3, 5)),
    ((1, 5), (2, 4), (3, 6)),
    ((1, 6), (2, 3), (4, 5)),
))


# ---------------------------------------------------------------------------
# Structure validation


def test_factor_validation():
    with pytest.raises(FactorizationError):
        OneFactorization(6, K6.factors[:4])  # too few factors
    broken = (((1, 2), (3, 4), (5, 6)),) * 5
    with pytest.raises(FactorizationError):
        OneFactorization(6, broken)  # repeated edges
    not_matching = (((1, 2), (3, 4), (5, 5)),) + K6.factors[1:]
    with pytest.raises(FactorizationError):
        OneFactorization(6, not_matching)


def test_edges_normalized_sorted():
    f = OneFactorization(4, (((2, 1), (4, 3)), ((3, 1), (4, 2)), ((4, 1), (3, 2))))
    assert f.factors[0] == ((1, 2), (3, 4))


# ---------------------------------------------------------------------------
# Catalog format


def test_catalog_round_trip():
    text = format_factorization(CASE1)
    # factors come out sorted by smallest edge: (1,2) leads
    assert text.split("|")[0] == "1-2 3-8 4-7 5-6"
    again = parse_factorization(text)
    assert again.factors == tuple(sorted(CASE1.factors))


def test_catalog_multi_line_round_trip():
    text = format_catalog([CASE1, CASE2])
    facts = parse_catalog(text)
    assert len(facts) == 2
    assert facts[0].factors == tuple(sorted(CASE1.factors))


def test_catalog_error_names_line():
    good = format_factorization(K6)
    bad = good.replace("1-3", "1-9")
    with pytest.raises(FactorizationError) as err:
        parse_catalog(f"{good}\n{bad}\n")
    assert "line 2" in str(err.value)


def test_catalog_bad_token():
    with pytest.raises(FactorizationError):
        parse_factorization("1-2 3-x|1-3 2-4|1-4 2-3")


# ---------------------------------------------------------------------------
# Enumeration


def brute_force_classes(n):
    """Oracle: enumerate every labeled factorization by edge-by-edge
    completion, then bucket by canonical form."""
    n2 = 2 * n
    edges = list(combinations(range(1, n2 + 1), 2))
    all_matchings = []

    def matchings(avail, acc):
        if not avail:
            all_matchings.append(tuple(acc))
            return
        v = avail[0]
        for u in avail[1:]:
            acc.append((v, u))
            matchings([w for w in avail[1:] if w != u], acc)
            acc.pop()

    matchings(list(range(1, n2 + 1)), [])
    results = []

    def extend(used_edges, factors):
        if len(factors) == n2 - 1:
            results.append(tuple(factors))
            return
        # force the matching containing the smallest free edge to cut
        # ordering symmetry only (still enumerates every factor SET)
        free = [e for e in edges if e not in used_edges]
        anchor = free[0]
        for m in all_matchings:
            if anchor in m and not set(m) & used_edges:
                extend(used_edges | set(m), factors + [m])

    extend(set(), [])
    labeled = len(results)
    forms = {canonical_form(OneFactorization(n2, f)) for f in results}
    return labeled, forms


def test_enumerate_k4():
    assert len(enumerate_factorizations(2)) == 1


def test_enumerate_k6_against_brute_force():
    labeled, forms = brute_force_classes(3)
    assert labeled == 6
    reps = enumerate_factorizations(3)
    assert len(reps) == 1
    assert {canonical_form(f) for f in reps} == forms


def test_enumerate_k8_count():
    reps = enumerate_factorizations(4)
    assert len(reps) == 6
    forms = {canonical_form(f) for f in reps}
    assert len(forms) == 6
    assert canonical_form(CASE1) in forms
    assert canonical_form(CASE2) in forms


def test_enumerate_rejects_bad_n():
    with pytest.raises(FactorizationError):
        enumerate_factorizations(1)
    with pytest.raises(FactorizationError):
        enumerate_factorizations(6)  # K12: 526,915,620 classes
    with pytest.raises(FactorizationError):
        enumerate_factorizations(7)


def test_enumerated_representatives_are_valid_and_distinct():
    reps = enumerate_factorizations(4)
    seen = set()
    for f in reps:
        assert f.n_vertices == 8
        seen.add(canonical_form(f))
    assert len(seen) == 6


# ---------------------------------------------------------------------------
# Isomorphism


def test_relabeling_is_isomorphic():
    rng = random.Random(0)
    for _ in range(5):
        perm = list(range(1, 9))
        rng.shuffle(perm)
        relabeled = OneFactorization(
            8,
            tuple(
                tuple(sorted((perm[u - 1], perm[v - 1])) for u, v in f)
                for f in CASE1.factors
            ),
        )
        assert isomorphic(CASE1, relabeled)


def test_case1_case2_not_isomorphic():
    assert not isomorphic(CASE1, CASE2)


def test_canonical_form_idempotent():
    form = canonical_form(CASE2)
    again = canonical_form(OneFactorization(8, form))
    assert form == again


def test_factor_order_irrelevant():
    shuffled = OneFactorization(8, CASE1.factors[::-1])
    assert isomorphic(CASE1, shuffled)


def random_matching_avoiding(n2, used, rng):
    """Random perfect matching on {1..n2} avoiding the used edges, or None."""

    def rec(free):
        if not free:
            return []
        v = free[0]
        partners = [u for u in free[1:] if (v, u) not in used]
        rng.shuffle(partners)
        for u in partners:
            rest = rec([w for w in free[1:] if w != u])
            if rest is not None:
                return [(v, u)] + rest
        return None

    return rec(list(range(1, n2 + 1)))


def random_factorization(n2, rng):
    """Random labeled factorization by factor-at-a-time completion with
    whole-object restarts on dead ends."""
    while True:
        used = set()
        factors = []
        for _ in range(n2 - 1):
            m = random_matching_avoiding(n2, used, rng)
            if m is None:
                break
            factors.append(tuple(sorted(m)))
            used.update(m)
        else:
            return OneFactorization(n2, tuple(factors))


def test_random_factorizations_land_in_enumerated_classes():
    rng = random.Random(31)
    known = {canonical_form(f) for f in enumerate_factorizations(4)}
    for _ in range(25):
        fact = random_factorization(8, rng)
        assert canonical_form(fact) in known


# ---------------------------------------------------------------------------
# Triangle triples and closure


def test_k6_triangle_example():
    triples = triangle_triples(K6)
    assert frozenset({1, 2, 5}) in triples  # triangle {1,2,3}
    assert all(len(t) == 3 for t in triples)
    assert len(triples) <= 20  # C(6,3)


def test_case2_triangle_example():
    triples = triangle_triples(CASE2)
    assert frozenset({1, 5, 7}) in triples  # triangle {1,2,3}


def test_k6_closure_reaches_everything():
    res = closure(K6)
    assert res.contains_all


def test_case1_closure_stalls():
    res = closure(CASE1)
    assert not res.contains_all
    # triangles of the boolean factorization give the planes of a projective
    # 3-space over GF(2) restricted to... the triple family stays at size-3
    assert all(len(a) == 3 for a in res.family)
    assert res.depth == 0


def test_case2_closure_reaches_everything():
    res = closure(CASE2)
    assert res.contains_all
    assert frozenset(range(1, 8)) in res.family


def test_closure_family_members_at_least_three():
    for fact in enumerate_factorizations(4):
        res = closure(fact)
        assert all(len(a) >= 3 for a in res.family)


def reference_closure(fact):
    """Oracle: every round unites all pairs of the family sharing two
    factors, until a round adds nothing."""
    k = fact.n_factors
    family = {sum(1 << (i - 1) for i in t) for t in triangle_triples(fact)}
    depth = 0
    while True:
        fam = sorted(family)
        new = set()
        for i, a in enumerate(fam):
            for b in fam[i + 1 :]:
                if (a & b).bit_count() >= 2 and a | b not in family:
                    new.add(a | b)
        if not new:
            break
        family |= new
        depth += 1
    out = frozenset(
        frozenset(i + 1 for i in range(k) if mask >> i & 1) for mask in family
    )
    return out, (1 << k) - 1 in family, depth


def round_robin(n2):
    """The factorization GK_n2: vertex n2 is the centre, and factor i pairs
    it with i and pairs i - j with i + j modulo n2 - 1."""
    m = n2 - 1
    return OneFactorization(n2, tuple(
        ((i + 1, n2),)
        + tuple(((i - j) % m + 1, (i + j) % m + 1) for j in range(1, n2 // 2))
        for i in range(m)
    ))


def relabeled(fact, rng):
    perm = list(range(1, fact.n_vertices + 1))
    rng.shuffle(perm)
    factors = [
        tuple((perm[u - 1], perm[v - 1]) for u, v in f) for f in fact.factors
    ]
    rng.shuffle(factors)
    return OneFactorization(fact.n_vertices, tuple(factors))


def assert_closure_matches_reference(fact):
    res = closure(fact)
    assert (res.family, res.contains_all, res.depth) == reference_closure(fact)


@pytest.mark.parametrize(
    "fact", [K6, CASE1, CASE2, round_robin(12)], ids=["K6", "CASE1", "CASE2", "GK12"]
)
def test_closure_matches_reference_fixpoint(fact):
    assert_closure_matches_reference(fact)


def test_closure_matches_reference_fixpoint_on_k8_catalog(k8_catalog):
    for fact in k8_catalog:
        assert_closure_matches_reference(fact)


def test_closure_matches_reference_fixpoint_on_k10_sample(k10_catalog):
    k10, _ = k10_catalog
    rng = random.Random(5)
    for fact in rng.sample(k10, 20):
        assert_closure_matches_reference(relabeled(fact, rng))


def test_closure_counts_frozen(k8_catalog):
    # (contains_all, depth, family size), frozen from the all-pairs fixpoint
    assert [
        (res.contains_all, res.depth, len(res.family))
        for res in map(closure, k8_catalog)
    ] == [(False, 0, 7), (True, 3, 49), (True, 3, 72), (True, 3, 60),
          (True, 3, 90), (True, 3, 99)]
    res = closure(K6)
    assert (res.contains_all, res.depth, len(res.family)) == (True, 2, 16)


def test_closure_survey_shape():
    rows = closure_survey([K6, CASE1, CASE2])
    assert [r["contains_all"] for r in rows] == [True, False, True]
    assert all(set(r) == {"index", "contains_all", "depth", "family_size"} for r in rows)


# ---------------------------------------------------------------------------
# Embeddings


def test_case1_embeds_at_q8_all_linear():
    spec = field_make(3)
    embs, exhausted = embed_search(CASE1, spec)
    assert exhausted
    assert embs
    for e in embs:
        e.validate()
    # no homology parameters exist at q = 8, so every embedding here is
    # hyperfocused: focus points all on one line
    assert all(e.focus_collinear() for e in embs)


def test_case1_embeds_at_q16_with_nonlinear_foci():
    spec = field_make(4)
    embs, exhausted = embed_search(CASE1, spec, limit=40)
    nonlin = [e for e in embs if not e.focus_collinear()]
    assert embs
    if exhausted:
        assert nonlin
    for e in embs[:10]:
        e.validate()


def test_case2_embeds_with_collinear_foci_q8():
    spec = field_make(3)
    embs, exhausted = embed_search(CASE2, spec)
    assert exhausted
    assert embs
    assert all(e.focus_collinear() for e in embs)


def test_k6_embedding_foci_collinear():
    spec = field_make(3)
    embs, exhausted = embed_search(K6, spec)
    assert exhausted
    for e in embs:
        e.validate()
        assert e.focus_collinear()


def test_embedding_closure_soundness():
    # every member of the closure family maps to collinear focus points
    spec = field_make(3)
    embs, _ = embed_search(CASE2, spec, limit=5)
    family = closure(CASE2).family
    for e in embs:
        for member in family:
            pts = sorted({e.foci[i - 1] for i in member})
            if len(pts) >= 3:
                base = pp.line_through(spec, pts[0], pts[1])
                assert all(pp.incident(spec, p, base) for p in pts[2:])


def test_t0_soundness_via_embeddings():
    spec = field_make(3)
    embs, _ = embed_search(CASE1, spec, limit=5)
    triples = triangle_triples(CASE1)
    for e in embs:
        for t in triples:
            a, b, c = (e.foci[i - 1] for i in sorted(t))
            assert pp.collinear(spec, a, b, c)


def test_embed_limit_and_budget():
    spec = field_make(3)
    embs, exhausted = embed_search(CASE1, spec, limit=3)
    assert len(embs) == 3 and not exhausted
    embs2, exhausted2 = embed_search(CASE1, spec, max_nodes=10)
    assert not exhausted2


def test_embed_search_guards():
    spec = field_make(6)
    with pytest.raises(FactorizationError):
        embed_search(CASE1, spec)  # q = 64 beyond the supported scale


def test_factorization_round_trip_through_embedding():
    # an embedding's arc and focus set reproduce the class it came from
    from hyperarcs.arcs import Arc
    from hyperarcs.blocking import BlockingSet, factorization_of

    spec = field_make(3)
    embs, _ = embed_search(CASE2, spec, limit=1)
    emb = embs[0]
    arc = Arc(spec, emb.arc_points())
    bset = BlockingSet(spec, emb.foci, arc)
    fact = factorization_of(arc, bset)
    assert isomorphic(fact, CASE2)
