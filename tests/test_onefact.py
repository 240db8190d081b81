import hashlib
import random
import re
import sys
from itertools import combinations, permutations, product
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperarcs.gf2 import field_make
from hyperarcs import onefact
from hyperarcs import projplane as pp
from hyperarcs.onefact import (
    Embedding,
    FactorizationError,
    MAX_CLOSURE_VERTICES,
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
    _context,
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


@pytest.mark.parametrize(
    "factor",
    [
        ((1,), (2, 3, 4)),  # the two cover the four vertices between them
        ((1.0, 2), (3, 4)),
        ((True, 2), (3, 4)),
        (12, (3, 4)),
        ("12", (3, 4)),
    ],
)
def test_edges_must_be_int_pairs(factor):
    with pytest.raises(FactorizationError, match="is not a pair of int vertices"):
        OneFactorization(4, (factor, ((1, 3), (2, 4)), ((1, 4), (2, 3))))


K4_FACTORS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))


@pytest.mark.parametrize(
    "n_vertices, factors, message",
    [
        (4, (1, 2, 3), "are not collections of edges"),
        (4, None, "are not collections of edges"),
        (4, (K4_FACTORS[0], 5, K4_FACTORS[2]), "are not collections of edges"),
        (4.0, K4_FACTORS, "vertex count 4.0 is not an int"),
        ("4", (), "vertex count '4' is not an int"),
        (True, K4_FACTORS, "vertex count True is not an int"),
        (3, (((1, 2),), ((1, 3),)), "vertex count 3 must be even and >= 4"),
    ],
)
def test_malformed_arguments_raise_factorization_error(n_vertices, factors, message):
    with pytest.raises(FactorizationError, match=re.escape(message)):
        OneFactorization(n_vertices, factors)


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
    with pytest.raises(FactorizationError, match="empty factorization"):
        parse_factorization("")


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
# a catalog line spoiled by whitespace at either end, each spelling refused
EDGE_WHITESPACE = {
    "leading tab": lambda line: "\t" + line,
    "leading em space": lambda line: "\u2003" + line,
    "leading space": lambda line: " " + line,
    "trailing space": lambda line: line + " ",
    "trailing carriage return": lambda line: line + "\r",
    "trailing form feed": lambda line: line + "\f",
    "trailing vertical tab": lambda line: line + "\v",
    "whitespace-only line": lambda line: "   ",
}


def golden_first_line(name):
    return (GOLDEN / name).read_text().split("\n")[0]


@pytest.mark.parametrize("name", ["k6.txt", "k8.txt"])
@pytest.mark.parametrize("spelling", EDGE_WHITESPACE)
def test_catalog_line_with_edge_whitespace_is_refused(name, spelling):
    good = golden_first_line(name)
    bad = EDGE_WHITESPACE[spelling](good)
    with pytest.raises(FactorizationError):
        parse_factorization(bad)
    with pytest.raises(FactorizationError, match="^line 2: "):
        parse_catalog(f"{good}\n{bad}\n{good}\n")


@pytest.mark.parametrize("separator", ["\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_catalog_lines_end_only_at_newline(separator):
    # str.splitlines breaks lines at each of these too
    good = golden_first_line("k6.txt")
    with pytest.raises(FactorizationError, match="^line 1: "):
        parse_catalog(f"{good}{separator}{good}\n")


def test_catalog_skips_only_empty_lines():
    good = golden_first_line("k8.txt")
    facts = parse_catalog(f"\n{good}\n\n\n{good}")
    assert facts == [parse_factorization(good)] * 2


@pytest.fixture(scope="module")
def golden_lines():
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    return [
        line for name in ("k8.txt", "k10.txt")
        for line in (golden / name).read_text().splitlines()
    ]


MUTATIONS = (
    "repeat an edge", "drop a token", "vertex out of range",
    "non-integer token", "drop a factor", "non-decimal spelling",
)
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def mutate(line, kind, data):
    """line with one defect of the given kind, drawn from data."""
    factors = [chunk.split() for chunk in line.split("|")]
    n2 = len(factors) + 1
    f = data.draw(st.integers(0, len(factors) - 1))
    t = data.draw(st.integers(0, len(factors[f]) - 1))
    u, v = factors[f][t].split("-")
    if kind == "repeat an edge":
        g = data.draw(st.integers(0, len(factors) - 1))
        factors[g].insert(data.draw(st.integers(0, len(factors[g]))), factors[f][t])
    elif kind == "drop a token":
        del factors[f][t]
    elif kind == "vertex out of range":
        w = data.draw(st.sampled_from([0, n2 + 1, n2 + 2, 10 * n2]))
        factors[f][t] = data.draw(st.sampled_from([f"{w}-{v}", f"{u}-{w}"]))
    elif kind == "non-integer token":
        bad = data.draw(st.sampled_from(["x", "1.5", "0x3", "2e1", "-", "+-"]))
        factors[f][t] = data.draw(st.sampled_from([f"{bad}-{v}", f"{u}-{bad}", bad]))
    elif kind == "non-decimal spelling":
        # int() reads each of these as the vertex u, or the tab as a space
        w = data.draw(st.sampled_from([f"+{u}", f"0{u}", f"0_{u}", u.translate(ARABIC_INDIC)]))
        spelled = data.draw(st.sampled_from([f"{w}-{v}", f"{v}-{w}", None]))
        if spelled is not None:
            factors[f][t] = spelled
        else:
            j = min(t, len(factors[f]) - 2)
            factors[f][j] += "\t" + factors[f].pop(j + 1)
    else:
        del factors[f]
    return "|".join(" ".join(chunk) for chunk in factors)


@given(data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_parse_catalog_rejects_mutants(golden_lines, data):
    line = data.draw(st.sampled_from(golden_lines))
    assert format_catalog(parse_catalog(line)) == line + "\n"
    mutant = mutate(line, data.draw(st.sampled_from(MUTATIONS)), data)
    with pytest.raises(FactorizationError, match="^line 1: "):
        parse_catalog(mutant)


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
    # relabeling is refused past K10 as well
    gk12 = round_robin(12)
    with pytest.raises(FactorizationError):
        canonical_form(gk12)
    with pytest.raises(FactorizationError):
        isomorphic(gk12, gk12)


def test_enumerated_representatives_are_valid_and_distinct():
    reps = enumerate_factorizations(4)
    seen = set()
    for f in reps:
        assert f.n_vertices == 8
        seen.add(canonical_form(f))
    assert len(seen) == 6


def stabilizer_of_identity(n):
    """The 2^n * n! relabelings preserving (0,1)(2,3)..., listed blocks
    outer, flips inner."""
    for block in permutations(range(n)):
        for flips in product((0, 1), repeat=n):
            sigma = [0] * (2 * n)
            for i in range(n):
                sigma[2 * i] = 2 * block[i] + flips[i]
                sigma[2 * i + 1] = 2 * block[i] + (flips[i] ^ 1)
            yield sigma


def relabel_oracle(s, m):
    """The matching m relabeled by s, by definition: s[v] pairs with s[m[v]]."""
    out = [0] * len(m)
    for v in range(len(m)):
        out[s[v]] = s[m[v]]
    return tuple(out)


def stab_row_oracle(ctx, sigma):
    """Relabel every matching by sigma and look up the image's rank."""
    return [ctx.index[relabel_oracle(sigma, m)] for m in ctx.matchings]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stab_rows_match_direct_relabeling(n):
    ctx = _context(n)
    expected = [stab_row_oracle(ctx, s) for s in stabilizer_of_identity(n)]
    assert ctx.stab_rows == expected


def test_stab_rows_match_direct_relabeling_k10_sample():
    ctx = _context(5)
    sigmas = list(stabilizer_of_identity(5))
    assert len(ctx.stab_rows) == len(sigmas) == 3840
    for t in random.Random(10).sample(range(len(sigmas)), 64):
        assert ctx.stab_rows[t] == stab_row_oracle(ctx, sigmas[t]), t


def generator_involutions(n):
    """The adjacent transpositions v <-> v+1, from which _EnumContext
    gathers every stabilizer row and every map onto the identity."""
    for v in range(2 * n - 1):
        s = list(range(2 * n))
        s[v], s[v + 1] = v + 1, v
        yield s


def edge_order_map(m):
    """The relabeling sending the k-th edge of matching m, listed by smaller
    end, onto the edge (2k, 2k+1) of the identity matching."""
    ends = [x for v, u in enumerate(m) if u > v for x in (v, u)]
    return sorted(range(len(m)), key=ends.__getitem__)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_perm_is_the_relabeling(n):
    # the gather matches the loop definition on random relabelings and the
    # generator involutions; onto[r] sends r onto the identity and is the
    # edge-order map onto the identity followed by a stabilizer element
    ctx = _context(n)
    rng = random.Random(n)
    ms = rng.sample(ctx.matchings, min(len(ctx.matchings), 40))
    sigmas = []
    for _ in range(8):
        s = list(range(2 * n))
        rng.shuffle(s)
        sigmas.append(s)
    sigmas += generator_involutions(n)
    for s in sigmas:
        inv = sorted(range(len(s)), key=s.__getitem__)
        for m in ms:
            got = onefact._apply_perm((s, itemgetter(*inv)), m)
            assert got == relabel_oracle(s, m), (s, m)
    ranks = range(len(ctx.matchings))
    for r in ranks if n < 5 else rng.sample(ranks, 16):
        onto = tuple(ctx.onto[r])
        assert onto[r] == 0
        s0 = edge_order_map(ctx.matchings[r])
        assert relabel_oracle(s0, ctx.matchings[r]) == ctx.matchings[0]
        row0 = stab_row_oracle(ctx, s0)
        assert onto in (itemgetter(*row0)(st) for st in ctx.stab_rows), r


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stab_rows_relabel_only_generators(monkeypatch, n):
    # only the n - 1 adjacent block swaps and the n single flips relabel
    # every matching; the other 2^n n! - 2n + 1 rows are gathers
    calls = 0
    apply_perm = onefact._apply_perm

    def counting(perm, matching):
        nonlocal calls
        calls += 1
        return apply_perm(perm, matching)

    monkeypatch.setattr(onefact, "_apply_perm", counting)
    ctx = onefact._EnumContext(n)
    assert 0 < calls <= (2 * n - 1) * len(ctx.matchings)


@pytest.mark.parametrize("n", [3, 4])
def test_second_rank_filter_matches_row_scan(n):
    # beats[r]: the matchings some stabilizer element sends to a bucket-2
    # matching y < r disjoint from the identity; bit t of t_eq[r][m]: element
    # t sends m to r itself, for each canonical second factor r, a bucket-2
    # matching disjoint from the identity that no row sends below itself.
    # All three scanned here row by row.
    ctx = _context(n)
    valid2 = [m for m in ctx.bucket[2] if not ctx.masks[m] & ctx.masks[0]]
    reps2 = [m for m in valid2 if all(row[m] >= m for row in ctx.stab_rows)]
    beats = {r: set() for r in reps2}
    t_eq = {r: [0] * len(ctx.matchings) for r in reps2}
    for t, row in enumerate(ctx.stab_rows):
        for m, y in enumerate(row):
            if y in valid2:
                for r in reps2:
                    if y < r:
                        beats[r].add(m)
                    elif y == r:
                        t_eq[r][m] |= 1 << t
    assert ctx.beats == beats
    assert ctx.t_eq == t_eq


def third_rank_oracle(ctx, r1, r2, elements):
    """Bit t of table[m], for t in elements: element t sends m to a bucket-3
    matching of rank at most r2 disjoint from the identity and from r1,
    scanned row by row."""
    taken = ctx.masks[0] | ctx.masks[r1]
    table = [0] * len(ctx.matchings)
    for t in elements:
        for m, y in enumerate(ctx.stab_rows[t]):
            if y in ctx.bucket[3] and y <= r2 and not ctx.masks[y] & taken:
                table[m] |= 1 << t
    return table


def ranks_of(ctx, fact):
    ranks = []
    for f in fact.factors:
        partner = [0] * fact.n_vertices
        for u, v in f:
            partner[u - 1], partner[v - 1] = v - 1, u - 1
        ranks.append(ctx.index[tuple(partner)])
    return sorted(ranks)


@pytest.mark.parametrize("n", [3, 4])
def test_third_rank_filter_matches_row_scan(monkeypatch, n):
    # every level-3 prefix the enumeration builds a table for
    build = onefact._EnumContext.bucket3_table
    prefixes = []

    def recording(ctx, r1, r2):
        prefixes.append((r1, r2))
        return build(ctx, r1, r2)

    monkeypatch.setattr(onefact._EnumContext, "bucket3_table", recording)
    enumerate_factorizations(n)
    ctx = _context(n)
    assert prefixes
    for r1, r2 in prefixes:
        expected = third_rank_oracle(ctx, r1, r2, range(len(ctx.stab_rows)))
        assert build(ctx, r1, r2) == expected, (r1, r2)


def test_third_rank_filter_matches_row_scan_k10_sample(k10_catalog):
    # the level-3 prefixes of the K10 classes, on 64 stabilizer elements
    ctx = _context(5)
    facts, _ = k10_catalog
    prefixes = sorted({tuple(ranks_of(ctx, f)[1:3]) for f in facts})
    sample = random.Random(21).sample(range(len(ctx.stab_rows)), 64)
    in_sample = sum(1 << t for t in sample)
    for r1, r2 in prefixes:
        table = ctx.bucket3_table(r1, r2)
        expected = third_rank_oracle(ctx, r1, r2, sample)
        assert [bits & in_sample for bits in table] == expected, (r1, r2)


@pytest.mark.parametrize("n", [3, 4])
def test_image_filters_decide_as_a_brute_scan(monkeypatch, n):
    # at every node of the enumeration, the filtered test answers as a sort
    # of every per-factor image under every stabilizer row
    decide = onefact._smaller_image_exists
    answers = []

    def checked(ctx, ranks, per_factor, low3):
        got = decide(ctx, ranks, per_factor, low3)
        brute = any(
            sorted(itemgetter(*mlist)(row)) < ranks
            for mlist in per_factor
            for row in ctx.stab_rows
        )
        assert got == brute, ranks
        answers.append(got)
        return got

    monkeypatch.setattr(onefact, "_smaller_image_exists", checked)
    assert len(enumerate_factorizations(n)) == {3: 1, 4: 6}[n]
    # no K6 node is rejected
    assert set(answers) == {3: {False}, 4: {False, True}}[n]


def test_k8_enumeration_image_sort_count(monkeypatch):
    # the full image sorts of the K8 enumeration; with the second-rank filter
    # alone there are 13,065, and 7,063 when prefixes of n2 - 2 factors are
    # tested too, so a change losing the third-rank filter, sorting where a
    # table answers, or testing a prefix whose test decides nothing fails here.
    # The map chosen onto the identity for each factor decides which candidate
    # the early exit meets first, so it moves the count too: 5,367 with the
    # edge-order maps, 5,366 with the onto rows of the transposition walk
    decide = onefact._smaller_image_exists.__code__
    sorts = 0

    def counting(seq):
        nonlocal sorts
        if sys._getframe(1).f_code is decide:
            sorts += 1
        return sorted(seq)

    monkeypatch.setattr(onefact, "sorted", counting, raising=False)
    enumerate_factorizations(4)
    assert sorts == 5366


def prefix_per_factor(ctx, prefix):
    """For each factor of the prefix, the ranks of all its factors under a
    relabeling sending that factor onto the identity matching."""
    per_factor = []
    for r in prefix:
        s = edge_order_map(ctx.matchings[r])
        per_factor.append(
            [ctx.index[relabel_oracle(s, ctx.matchings[y])] for y in prefix]
        )
    return per_factor


def test_prefixes_of_classes_are_canonical(k6_catalog, k8_catalog, k10_catalog):
    # every prefix of a canonical factorization is canonical, the fact that
    # lets the enumeration prune a failing prefix; checked on every prefix
    # of 3 to n2 - 1 factors, so also on those of n2 - 2 factors, which the
    # enumeration does not test
    k10, _ = k10_catalog
    sample = random.Random(23).sample(k10, 16)
    for facts in (k6_catalog, k8_catalog, sample):
        ctx = _context(facts[0].n_vertices // 2)
        for fact in facts:
            ranks = ranks_of(ctx, fact)
            low3 = ctx.bucket3_table(ranks[1], ranks[2])
            for k in range(3, ctx.n2):
                prefix = ranks[:k]
                per_factor = prefix_per_factor(ctx, prefix)
                assert not onefact._smaller_image_exists(
                    ctx, prefix, per_factor, None if k == 3 else low3
                ), prefix


@pytest.mark.parametrize("n", [3, 4])
def test_enumeration_skips_the_test_before_the_forced_factor(monkeypatch, n):
    # no prefix of n2 - 2 factors is tested, and every class is tested
    # whole before it is yielded
    decide = onefact._smaller_image_exists
    checked = {}

    def recording(ctx, ranks, per_factor, low3):
        got = decide(ctx, ranks, per_factor, low3)
        checked[tuple(ranks)] = got
        return got

    monkeypatch.setattr(onefact, "_smaller_image_exists", recording)
    facts = enumerate_factorizations(n)
    ctx = _context(n)
    assert {len(r) for r in checked} == set(range(3, 2 * n)) - {2 * n - 2}
    for fact in facts:
        assert checked[tuple(ranks_of(ctx, fact))] is False


# SHA-256 of format_catalog, as stored in perfbench/golden/digests.json:
# this pins the class order as well as the classes.
CATALOG_SHA256 = {
    "k6": "ab0f2602b1f17055d348fd36e8ef506e96bc4f3fc64a2eba096fdbc11254b759",
    "k8": "61b7680360159811023871ad184388916952a20c582857da35beee834178838d",
    "k10": "a11873223faaf62757ba664c83d7176f348d03e2cf64ab2673e90484927891ea",
}


def test_catalog_digests(k6_catalog, k8_catalog, k10_catalog):
    k10, _ = k10_catalog
    catalogs = {"k6": k6_catalog, "k8": k8_catalog, "k10": k10}
    digests = {
        name: hashlib.sha256(format_catalog(facts).encode()).hexdigest()
        for name, facts in catalogs.items()
    }
    assert digests == CATALOG_SHA256


def is_perfect(fact):
    """Every two factors form one Hamiltonian cycle: walking from vertex 1
    along alternate factors returns to 1 only after visiting every vertex."""
    partners = []
    for f in fact.factors:
        partner = {}
        for u, v in f:
            partner[u], partner[v] = v, u
        partners.append(partner)
    for a, b in combinations(partners, 2):
        v, length = b[a[1]], 2
        while v != 1:
            v = b[a[v]]
            length += 2
        if length != fact.n_vertices:
            return False
    return True


def test_one_perfect_class_per_catalog(k6_catalog, k8_catalog, k10_catalog):
    # one perfect 1-factorization of each of K6, K8 and K10 up to
    # isomorphism (Wallis, One-factorizations, 1997)
    k10, _ = k10_catalog
    assert [i for i, f in enumerate(k6_catalog) if is_perfect(f)] == [0]
    assert [i for i, f in enumerate(k8_catalog) if is_perfect(f)] == [5]
    assert [i for i, f in enumerate(k10) if is_perfect(f)] == [395]


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


def test_factorizations_of_different_orders_are_not_isomorphic():
    k4 = OneFactorization(4, K4_FACTORS)
    assert not isomorphic(K6, k4)
    assert not isomorphic(k4, K6)


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


def test_closure_gk14_counts_frozen():
    # k = 13, an 8192-bit family; frozen from the all-pairs fixpoint
    res = closure(round_robin(14))
    assert (res.contains_all, res.depth, len(res.family)) == (True, 4, 8100)


def test_closure_gk16_counts_frozen():
    # k = 15, a 32768-bit family; frozen from the closure that united each
    # new member alone
    res = closure(round_robin(16))
    assert (res.contains_all, res.depth, res.members.bit_count()) == (True, 4, 32647)


def test_closure_digest_frozen():
    # sha256 over "members depth" of every class of the golden K6, K8 and
    # K10 catalogs, frozen from the closure that walked each round to the
    # one adding nothing
    digest = hashlib.sha256()
    count = 0
    for name in ("k6.txt", "k8.txt", "k10.txt"):
        for fact in parse_catalog((GOLDEN / name).read_text()):
            res = closure(fact)
            digest.update(f"{res.members:x} {res.depth}\n".encode())
            count += 1
    assert count == 403
    assert digest.hexdigest() == (
        "234ac946674a558ef16d17747073ac74040313b0006bea696f163d0c566bcd6d"
    )


def test_k4_closure_is_its_one_triple():
    (k4,) = enumerate_factorizations(2)
    res = closure(k4)
    assert res.k == 3 and res.family == {frozenset({1, 2, 3})}
    assert res.contains_all and res.depth == 0


@pytest.mark.parametrize("k", range(3, 8))
def test_below_is_the_down_closure(k):
    # bit m of has[i] is set when set m holds factor i, built here per set
    size = 1 << k
    has = [sum(1 << m for m in range(size) if m >> i & 1) for i in range(k)]
    lattice = (1 << size) - 1
    rng = random.Random(k)
    families = [0, lattice] + [
        sum(1 << m for m in range(size) if rng.random() < density)
        for density in (0.3, 0.7, 0.9, 0.97) for _ in range(3)
    ]
    for family in families:
        missing = lattice & ~family
        below = onefact._below(missing, has)
        for m in range(size):
            contained = any(
                missing >> s & 1 and m & s == m for s in range(size)
            )
            assert (below >> m & 1) == contained
    assert onefact._below(0, has) == 0 and onefact._below(lattice, has) == lattice


def test_closure_never_decodes(monkeypatch, k10_catalog):
    k10, _ = k10_catalog
    facts = k10[::50]
    expected = [closure(fact) for fact in facts]

    def refuse(bits):
        raise AssertionError("closure decoded a bitmap")

    monkeypatch.setattr(onefact, "_set_bits", refuse)
    for fact, want in zip(facts, expected):
        res = closure(fact)
        assert (res.members, res.contains_all, res.depth) == (
            want.members, want.contains_all, want.depth
        )


def renamed_members(members, perm):
    """The bitmap members with factor i renamed perm[i] in every mask."""
    out = 0
    for m in range(members.bit_length()):
        if members >> m & 1:
            out |= 1 << sum(1 << p for i, p in enumerate(perm) if m >> i & 1)
    return out


def test_closure_follows_factor_order(k8_catalog, k10_catalog):
    k10, _ = k10_catalog
    rng = random.Random(19)
    for fact in [*k8_catalog, *rng.sample(k10, 12)]:
        perm = list(range(fact.n_factors))
        rng.shuffle(perm)
        factors = [None] * fact.n_factors
        for i, f in enumerate(fact.factors):
            factors[perm[i]] = f
        res = closure(fact)
        moved = closure(OneFactorization(fact.n_vertices, tuple(factors)))
        assert moved.members == renamed_members(res.members, perm)
        assert (moved.contains_all, moved.depth) == (res.contains_all, res.depth)


def test_factor_table_matches_factor_of_edge(k8_catalog, k10_catalog):
    k10, _ = k10_catalog
    rng = random.Random(13)
    facts = [K6, *k8_catalog, round_robin(12)]
    facts += [relabeled(fact, rng) for fact in rng.sample(k10, 20)]
    for fact in facts:
        table = onefact._factor_table(fact)
        factor_of = fact.factor_of_edge()
        n2 = fact.n_vertices
        assert len(table) == n2 + 1 and all(len(row) == n2 + 1 for row in table)
        for u, v in combinations(range(1, n2 + 1), 2):
            assert table[u][v] == table[v][u] == factor_of[(u, v)]


def test_contains_all_reads_the_family(k8_catalog):
    for fact in [*k8_catalog, round_robin(12)]:
        res = closure(fact)
        assert res.contains_all == (frozenset(range(1, res.k + 1)) in res.family)


def brute_force_triples(fact):
    """Oracle: the factor set of every vertex triangle, read edge by edge
    from factor_of_edge."""
    factor_of = fact.factor_of_edge()
    return frozenset(
        frozenset((factor_of[(u, v)], factor_of[(u, w)], factor_of[(v, w)]))
        for u, v, w in combinations(range(1, fact.n_vertices + 1), 3)
    )


def test_triangle_triples_match_brute_force(k8_catalog, k10_catalog):
    k10, _ = k10_catalog
    rng = random.Random(11)
    facts = [K6, *k8_catalog, round_robin(12)]
    facts += [relabeled(fact, rng) for fact in rng.sample(k10, 20)]
    for fact in facts:
        assert triangle_triples(fact) == brute_force_triples(fact)


def test_closure_refuses_past_vertex_cap():
    assert MAX_CLOSURE_VERTICES == 16
    with pytest.raises(FactorizationError, match="at most 16 vertices"):
        closure(round_robin(18))


def test_closure_survey_family_size_is_family_length(k8_catalog):
    facts = [*k8_catalog, round_robin(12)]
    rows = closure_survey(facts)
    assert [r["family_size"] for r in rows] == [
        len(closure(fact).family) for fact in facts
    ]


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


@pytest.mark.parametrize("fact, r, nodes", [
    (CASE1, 3, 469), (CASE2, 3, 349), (CASE2, 4, 3367), (round_robin(10), 3, 454),
])
def test_embed_search_node_count(fact, r, nodes):
    # the exhaustive search visits exactly this many candidate points: a
    # candidate list that held a point off some constraint line would cost
    # extra nodes and move every budget cut.  GK10 at q = 8 (three
    # embeddings, onto hyperovals) is the case that breaks when a focus
    # forced onto a used point is accepted; the K6 and K8 searches do not.
    spec = field_make(r)
    assert embed_search(fact, spec, max_nodes=nodes)[1]
    assert not embed_search(fact, spec, max_nodes=nodes - 1)[1]


# SHA-256 over the K6 and K8 catalogs, class by class, of each search's
# exhausted flag and its (vertices, foci) list: this pins the embeddings,
# their order and every budget cut.  Budget 60 is the one classify uses at
# q = 16.
EMBEDDING_SHA256 = {
    (3, "exhaustive"):
        "efa7279b43e09389f9342fcd91783ad7c50d25b965cfe17b3c78e677e997a36f",
    (3, "max_nodes=60"):
        "ef51d39249528141db186f0be424fa67ae7f01b7af14d0fbefe34d069437b848",
    (3, "limit=5"):
        "26085d3705e3e34c93ddbdd1a8caed5c46078edcefd47eacaae71eaebcb32f1e",
    (4, "exhaustive"):
        "1411819f726319569952382040d51c7a100bdc7dce454bc61fb31ef710156f29",
    (4, "max_nodes=60"):
        "27c95746f7c2aea70cee02237fb44574032b194bbc2195d26111ecf30f95b22f",
    (4, "limit=5"):
        "277629b9971f60f95c9b29b699bc8bee17d25b70c750596133ff2912b701e84c",
}
SEARCH_BUDGETS = {"exhaustive": {}, "max_nodes=60": {"max_nodes": 60}, "limit=5": {"limit": 5}}


def test_embed_search_digests_and_oracle(k6_catalog, k8_catalog):
    digests = {}
    validated = 0
    for r in (3, 4):
        spec = field_make(r)
        for name, budget in SEARCH_BUDGETS.items():
            rows = []
            for fact in k6_catalog + k8_catalog:
                embs, exhausted = embed_search(fact, spec, **budget)
                for e in embs:
                    e.validate()
                if name == "exhaustive":
                    validated += len(embs)
                rows.append((exhausted, [(e.vertices, e.foci) for e in embs]))
            digests[(r, name)] = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert validated == 1541
    assert digests == EMBEDDING_SHA256


def test_validate_rejects_focus_off_its_factor():
    spec = field_make(3)
    emb = embed_search(CASE1, spec, limit=1)[0][0]
    emb.validate()
    # move factor 1's focus to a point of the plane on none of its edges
    edges = [(emb.vertices[u - 1], emb.vertices[v - 1]) for u, v in CASE1.factors[0]]
    off = next(
        p for p in pp.all_points(spec)
        if p not in emb.vertices and p not in emb.foci
        and not any(pp.collinear(spec, p, a, b) for a, b in edges)
    )
    moved = Embedding(spec, CASE1, emb.vertices, (off,) + emb.foci[1:])
    with pytest.raises(FactorizationError, match="focus of factor 1 misses edge"):
        moved.validate()


@pytest.mark.parametrize("change, message", [
    ("repeated-vertex", "vertex images not distinct"),
    ("repeated-focus", "focus images not distinct"),
    ("focus-on-vertex", "a focus image collides with a vertex image"),
])
def test_validate_refuses_repeated_images(change, message):
    spec = field_make(3)
    emb = embed_search(CASE1, spec, limit=1)[0][0]
    v, f = emb.vertices, emb.foci
    vertices, foci = {
        "repeated-vertex": (v[:1] + v[:1] + v[2:], f),
        "repeated-focus": (v, f[:1] + f[:1] + f[2:]),
        "focus-on-vertex": (v, v[:1] + f[1:]),
    }[change]
    with pytest.raises(FactorizationError, match=message):
        Embedding(spec, CASE1, vertices, foci).validate()


@pytest.mark.parametrize("name, value", [
    ("limit", -1), ("limit", 2.5), ("limit", True), ("limit", "3"),
    ("max_nodes", -1), ("max_nodes", 2.5), ("max_nodes", True), ("max_nodes", "3"),
])
def test_embed_search_refuses_budgets_of_other_types(name, value):
    # a negative budget is refused, not read as one already spent
    with pytest.raises(FactorizationError):
        embed_search(CASE1, field_make(3), **{name: value})


@pytest.mark.parametrize("fact, spec", [
    (None, field_make(3)), ("x", field_make(3)), (K6.factors, field_make(3)),
    (K6, None), (K6, "x"), (K6, 3),
])
def test_embed_search_refuses_arguments_of_other_types(fact, spec):
    with pytest.raises(FactorizationError):
        embed_search(fact, spec)


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
    bset = BlockingSet(spec, emb.foci)
    fact = factorization_of(arc, bset)
    assert isomorphic(fact, CASE2)
