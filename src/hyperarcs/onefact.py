"""1-factorizations of complete graphs K_2n and their plane embeddings.

A 1-factorization splits the edges of K_2n into 2n - 1 perfect matchings.
Two are isomorphic when a vertex relabeling maps one factor set onto the
other.  Enumeration up to isomorphism is by orderly generation: factors are
added in lexicographic order and a partial object survives only if no
relabeling yields a lexicographically smaller image, so exactly the minimal
representative of every class reaches full length.  Every partial object
but one lacking only its forced last factor is tested, as that test decides
nothing, and an image is sorted only when its second and third matchings
can beat the object's.  Enumeration and canonical forms cover K4 to K10.

The triple-closure machinery lives here too: triangles induce 3-sets of
factors whose embedded focus points must be collinear, and unioning sets
that share two members propagates that collinearity.  When the closure
reaches the full factor set, every embedding of the factorization has all
focus points on one line.  The closure holds its family as one int bitmap
over all 2^k subsets of the k factors, from the triangle masks to the
result, which decodes it into factor sets only when read.  It runs in
rounds; depth counts the rounds that add members, and each round unites
only pairs with a member new in the previous round, walking those members
as a trie of their factors down to factor 0.  A new member all of whose
supersets are already members can add nothing, so it is left out of the
next round, and the closure stops, with no empty round, once every new
member is such.

Embeddings (vertices to an arc, factors to focus points on all their
secants) are searched with the first four vertex images pinned to the
standard frame, which enumerates embeddings exactly once per projective
equivalence class.  The search keeps one anchor per factor: the line of
its one placed edge, or its focus once two of its edges are placed.  A
vertex has one edge in each factor, so placing it meets each factor's
anchor at most once: the new edge line is stored, met with the stored
line to force the focus, or, by the choice of candidates, through it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, combinations, permutations, product
from operator import itemgetter, or_

from hyperarcs._record import Record
from hyperarcs.gf2 import FieldSpec
from hyperarcs import projplane as pp
from hyperarcs.projplane import Point


# The largest complete graph handled: enumeration, canonical forms and the
# embedding search stop at K10, since K12 has 526,915,620 classes.
MAX_VERTICES = 10

# The closure's limit: its cost grows about 8-fold per two vertices.
MAX_CLOSURE_VERTICES = 16


class FactorizationError(ValueError):
    """Structurally invalid factorization or catalog data."""


def _check_budget(what: str, value) -> None:
    # bool is an int subclass, but True is no budget; a float or str is
    # refused, never converted
    if value is not None and (type(value) is not int or value < 0):
        raise FactorizationError(f"{what} {value!r} is not None or an int >= 0")


Edge = tuple[int, int]
Factor = tuple[Edge, ...]


class OneFactorization(Record):
    """Factors over vertex set {1..n_vertices}, each a perfect matching.

    An edge is any pair of int vertices; it is stored as a tuple (u, v)
    with u < v, and each factor as a sorted tuple of edges."""

    __slots__ = ("n_vertices", "factors")

    def __init__(self, n_vertices: int, factors):
        # bool, float and str counts and vertices are refused, though some
        # compare as ints
        if type(n_vertices) is not int:
            raise FactorizationError(f"vertex count {n_vertices!r} is not an int")
        ordered = []
        try:
            for f in factors:
                edges = []
                for e in f:
                    try:
                        u, v = e
                    except (TypeError, ValueError):
                        u = None
                    if type(u) is not int or type(v) is not int:
                        raise FactorizationError(f"edge {e!r} is not a pair of int vertices")
                    edges.append((u, v) if u < v else (v, u))
                ordered.append(edges)
        except TypeError:
            raise FactorizationError(f"factors {factors!r} are not collections of edges") from None
        self._init_ordered(n_vertices, ordered)

    @classmethod
    def _of_ordered(cls, n2: int, factors) -> OneFactorization:
        """The factorization whose edges are int tuples (u, v) with u < v."""
        fact = object.__new__(cls)
        fact._init_ordered(n2, factors)
        return fact

    def _init_ordered(self, n2: int, factors) -> None:
        """Set the fields from factors of int edges (u, v) with u < v, once
        each factor is a perfect matching of 1..n2 and no edge repeats."""
        if n2 % 2 or n2 < 4:
            raise FactorizationError(f"vertex count {n2} must be even and >= 4")
        if len(factors) != n2 - 1:
            raise FactorizationError(f"expected {n2 - 1} factors, got {len(factors)}")
        vertices = set(range(1, n2 + 1))
        out = []
        for f in factors:
            f = tuple(sorted(f))
            if len(f) * 2 != n2 or set(sum(f, ())) != vertices:
                raise FactorizationError(f"factor {f} is not a perfect matching")
            out.append(f)
        if len(set(chain.from_iterable(out))) * 2 != n2 * (n2 - 1):
            seen: set[Edge] = set()
            for e in chain.from_iterable(out):
                if e in seen:
                    raise FactorizationError(f"edge {e} appears twice")
                seen.add(e)
        super().__init__(n2, tuple(out))

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
# Catalog text format: one factorization per line, factors separated by "|",
# edges inside a factor by single spaces, each edge "u-v" with u != v plain
# decimals in 1..n2 (no sign, leading zero, "_" or non-ASCII digit), so
# "1-2 3-4 5-6|1-3 2-5 4-6|...", where n2 is one more than the factor count.
# A catalog's lines end at "\n" alone; empty lines are skipped, and a line
# with any other whitespace at either end, "\r" included, is refused.
# The parser looks every token up in a table of the n2(n2 - 1) spellings of
# edges, so it rejects any other.  format_factorization writes u < v, edges
# sorted inside factors and factors sorted by smallest edge; the parser takes
# any order.


def format_factorization(fact: OneFactorization) -> str:
    factors = sorted(fact.factors)
    return "|".join(" ".join(f"{u}-{v}" for u, v in f) for f in factors)


def _edge_tokens(n2: int) -> dict[str, Edge]:
    """Each token "u-v" with u != v in 1..n2, to its edge."""
    table = {}
    for u, v in combinations(range(1, n2 + 1), 2):
        table[f"{u}-{v}"] = table[f"{v}-{u}"] = (u, v)
    return table


def _parse_factorization(text: str, tables: dict[int, dict[str, Edge]]) -> OneFactorization:
    """parse_factorization; tables holds the edge-token tables built so far,
    by n2, for the other lines of a catalog."""
    if not text:
        raise FactorizationError("empty factorization")
    if text[0].isspace() or text[-1].isspace():
        raise FactorizationError("whitespace at the start or end of the line")
    factors = [chunk.split(" ") for chunk in text.split("|")]
    n2 = len(factors) + 1
    if n2 % 2:
        raise FactorizationError(f"{n2 - 1} factors: a 1-factorization has an odd number")
    # so the table below has no more entries than twice the line's tokens
    for i, tokens in enumerate(factors, start=1):
        if len(tokens) * 2 != n2:
            raise FactorizationError(f"factor {i}: {len(tokens)} edge tokens, expected {n2 // 2}")
    table = tables.get(n2)
    if table is None:
        table = tables[n2] = _edge_tokens(n2)
    try:
        edges = [tuple(map(table.__getitem__, tokens)) for tokens in factors]
    except KeyError as exc:
        raise FactorizationError(f"bad edge token {exc.args[0]!r}") from None
    return OneFactorization._of_ordered(n2, edges)


def parse_factorization(text: str) -> OneFactorization:
    """The factorization one catalog line spells; FactorizationError for
    any other text."""
    return _parse_factorization(text, {})


def format_catalog(facts) -> str:
    return "\n".join(format_factorization(f) for f in facts) + "\n"


def parse_catalog(text: str) -> list[OneFactorization]:
    out = []
    tables: dict[int, dict[str, Edge]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        try:
            out.append(_parse_factorization(line, tables))
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
    """The matching relabeled by perm = (sigma, itemgetter of its inverse):
    sigma[v] pairs with sigma[matching[v]]."""
    sigma, inv = perm
    return itemgetter(*inv(matching))(sigma)


class _EnumContext:
    def __init__(self, n: int):
        n2 = 2 * n
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

        matchings = self.matchings
        index = self.index
        mask0 = self.masks[0]
        valid2 = [m for m in self.bucket[2] if not self.masks[m] & mask0]
        # stab_rows[t][m]: the rank of matching m relabeled by element t of
        # the stabilizer of the identity matching (0,1)(2,3)..., which has
        # order 2^n * n!.  Every element factors as sigma = B o F: F swaps
        # inside some blocks {2i, 2i+1} and B then permutes the n blocks.
        # Relabeling by sigma and then by tau has the row
        # itemgetter(*row_sigma)(row_tau).  Only the 2n - 1 involutions
        # s_v = (v v+1) relabel matching by matching; all other rows are
        # gathers.  The single flips are the s_2i, and the swap of blocks j
        # and j+1 is s_2j+1 s_2j s_2j+2 s_2j+1.  The other block rows follow
        # a breadth-first walk over S_n by adjacent swaps, each flip row
        # chains single flips, and row_B gathered through row_F is B o F's,
        # blocks outer, flips inner.  onto[r], the row of a relabeling g
        # sending matching r onto the identity, follows a breadth-first walk
        # over the matchings from rank 0: g after s_v sends s_v(r) there.
        def row(sigma):
            perm = sigma, itemgetter(*sigma)
            return [index[_apply_perm(perm, m)] for m in matchings]

        verts = tuple(range(n2))
        adjacent = [
            row(verts[:v] + (v + 1, v) + verts[v + 2 :]) for v in range(n2 - 1)
        ]
        swap_rows = []
        for v in range(1, n2 - 1, 2):
            swap = adjacent[v]
            for w in v - 1, v + 1, v:
                swap = itemgetter(*swap)(adjacent[w])
            swap_rows.append(swap)
        blocks = tuple(range(n))
        ident = tuple(range(len(matchings)))
        by_block = {blocks: ident}
        queue = [blocks]
        for p in queue:
            for j, swap_row in enumerate(swap_rows):
                q = p[:j] + (p[j + 1], p[j]) + p[j + 2 :]
                if q not in by_block:
                    # q relabels by the swap and then by p
                    by_block[q] = itemgetter(*swap_row)(by_block[p])
                    queue.append(q)
        block_rows = [by_block[p] for p in permutations(blocks)]
        single_flips = adjacent[::2]
        # product order: flip row k flips block i when bit n-1-i of k is set,
        # and is row k - low gathered through the flip of the lowest set bit
        flip_rows = [ident]
        for k in range(1, 1 << n):
            low = k & -k
            single = single_flips[n - low.bit_length()]
            flip_rows.append(itemgetter(*flip_rows[k - low])(single))
        self.stab_rows = [
            list(itemgetter(*row_f)(row_b))
            for row_b in block_rows
            for row_f in flip_rows
        ]
        self.onto = onto = [ident] + [None] * (len(ident) - 1)
        queue = [0]
        for r in queue:
            for s in adjacent:
                if onto[s[r]] is None:
                    onto[s[r]] = itemgetter(*s)(onto[r])
                    queue.append(s[r])
        # flip rows are involutions; block row p's inverse is p^-1's row
        inv_blocks = [
            by_block[tuple(map(p.index, blocks))]
            for p in permutations(blocks)
        ]
        self.inverses = list(product(inv_blocks, flip_rows))
        # Stabilizer element t is bit t of a candidate set.  For each
        # canonical second factor r, least in its stabilizer orbit among the
        # matchings disjoint from the identity, t_eq[r][m] holds the elements
        # sending matching m to r itself, preimages([r]).  beats[r] holds
        # the matchings that some element sends to a bucket-2 matching y of
        # rank below r, disjoint from the identity.  The orbit of such a y
        # lies in the matchings disjoint from the identity, so its least
        # member y' is in bucket 2 and canonical, with y' <= y < r.  beats[r]
        # is therefore the union of the orbits of the smaller canonical r',
        # the matchings m with t_eq[r'][m] nonzero.  So a matching of valid2
        # is canonical exactly when it is not yet below, walking upward.
        self.t_eq: dict[int, list[int]] = {}
        self.beats: dict[int, set[int]] = {}
        below: set[int] = set()
        for r in valid2:  # ascending, as bucket[2] is
            if r in below:
                continue
            self.beats[r] = set(below)
            self.t_eq[r] = self.preimages([r])
            below.update(m for m, ts in enumerate(self.t_eq[r]) if ts)

    def preimages(self, targets) -> list[int]:
        """Bit t of table[m] is set when stabilizer element t sends matching
        m into targets."""
        table = [0] * len(self.matchings)
        for t, (inv_b, inv_f) in enumerate(self.inverses):
            bit = 1 << t
            for y in targets:
                table[inv_f[inv_b[y]]] |= bit
        return table

    def bucket3_table(self, r1: int, r2: int) -> list[int]:
        """The second filter below the level-3 prefix (r1, r2): the
        preimages of the bucket-3 matchings of rank at most r2 that are
        disjoint from the identity and from r1."""
        taken = self.masks[0] | self.masks[r1]
        return self.preimages(
            [y for y in self.bucket[3] if y <= r2 and not self.masks[y] & taken]
        )


@lru_cache(maxsize=None)
def _context(n: int) -> _EnumContext:
    return _EnumContext(n)


def _smaller_image_exists(ctx: _EnumContext, ranks, per_factor, low3) -> bool:
    """True when some relabeling puts the factor set strictly below its own
    sorted rank sequence.  per_factor holds, for each factor i of rank r_i,
    the images of all current factors under onto[r_i], a map sending factor
    i onto the identity matching; composing with stabilizer elements covers
    every relabeling whose image could start at rank 0.

    An image's factors are disjoint, so they lie in distinct buckets and
    position k of its sorted ranks holds its bucket-(k+1) matching or a
    larger one.  Each list holds the identity, so every other image is
    disjoint from it.  An image with a factor in beats[ranks[1]] wins at
    position 1 with no sort.  Any other image can beat ranks only by
    holding ranks[1] (t_eq) and a bucket-3 matching of rank at most
    ranks[2] disjoint from the identity and from ranks[1] (low3, the
    level-3 prefix's table, or None at level 3); only those are sorted."""
    r1 = ranks[1]
    beats = ctx.beats[r1]
    if any(not beats.isdisjoint(mlist) for mlist in per_factor):
        return True
    t_eq = ctx.t_eq[r1]
    rows = ctx.stab_rows
    for mlist in per_factor:
        image = itemgetter(*mlist)
        cands = reduce(or_, image(t_eq))
        if low3 is not None:
            cands &= reduce(or_, image(low3))
        while cands:
            bit = cands & -cands
            if sorted(image(rows[bit.bit_length() - 1])) < ranks:
                return True
            cands ^= bit
    return False


def enumerate_factorizations(n: int) -> list[OneFactorization]:
    """Isomorphism-class representatives of the 1-factorizations of K_2n,
    in deterministic canonical order.  Supported from K4 up to
    MAX_VERTICES vertices, K10 (396 classes).

    Factor i's images are taken under onto[r_i]: a child appends
    onto[r_i][m] and lists the new factor m's under onto[m].  Each prefix
    is tested, at level 2 by t_eq, but one P of n2 - 2 factors: its one
    child F = P + [f] adds the forced last factor (one unused edge per
    vertex), of the last bucket, and is tested in full.  A relabeling g
    putting P below sorted(P) puts F below sorted(F) = sorted(P) + [f]:
    g(P) lies in g(F), so each order statistic of sorted(g(F)) is at most
    that of sorted(g(P))."""
    if not isinstance(n, int) or not 4 <= 2 * n <= MAX_VERTICES:
        raise FactorizationError(f"n = {n!r} out of supported range 2..{MAX_VERTICES // 2}")
    ctx = _context(n)
    n2 = ctx.n2
    masks = ctx.masks
    onto = ctx.onto
    results = []

    def rec(ranks: list[int], per_factor: list[tuple[int, ...]], used: int,
            low3: list[int] | None):
        level = len(ranks)
        if level == n2 - 1:
            results.append(tuple(ranks))
            return
        tested = level + 1 not in (2, n2 - 2)
        for m in ctx.bucket[level + 1]:
            if masks[m] & used or level == 1 and m not in ctx.t_eq:
                continue
            child_ranks = ranks + [m]
            child_per = [
                mlist + (onto[r][m],) for r, mlist in zip(ranks, per_factor)
            ]
            child_per.append(itemgetter(*child_ranks)(onto[m]))
            if tested and _smaller_image_exists(ctx, child_ranks, child_per, low3):
                continue
            child_low3 = ctx.bucket3_table(ranks[1], m) if level + 1 == 3 else low3
            rec(child_ranks, child_per, used | masks[m], child_low3)

    rec([0], [(0,)], masks[0], None)
    return [_ranks_to_factorization(ctx, ranks) for ranks in results]


def _ranks_to_factorization(ctx: _EnumContext, ranks) -> OneFactorization:
    return OneFactorization._of_ordered(ctx.n2, [
        [(v + 1, u + 1) for v, u in enumerate(ctx.matchings[r]) if u > v] for r in ranks
    ])


def canonical_form(fact: OneFactorization) -> tuple[Factor, ...]:
    """Canonical representative of the isomorphism class: the factor tuple
    of the lexicographically least relabeled image.  Invariant under vertex
    permutation and factor reorder.  Supported for 4 to MAX_VERTICES
    vertices, the range enumerate_factorizations covers."""
    n2 = fact.n_vertices
    if n2 % 2 or not 4 <= n2 <= MAX_VERTICES:
        raise FactorizationError(f"unsupported vertex count {n2}")
    ctx = _context(n2 // 2)
    mine = []
    for f in fact.factors:
        partner = [0] * n2
        for u, v in f:
            partner[u - 1], partner[v - 1] = v - 1, u - 1
        mine.append(ctx.index[tuple(partner)])
    best = None
    for r in mine:
        image = itemgetter(*itemgetter(*mine)(ctx.onto[r]))
        for row in ctx.stab_rows:
            seq = sorted(image(row))
            if best is None or seq < best:
                best = seq
    return _ranks_to_factorization(ctx, best).factors


def isomorphic(a: OneFactorization, b: OneFactorization) -> bool:
    if a.n_vertices != b.n_vertices:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Triangle triples and the collinearity closure


class ClosureResult(Record):
    """family decodes the bitmap members (see closure) on each read."""

    __slots__ = ("members", "k", "depth")

    @property
    def contains_all(self) -> bool:
        return bool(self.members >> ((1 << self.k) - 1))

    @property
    def family(self) -> frozenset[frozenset[int]]:
        return _factor_sets(_set_bits(self.members))


def _factor_table(fact: OneFactorization) -> list[list[int]]:
    """table[u][v] is the (1-based) factor index of the edge uv, for u, v
    in 1..n_vertices; row and column 0 and the diagonal hold 0."""
    n2 = fact.n_vertices
    table = [[0] * (n2 + 1) for _ in range(n2 + 1)]
    for i, f in enumerate(fact.factors, start=1):
        for u, v in f:
            table[u][v] = table[v][u] = i
    return table


def _triangle_masks(fact: OneFactorization) -> int:
    """The bitmap (see closure) of each vertex triangle's factor mask: bit
    i - 1 for factor i of each of its edges."""
    table = _factor_table(fact)
    bits = 0
    for u, v, w in combinations(range(1, fact.n_vertices + 1), 3):
        bits |= 1 << ((1 << table[u][v] | 1 << table[u][w] | 1 << table[v][w]) >> 1)
    return bits


def triangle_triples(fact: OneFactorization) -> frozenset[frozenset[int]]:
    """For each vertex triangle, the set of the three factors carrying its
    edges.  The factors are distinct automatically: two sides of a triangle
    share a vertex, and a matching holds at most one of them."""
    return _factor_sets(_set_bits(_triangle_masks(fact)))


def _set_bits(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _factor_sets(masks) -> frozenset[frozenset[int]]:
    """The (1-based) factor sets of factor masks."""
    return frozenset(frozenset(i + 1 for i in _set_bits(m)) for m in masks)


def closure(fact: OneFactorization) -> ClosureResult:
    """Grow the triangle triples by uniting members sharing at least two
    factors, to a fixpoint.  contains_all reports whether the full factor
    set is reached, which forces all focus points of any embedding onto
    one line.  Supported up to MAX_CLOSURE_VERTICES vertices.

    The family is one int over the subset lattice of the k factors: bit m
    is set when the factor set with mask m is a member.  has[i] holds the
    bits m whose set contains factor i.  For a member a, once and twice
    hold the bits m with |m & a| >= 1 and >= 2, so family & twice is the
    members b with |a & b| >= 2; then, for each factor i of a,
    S_i(u) = (u | u << 2^i) & has[i] moves every such b lacking i to
    b | {i}, giving every union a | b.

    A round walks the trie of its added members' masks from factor k - 1
    down, sharing once and twice for the factors fixed above a branch, and
    applies S_i once, to the union from the branch with factor i: as each
    S_i distributes over | and the shifts commute, that is the union of
    every member's own result.  Factor 0 is the base case: the branch
    without it yields family & twice, the branch with it
    S_0(family & (twice | once & has[0])).

    Rounds are semi-naive: a round unites only pairs with a member added
    by the previous round (the triples count as added before round one),
    since the union of two older members is already in the family.  After
    a round that adds members, the new members below no set missing from
    the family are dropped from the next round, and the closure stops when
    none is left.  That is exact: a round forms only unions a | b with a
    added, each a superset of a, so a member whose supersets are all in
    the family adds nothing, now or later, as the family only grows; and
    if no member is left, the next round would add nothing.  A dropped
    member still serves as a partner b, being in the family.  So depth
    counts the rounds that add members, exactly as if every round united
    all pairs, and no round that adds nothing is walked."""
    n2 = fact.n_vertices
    if n2 > MAX_CLOSURE_VERTICES:
        raise FactorizationError(
            f"closure supports at most {MAX_CLOSURE_VERTICES} vertices, got {n2}"
        )
    k = fact.n_factors
    lattice = (1 << (1 << k)) - 1
    # blocks of 2^i clear bits then 2^i set bits, from the lowest bit up
    has = [lattice // ((1 << (1 << i)) + 1) << (1 << i) for i in range(k)]

    def unite(added, i, once, twice):
        h = has[i]
        with_i = added & h
        without = added ^ with_i
        if not i:
            out = family & twice if without else 0
            if with_i:
                u = family & (twice | once & h)
                out |= (u | u << 1) & h
            return out
        out = unite(without, i - 1, once, twice) if without else 0
        if with_i:
            u = unite(with_i, i - 1, once | h, twice | once & h)
            out |= (u | u << (1 << i)) & h
        return out

    added = family = _triangle_masks(fact)
    depth = 0
    while added and (new := unite(added, k - 1, 0, 0) & ~family):
        family |= new
        depth += 1
        added = new & _below(lattice & ~family, has)
    return ClosureResult(family, k, depth)


def _below(sets: int, has: list[int]) -> int:
    """The down-closure of a bitmap of sets (see closure): every subset of
    each, by clearing each factor i in turn from the sets holding it."""
    for i, h in enumerate(has):
        sets |= (sets & h) >> (1 << i)
    return sets


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
                "family_size": res.members.bit_count(),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Embeddings into PG(2,q)


class Embedding(Record):
    """Vertex images (an arc) and factor images (focus points), 1-based
    indices shifted down by one."""

    __slots__ = ("spec", "fact", "vertices", "foci")

    def validate(self) -> None:
        spec = self.spec
        pts = self.vertices
        if len(set(pts)) != len(pts):
            raise FactorizationError("vertex images not distinct")
        if pp._collinear_triple(spec, pts) is not None:
            raise FactorizationError("vertex images contain a collinear triple")
        if len(set(self.foci)) != len(self.foci):
            raise FactorizationError("focus images not distinct")
        if set(self.foci) & set(pts):
            raise FactorizationError("a focus image collides with a vertex image")
        for fi, factor in enumerate(self.fact.factors):
            focus = self.foci[fi]
            for u, v in factor:
                if not pp._collinear(spec, focus, pts[u - 1], pts[v - 1]):
                    raise FactorizationError(
                        f"focus of factor {fi + 1} misses edge ({u},{v})"
                    )

    def focus_collinear(self) -> bool:
        return pp._is_linear(self.spec, self.foci)

    def arc_points(self) -> tuple[Point, ...]:
        return tuple(sorted(self.vertices))


def _pinned_four(table: list[list[int]]) -> tuple[int, ...]:
    """Four vertices covering as many two-edge factors as possible, so the
    frame pin forces focus points immediately; table is _factor_table's."""
    best, best_score = None, -1
    for a, b, c, d in combinations(range(1, len(table)), 4):
        ta, tb = table[a], table[b]
        score = (ta[b] == table[c][d]) + (ta[c] == tb[d]) + (ta[d] == tb[c])
        if score > best_score:
            best, best_score = (a, b, c, d), score
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
    max_nodes stopped the search early.  fact is a OneFactorization, spec
    a FieldSpec, and limit and max_nodes are each None or an int >= 0;
    anything else, a bool included, raises FactorizationError.

    Every embedding returned passes Embedding.validate by construction, so
    the search does not call it.  Vertex and focus images are distinct, and
    no focus is a vertex image, since place rejects any new point already
    in used.  No three vertex images are collinear, since the lines from a
    new vertex image to the placed ones must be distinct.  Each focus lies
    on every edge of its factor: it is the meet of the factor's first two
    edge lines, and every later edge line passes through it untested.  A
    factor has at most two edges among the four pinned vertices, and
    candidates(v) yields only points p on the line focus.u for each placed
    u whose edge to v has its focus forced; p is neither u nor the focus,
    both being in used, so p.u is that line.
    """
    if not isinstance(fact, OneFactorization):
        raise FactorizationError(f"fact {fact!r} is not a OneFactorization")
    if not isinstance(spec, FieldSpec):
        raise FactorizationError(f"spec {spec!r} is not a FieldSpec")
    _check_budget("limit", limit)
    _check_budget("max_nodes", max_nodes)
    n2 = fact.n_vertices
    if n2 > MAX_VERTICES:
        raise FactorizationError(f"embedding search supports at most {MAX_VERTICES} vertices")
    if spec.q > 32:
        raise FactorizationError("embedding search supports q <= 32")

    table = _factor_table(fact)
    pinned = _pinned_four(table)
    remaining = [v for v in range(1, n2 + 1) if v not in pinned]

    all_pts = pp.all_points(spec)
    found: list[Embedding] = []
    state_pos: dict[int, Point] = {}
    # factor anchors: edge_line[fi] until focus[fi] is forced; the line
    # stays stored under the focus, so unplacing the second edge only
    # drops the focus
    edge_line: dict[int, pp.Line] = {}
    focus: dict[int, Point] = {}
    used: set[Point] = set()
    nodes = 0
    budget_blown = False

    def place(v: int, p: Point):
        """Try to place vertex v at point p; returns the factors whose
        anchor it set, for unplace, or None."""
        if p in used:
            return None
        used.add(p)
        lines = set()
        anchored = []
        for u, up in state_pos.items():
            line = pp._line_through(spec, p, up)
            if line in lines:
                break
            lines.add(line)
            fi = table[v][u]
            if fi in focus:
                continue
            first = edge_line.get(fi)
            if first is None:
                edge_line[fi] = line
            else:
                # first joins two placed vertices and line a third, u, so
                # the lines differ and meet in one point
                f = pp._meet(spec, line, first)
                if f in used:
                    break
                focus[fi] = f
                used.add(f)
            anchored.append(fi)
        else:
            state_pos[v] = p
            return anchored
        unplace(p, anchored)
        return None

    def unplace(p: Point, anchored: list[int]):
        for fi in anchored:
            if fi in focus:
                used.discard(focus.pop(fi))
            else:
                del edge_line[fi]
        used.discard(p)

    def candidates(v: int) -> list[Point]:
        lines = {
            pp._line_through(spec, f, up)
            for u, up in state_pos.items()
            if (f := focus.get(table[v][u])) is not None
        }
        if not lines:
            return all_pts
        first = lines.pop()
        if not lines:
            return sorted(pp._line_points(spec, first))
        # two distinct lines share one point, which the rest must carry
        p = pp._meet(spec, first, lines.pop())
        return [p] if all(pp._incident(spec, p, line) for line in lines) else []

    def next_vertex(left: list[int]) -> int:
        def constrained(v):
            return sum(1 for u in state_pos if table[v][u] in focus)

        return max(left, key=lambda v: (constrained(v), -v))

    def rec(left: list[int]):
        nonlocal nodes, budget_blown
        if limit is not None and len(found) >= limit:
            return
        if not left:
            found.append(
                Embedding(
                    spec,
                    fact,
                    tuple(state_pos[v] for v in range(1, n2 + 1)),
                    tuple(focus[i] for i in range(1, n2)),
                )
            )
            return
        v = next_vertex(left)
        rest = [u for u in left if u != v]
        for p in candidates(v):
            if max_nodes is not None and nodes >= max_nodes:
                budget_blown = True
                return
            nodes += 1
            anchored = place(v, p)
            if anchored is None:
                continue
            rec(rest)
            del state_pos[v]
            unplace(p, anchored)
            if budget_blown or (limit is not None and len(found) >= limit):
                return

    if all(place(v, p) is not None for v, p in zip(pinned, pp.STANDARD_FRAME)):
        rec(remaining)
    exhausted = not budget_blown and (limit is None or len(found) < limit)
    return found, exhausted
