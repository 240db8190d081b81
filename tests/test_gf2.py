import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperarcs.gf2 import (
    DEFAULT_POLYS,
    FieldError,
    FieldSpec,
    _raw_mul,
    field_from_json,
    field_make,
    is_irreducible,
)


# ---------------------------------------------------------------------------
# Independent oracles.  Coefficient-list polynomial arithmetic: no bit tricks,
# no shared code with the library path.


def _to_coeffs(x):
    return [(x >> k) & 1 for k in range(x.bit_length())]


def _from_coeffs(cs):
    return sum(c << k for k, c in enumerate(cs))


def oracle_mul(a, b, poly):
    ca, cb = _to_coeffs(a), _to_coeffs(b)
    prod = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] ^= x & y
    cm = _to_coeffs(poly)
    deg_m = len(cm) - 1
    while len(prod) > deg_m:
        lead = prod.pop()
        if lead:
            for k in range(deg_m + 1):
                prod_idx = len(prod) - deg_m + k
                if prod_idx < len(prod):
                    prod[prod_idx] ^= cm[k]
    return _from_coeffs(prod)


def oracle_divides(divisor, dividend):
    """Long division of bit-mask polynomials over GF(2), list arithmetic."""
    num = _to_coeffs(dividend)
    den = _to_coeffs(divisor)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        for k, c in enumerate(den):
            num[shift + k] ^= c
    return not any(num)


def build_log_tables(spec):
    """Log/antilog tables from a brute-forced generator of the unit group."""
    q = spec.q
    gen = None
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = oracle_mul(x, g, spec.poly)
            seen.add(x)
        if len(seen) == q - 1:
            gen = g
            break
    assert gen is not None
    antilog = [1]
    for _ in range(q - 2):
        antilog.append(oracle_mul(antilog[-1], gen, spec.poly))
    log = {a: k for k, a in enumerate(antilog)}
    return log, antilog


# ---------------------------------------------------------------------------
# Construction and validation


def test_default_table_entries_are_irreducible():
    for r, poly in DEFAULT_POLYS.items():
        spec = field_make(r)
        assert spec.poly == poly
        assert is_irreducible(poly)


def test_default_gf8_poly():
    assert field_make(3).poly == 0b1011  # X^3 + X + 1


def test_reducible_poly_rejected():
    # X^4 + X^2 + 1 = (X^2 + X + 1)^2
    assert oracle_divides(0b111, 0b10101)
    with pytest.raises(FieldError):
        field_make(4, 0b10101)


def test_gf2_uses_x_plus_one():
    spec = field_make(1)
    assert spec.poly == 0b11
    assert spec.q == 2


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, False], ids=repr)
def test_elements_must_be_ints(bad):
    # a float, str or bool is no element, even when it compares in range
    spec = field_make(3)
    with pytest.raises(FieldError):
        spec.check(bad)
    with pytest.raises(FieldError):
        spec.mul(bad, 2)
    with pytest.raises(FieldError):
        spec.mul(2, bad)


def test_degree_out_of_range():
    with pytest.raises(FieldError):
        field_make(0)
    with pytest.raises(FieldError):
        field_make(17)


def test_poly_degree_mismatch():
    with pytest.raises(FieldError):
        field_make(4, 0b1011)


def test_irreducibility_against_oracle():
    for poly in range(0b100, 0b1000000):
        if not (poly & 1):
            continue  # divisible by X
        expect = not any(
            oracle_divides((1 << d) | low, poly)
            for d in range(1, (poly.bit_length() - 1) // 2 + 1)
            for low in range(1 << d)
        )
        assert is_irreducible(poly) == expect


def test_element_range_checked():
    spec = field_make(3)
    with pytest.raises(FieldError):
        spec.add(5, 9)
    with pytest.raises(FieldError):
        spec.mul(8, 1)


def test_json_round_trip():
    spec = field_make(5)
    assert field_from_json(spec.to_json()) == spec
    with pytest.raises(FieldError):
        field_from_json({"poly": "0x25"})


@pytest.mark.parametrize(
    "obj",
    [
        {"r": 4.5},
        {"r": 4.0},
        {"r": True},
        {"r": "4"},
        {"r": 4, "poly": 19.5},
        {"r": 4, "poly": True},
        {"r": 4, "poly": [19]},
        {"r": 4, "poly": "zz"},
    ],
)
def test_json_rejects_non_integral_degree_or_poly(obj):
    with pytest.raises(FieldError):
        field_from_json(obj)


# ---------------------------------------------------------------------------
# Arithmetic against the oracles


def test_addition_examples():
    spec = field_make(3)
    assert spec.add(5, 5) == 0
    assert spec.add(5, 0) == 5
    assert spec.add(3, 6) == 5


def test_gf8_product_example():
    # X * X^2 = X^3 = X + 1 under X^3 + X + 1
    spec = field_make(3)
    assert spec.mul(2, 4) == 3


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_mul_matches_polynomial_oracle(r):
    spec = field_make(r)
    rng = random.Random(1000 + r)
    for _ in range(400):
        a = rng.randrange(spec.q)
        b = rng.randrange(spec.q)
        assert spec.mul(a, b) == oracle_mul(a, b, spec.poly)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8])
def test_mul_matches_log_table(r):
    spec = field_make(r)
    log, antilog = build_log_tables(spec)
    rng = random.Random(2000 + r)
    for _ in range(300):
        a = rng.randrange(1, spec.q)
        b = rng.randrange(1, spec.q)
        expect = antilog[(log[a] + log[b]) % (spec.q - 1)]
        assert spec.mul(a, b) == expect


def test_inverse_of_one():
    for r in (1, 2, 3, 8):
        assert field_make(r).inv(1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_make(4).inv(0)


@pytest.mark.parametrize("r", range(1, 9))
def test_inverse_exhaustive(r):
    spec = field_make(r)
    for a in spec.nonzero():
        assert spec.mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("r", range(1, 9))
def test_unit_group_order(r):
    spec = field_make(r)
    for a in spec.nonzero():
        assert spec.pow(a, spec.q - 1) == 1


def test_frobenius_order_divides_degree():
    spec = field_make(6)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(spec.q)
        assert spec.frob(a, 6) == a
        assert spec.frob(a, 0) == a


def test_frobenius_is_squaring_iterated():
    spec = field_make(5)
    for a in spec.elements():
        sq = spec.mul(a, a)
        assert spec.frob(a, 1) == sq
        assert spec.frob(a, 2) == spec.mul(sq, sq)


@pytest.mark.parametrize("r", range(2, 6))
def test_frobenius_additive_exhaustive(r):
    spec = field_make(r)
    for a in spec.elements():
        for b in spec.elements():
            lhs = spec.mul(spec.add(a, b), spec.add(a, b))
            assert lhs == spec.add(spec.mul(a, a), spec.mul(b, b))


def test_subfield_sizes():
    spec = field_make(6)
    assert len(spec.subfield(1)) == 2
    assert len(spec.subfield(2)) == 4
    assert len(spec.subfield(3)) == 8
    with pytest.raises(FieldError):
        spec.subfield(4)


# Every default polynomial, plus one irreducible that is not a default.  Under
# the default r = 8 polynomial X has order 51, so the table generator must be
# searched for; 0x11D is the primitive r = 8 polynomial of Reed-Solomon codes.
KERNEL_FIELDS = [(r, DEFAULT_POLYS[r]) for r in range(1, 17)] + [(8, 0x11D)]


@pytest.mark.parametrize("r, poly", KERNEL_FIELDS)
def test_log_tables_match_shift_and_xor(r, poly):
    spec = FieldSpec(r, poly)
    q = spec.q
    if r <= 8:
        pairs = [(a, b) for a in range(q) for b in range(q)]
        units = range(1, q)
    else:
        rng = random.Random(3000 + r)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        pairs += [(0, 0), (0, q - 1), (q - 1, 0), (1, q - 1)]
        units = [rng.randrange(1, q) for _ in range(500)] + [1, q - 1]
    for a, b in pairs:
        assert spec.mul(a, b) == _raw_mul(a, b, r, poly)
    for a in units:
        assert _raw_mul(a, spec.inv(a), r, poly) == 1
    # the multiplicative group is cyclic, generated by exp[1]
    assert len(set(spec.exp[: q - 1])) == q - 1


def test_tables_shared_and_invisible():
    a, b = field_make(10), FieldSpec(10, DEFAULT_POLYS[10])
    assert a.exp is b.exp and a.log is b.log
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "FieldSpec(r=10, poly=1135)"
    assert FieldSpec(8, 0x11D) != field_make(8)


# ---------------------------------------------------------------------------
# Field axioms as properties

field_degrees = st.integers(min_value=2, max_value=8)


@given(r=field_degrees, data=st.data())
@settings(max_examples=200, deadline=None)
def test_ring_axioms(r, data):
    spec = field_make(r)
    a = data.draw(st.integers(0, spec.q - 1))
    b = data.draw(st.integers(0, spec.q - 1))
    c = data.draw(st.integers(0, spec.q - 1))
    assert spec.add(a, b) == spec.add(b, a)
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
    assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))


@given(r=field_degrees, data=st.data())
@settings(max_examples=100, deadline=None)
def test_division_round_trip(r, data):
    spec = field_make(r)
    a = data.draw(st.integers(0, spec.q - 1))
    b = data.draw(st.integers(1, spec.q - 1))
    assert spec.div(spec.mul(a, b), b) == a
