"""Exact arithmetic in GF(2^r), 1 <= r <= 16.

Field elements are plain ints in [0, 2^r), read as coefficient vectors in the
polynomial basis (bit k = coefficient of X^k).  All operations live on
FieldSpec and take element values explicitly; elements carry no back-reference
to their field.  A value outside [0, 2^r) is treated as a mixed-field mistake
and rejected, and so is one that is not an int (a float, str or bool).

Every field multiplies through one pair of log/antilog tables (Plank, "A
tutorial on Reed-Solomon coding", 1997; Greenan, Miller & Schwarz,
"Optimizing Galois field arithmetic", 2008), built once per (r, poly) and
shared by every FieldSpec with that key.  With g a generator of the unit
group, ``exp[k] = g^k`` and ``log[g^k] = k``; ``log[0]`` is the sentinel
``2(q - 1)``, past every sum of two unit logs, and ``exp`` is zero from there
on.  So for any a, b and any nonzero c, with no branch on zero:

    a * b == exp[log[a] + log[b]]
    a / c == exp[log[a] + q - 1 - log[c]]

The public FieldSpec methods check their operands; library code that has
already validated its inputs indexes ``spec.exp`` and ``spec.log`` directly.
"""

from __future__ import annotations

from hyperarcs._record import Record


class FieldError(ValueError):
    """Bad field description or an element that does not fit the field."""


# One irreducible per degree.  Correctness is not taken on trust: every
# FieldSpec re-checks irreducibility at construction time.
DEFAULT_POLYS = {
    1: 0b11,                 # X + 1
    2: 0b111,                # X^2 + X + 1
    3: 0b1011,               # X^3 + X + 1
    4: 0b10011,              # X^4 + X + 1
    5: 0b100101,             # X^5 + X^2 + 1
    6: 0b1000011,            # X^6 + X + 1
    7: 0b10000011,           # X^7 + X + 1
    8: 0b100011011,          # X^8 + X^4 + X^3 + X + 1
    9: 0x211,                # X^9 + X^4 + 1
    10: 0x46F,
    11: 0x805,
    12: 0x10EB,
    13: 0x201B,
    14: 0x40A9,
    15: 0x8035,
    16: 0x1002D,
}

MAX_DEGREE = 16


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    """Remainder of a by m in GF(2)[X], both as bit masks."""
    dm = _poly_degree(m)
    while _poly_degree(a) >= dm and a:
        a ^= m << (_poly_degree(a) - dm)
    return a


def _raw_mul(a: int, b: int, r: int, poly: int) -> int:
    """Shift-and-xor product in the polynomial basis, reduced on the fly."""
    acc = 0
    top = 1 << r
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


def is_irreducible(poly: int) -> bool:
    """Brute trial division by every monic polynomial of degree <= deg/2."""
    d = _poly_degree(poly)
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for low in range(1 << deg):
            divisor = (1 << deg) | low
            if _poly_mod(poly, divisor) == 0:
                return False
    return True


def _build_tables(r: int, poly: int) -> tuple[list[int], list[int]]:
    """(exp, log) for GF(2^r) mod poly, laid out as the module docstring says.

    The generator is searched for, not assumed: X itself has order 51, not
    255, under the default r = 8 polynomial."""
    units = (1 << r) - 1
    for gen in range(1, units + 1):
        powers = [1]
        x = gen
        while x != 1:
            powers.append(x)
            x = _raw_mul(x, gen, r, poly)
        if len(powers) == units:
            break
    zero_log = 2 * units
    log = [zero_log] * (units + 1)
    for k, v in enumerate(powers):
        log[v] = k
    return powers + powers + [0] * (2 * zero_log + 1 - 2 * units), log


# (r, poly) -> (exp, log), filled once per irreducible polynomial in use
_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def _check_int(what: str, v) -> None:
    # bool is an int subclass, but True is no degree or polynomial
    if isinstance(v, bool) or not isinstance(v, int):
        raise FieldError(f"{what} {v!r} is not an integer")


class FieldSpec(Record):
    """GF(2^r) described by its degree and reduction polynomial.

    ``q`` is 2^r and ``exp``/``log`` are the shared tables; equality, hashing
    and repr depend on (r, poly) only."""

    __slots__ = ("r", "poly", "q", "exp", "log")

    def __init__(self, r: int, poly: int):
        _check_int("degree", r)
        _check_int("polynomial", poly)
        if not 1 <= r <= MAX_DEGREE:
            raise FieldError(f"degree {r} out of range 1..{MAX_DEGREE}")
        if _poly_degree(poly) != r:
            raise FieldError(f"polynomial 0x{poly:x} is not monic of degree {r}")
        key = (r, poly)
        tables = _TABLES.get(key)
        if tables is None:
            if not is_irreducible(poly):
                raise FieldError(f"polynomial 0x{poly:x} is reducible over GF(2)")
            tables = _TABLES[key] = _build_tables(r, poly)
        super().__init__(r, poly, 1 << r, *tables)

    def _key(self) -> tuple:
        return self.r, self.poly

    def __repr__(self) -> str:
        return f"FieldSpec(r={self.r}, poly={self.poly})"

    def check(self, *values: int) -> None:
        """Raise FieldError unless every value is an element of the field:
        an int, not a bool or any other int subclass, in [0, q).  A float,
        str or bool is refused, never converted, since the table kernels
        would index with it or pass it through unreduced."""
        q = self.q
        for v in values:
            if type(v) is not int or not 0 <= v < q:
                raise FieldError(f"value {v!r} is not an element of GF(2^{self.r})")

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        self.check(a, b)
        return a ^ b

    # subtraction coincides with addition in characteristic two
    sub = add

    def mul(self, a: int, b: int) -> int:
        self.check(a, b)
        log = self.log
        return self.exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        self.check(a, b)
        if b == 0:
            raise ZeroDivisionError("0 has no inverse")
        log = self.log
        return self.exp[log[a] + self.q - 1 - log[b]]

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def frob(self, a: int, i: int) -> int:
        """a^(2^i); i taken mod r since Frobenius has order r."""
        return self.pow(a, 1 << (i % self.r))

    def subfield(self, s: int) -> list[int]:
        """Elements of the subfield GF(2^s), for s dividing r."""
        if self.r % s != 0:
            raise FieldError(f"GF(2^{s}) is not a subfield of GF(2^{self.r})")
        return [a for a in self.elements() if self.frob(a, s) == a]

    def to_json(self) -> dict:
        return {"r": self.r, "poly": f"0x{self.poly:x}"}


def field_make(r: int, poly: int | None = None) -> FieldSpec:
    """Build a validated FieldSpec; poly=None picks the default irreducible."""
    _check_int("degree", r)
    if not 1 <= r <= MAX_DEGREE:
        raise FieldError(f"degree {r} out of range 1..{MAX_DEGREE}")
    if poly is None:
        poly = DEFAULT_POLYS[r]
    return FieldSpec(r, poly)


def parse_hex(text: str) -> int:
    """The value of a base-16 spelling in a JSON file: ASCII hex digits
    after an optional 0x or 0X.  ValueError for anything else, including
    the signs, spaces, underscores and non-ASCII digits int(text, 16)
    reads."""
    digits = text[2:] if text[:2] in ("0x", "0X") else text
    if not digits or digits.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"{text!r} is not a base-16 spelling")
    return int(digits, 16)


def field_from_json(obj: dict) -> FieldSpec:
    try:
        r = obj["r"]
        poly = obj.get("poly")
        poly = parse_hex(poly) if isinstance(poly, str) else poly
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldError(f"malformed field description: {obj!r}") from exc
    return field_make(r, poly)
