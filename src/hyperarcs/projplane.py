"""Points, lines, and projectivities of PG(2,q) over GF(2^r).

Points and lines share one representation: triples of field values,
normalized so the last nonzero coordinate is 1.  That keeps the natural
representatives (a, b, 1) for affine points, (a, b, 0) for points at
infinity, and [0, 0, 1] for the line at infinity.  Projectivities are 3x3
invertible matrices scaled so the first nonzero entry (row-major) is 1,
so tuple equality is equality in PGL(3,q).
"""

from __future__ import annotations

from hyperarcs.gf2 import FieldSpec, parse_hex

Point = tuple[int, int, int]
Line = tuple[int, int, int]
Matrix = tuple[tuple[int, int, int], ...]

# Everything below multiplies through the field's log/antilog tables
# (spec.exp, spec.log; see gf2), unchecked: public entry points that take
# outside values check them first.


class GeometryError(ValueError):
    """Degenerate input to a geometric operation."""


def normalize(spec: FieldSpec, triple) -> Point:
    try:
        x1, x2, x3 = triple
    except (TypeError, ValueError):
        raise GeometryError(f"point {triple!r} is not a triple") from None
    spec.check(x1, x2, x3)
    return _normalize_fast(spec, x1, x2, x3)


def _normalize_fast(spec: FieldSpec, x1: int, x2: int, x3: int) -> Point:
    exp, log = spec.exp, spec.log
    if x3:
        if x3 == 1:
            return (x1, x2, 1)
        s = spec.q - 1 - log[x3]
        return (exp[log[x1] + s], exp[log[x2] + s], 1)
    if x2:
        if x2 == 1:
            return (x1, 1, 0)
        return (exp[log[x1] + spec.q - 1 - log[x2]], 1, 0)
    if x1:
        return (1, 0, 0)
    raise GeometryError("zero triple is not a projective point")


LINE_AT_INFINITY: Line = (0, 0, 1)
ORIGIN: Point = (0, 0, 1)

# The standard frame: no three of these are collinear in any PG(2,q).
STANDARD_FRAME: tuple[Point, ...] = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))

IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _dot(exp, log, u, v) -> int:
    return (
        exp[log[u[0]] + log[v[0]]] ^ exp[log[u[1]] + log[v[1]]] ^ exp[log[u[2]] + log[v[2]]]
    )


def _cross(exp, log, u, v) -> tuple[int, int, int]:
    # characteristic two: the cross product's signs all collapse to xor
    u0, u1, u2 = log[u[0]], log[u[1]], log[u[2]]
    v0, v1, v2 = log[v[0]], log[v[1]], log[v[2]]
    return (
        exp[u1 + v2] ^ exp[u2 + v1],
        exp[u2 + v0] ^ exp[u0 + v2],
        exp[u0 + v1] ^ exp[u1 + v0],
    )


# Each public name below reads the points and lines it is given through
# normalize, a sequence of points through _read_points and the matrices
# through _read_matrix, then calls the unchecked kernel of the same name with
# a leading underscore; library code calls the kernels.  So a public name
# raises GeometryError for a point or line that is not a triple or is the
# zero triple, a sequence of points that is not iterable, or a matrix that is
# not 3x3, and FieldError for a value outside the field.


def _read_points(spec: FieldSpec, points) -> list[Point]:
    """points as a list of normalized points: GeometryError unless it is
    iterable, then normalize's errors for each point."""
    try:
        points = iter(points)
    except TypeError:
        raise GeometryError(f"points {points!r} are not a sequence") from None
    return [normalize(spec, p) for p in points]


def _read_matrix(spec: FieldSpec, rows) -> Matrix:
    """rows as three rows of three field values, zeros allowed."""
    try:
        (a, b, c), (d, e, f), (g, h, i) = rows
    except (TypeError, ValueError):
        raise GeometryError(f"matrix {rows!r} is not 3x3") from None
    spec.check(a, b, c, d, e, f, g, h, i)
    return ((a, b, c), (d, e, f), (g, h, i))


def incident(spec: FieldSpec, point: Point, line: Line) -> bool:
    return _incident(spec, normalize(spec, point), normalize(spec, line))


def _incident(spec: FieldSpec, point: Point, line: Line) -> bool:
    return _dot(spec.exp, spec.log, point, line) == 0


def line_through(spec: FieldSpec, p: Point, q: Point) -> Line:
    return _line_through(spec, normalize(spec, p), normalize(spec, q))


def _line_through(spec: FieldSpec, p: Point, q: Point) -> Line:
    if p == q:
        raise GeometryError("no unique line through a repeated point")
    return _normalize_fast(spec, *_cross(spec.exp, spec.log, p, q))


def meet(spec: FieldSpec, l1: Line, l2: Line) -> Point:
    return _meet(spec, normalize(spec, l1), normalize(spec, l2))


def _meet(spec: FieldSpec, l1: Line, l2: Line) -> Point:
    if l1 == l2:
        raise GeometryError("no unique meet of a repeated line")
    return _normalize_fast(spec, *_cross(spec.exp, spec.log, l1, l2))


def matrix_det(spec: FieldSpec, rows) -> int:
    return _matrix_det(spec, _read_matrix(spec, rows))


def _matrix_det(spec: FieldSpec, rows) -> int:
    exp, log = spec.exp, spec.log
    return _dot(exp, log, rows[0], _cross(exp, log, rows[1], rows[2]))


def collinear(spec: FieldSpec, p: Point, q: Point, r: Point) -> bool:
    return _collinear(spec, normalize(spec, p), normalize(spec, q), normalize(spec, r))


def _collinear(spec: FieldSpec, p: Point, q: Point, r: Point) -> bool:
    return _matrix_det(spec, (p, q, r)) == 0


def is_linear(spec: FieldSpec, points) -> bool:
    """True when the points all lie on one line."""
    return _is_linear(spec, _read_points(spec, points))


def _is_linear(spec: FieldSpec, points) -> bool:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return True
    line = _line_through(spec, pts[0], pts[1])
    return all(_incident(spec, p, line) for p in pts[2:])


def _collinear_triple(spec: FieldSpec, pts):
    """First collinear triple among pts, or None.  Quadratic sweep: two
    distinct points seen on the same line through a base point betray one."""
    for i, p in enumerate(pts):
        seen: dict[Line, Point] = {}
        for q in pts[i + 1 :]:
            line = _line_through(spec, p, q)
            if line in seen:
                return (p, seen[line], q)
            seen[line] = q
    return None


def all_points(spec: FieldSpec) -> list[Point]:
    """All q^2 + q + 1 points, affine first, then the line at infinity."""
    pts = [(a, b, 1) for a in spec.elements() for b in spec.elements()]
    pts += [(a, 1, 0) for a in spec.elements()]
    pts.append((1, 0, 0))
    return pts


def all_lines(spec: FieldSpec) -> list[Line]:
    return all_points(spec)  # same triples, read as line coordinates


def line_points(spec: FieldSpec, line: Line) -> list[Point]:
    """The q + 1 points of a line, normalized: (c + t m, t, 1), (t, y, 1)
    or (t, 1, 0) for t over the field, then the one point left."""
    return _line_points(spec, normalize(spec, line))


def _line_points(spec: FieldSpec, line: Line) -> list[Point]:
    exp, log = spec.exp, spec.log
    l1, l2, l3 = line
    if l1:
        # l1 x1 = l2 x2 + l3 x3, so x1 = c + t m on the point (x1, t, 1)
        s = spec.q - 1 - log[l1]
        c, m = exp[log[l3] + s], exp[log[l2] + s]
        lm = log[m]
        pts, last = [(c ^ exp[log[t] + lm], t, 1) for t in spec.elements()], (m, 1, 0)
    elif l2:
        y = exp[log[l3] + spec.q - 1 - log[l2]]
        pts, last = [(t, y, 1) for t in spec.elements()], (1, 0, 0)
    else:
        pts, last = [(t, 1, 0) for t in spec.elements()], (1, 0, 0)
    pts.append(last)
    return pts


# ---------------------------------------------------------------------------
# Projectivities


def _scale_matrix(spec: FieldSpec, rows) -> Matrix:
    """The projectivity's representative whose first nonzero entry
    (row-major) is 1; any nonzero multiple of rows gives the same one."""
    exp, log = spec.exp, spec.log
    lead = next((v for row in rows for v in row if v), 0)
    if lead == 0:
        raise GeometryError("zero matrix")
    s = spec.q - 1 - log[lead]
    return tuple(tuple(exp[log[v] + s] for v in row) for row in rows)


def matrix_make(spec: FieldSpec, rows) -> Matrix:
    rows = _read_matrix(spec, rows)
    if _matrix_det(spec, rows) == 0:
        raise GeometryError("singular matrix is not a projectivity")
    return _scale_matrix(spec, rows)


def apply_point(spec: FieldSpec, mat: Matrix, p: Point) -> Point:
    return _apply_point(spec, _read_matrix(spec, mat), normalize(spec, p))


def _apply_point(spec: FieldSpec, mat: Matrix, p: Point) -> Point:
    exp, log = spec.exp, spec.log
    return _normalize_fast(
        spec, _dot(exp, log, mat[0], p), _dot(exp, log, mat[1], p), _dot(exp, log, mat[2], p)
    )


def compose(spec: FieldSpec, f: Matrix, g: Matrix) -> Matrix:
    """The projectivity applying g first, then f (matrix product f @ g)."""
    return _compose(spec, _read_matrix(spec, f), _read_matrix(spec, g))


def _compose(spec: FieldSpec, f: Matrix, g: Matrix) -> Matrix:
    exp, log = spec.exp, spec.log
    columns = tuple(zip(*g))
    return _scale_matrix(
        spec, tuple(tuple(_dot(exp, log, row, col) for col in columns) for row in f)
    )


def inverse(spec: FieldSpec, mat: Matrix) -> Matrix:
    """The adjugate, which is the inverse up to the (dropped) factor det."""
    return _inverse(spec, _read_matrix(spec, mat))


def _inverse(spec: FieldSpec, mat: Matrix) -> Matrix:
    if _matrix_det(spec, mat) == 0:
        raise GeometryError("singular matrix")
    exp, log = spec.exp, spec.log
    r0, r1, r2 = mat
    columns = (_cross(exp, log, r1, r2), _cross(exp, log, r2, r0), _cross(exp, log, r0, r1))
    return _scale_matrix(spec, tuple(zip(*columns)))


def elation(spec: FieldSpec, a1: int, a2: int) -> Matrix:
    """Translation (X1 + a1*X3, X2 + a2*X3, X3): an elation fixing the line
    at infinity pointwise, with center in the direction (a1, a2)."""
    spec.check(a1, a2)
    return ((1, 0, a1), (0, 1, a2), (0, 0, 1))


def homology(spec: FieldSpec, lam: int, a1: int, a2: int) -> Matrix:
    """(X1, X2, X3) -> (lam*X1 + a1*X3, lam*X2 + a2*X3, X3).

    For lam not in {0, 1} this is a homology with axis the line at infinity
    and affine center (a1, a2, 1 + lam); lam = 1 degenerates to an elation.
    """
    spec.check(lam, a1, a2)
    if lam == 0:
        raise GeometryError("lam = 0 gives a singular map")
    return _scale_matrix(spec, ((lam, 0, a1), (0, lam, a2), (0, 0, 1)))


def center(spec: FieldSpec, mat: Matrix) -> Point:
    """Center of a central collineation with axis the line at infinity.

    Rejects matrices that do not fix the line at infinity pointwise, and
    the identity (every point is fixed, no center).
    """
    return _center(spec, _read_matrix(spec, mat))


def _center(spec: FieldSpec, mat: Matrix) -> Point:
    (a, b, c), (d, e, f), (g, h, i) = mat
    if not (b == 0 and d == 0 and g == 0 and h == 0 and a == e and i != 0):
        raise GeometryError("not a central collineation with axis X3 = 0")
    exp, log = spec.exp, spec.log
    s = spec.q - 1 - log[i]
    lam, a1, a2 = exp[log[a] + s], exp[log[c] + s], exp[log[f] + s]
    if lam == 1:
        if a1 == 0 and a2 == 0:
            raise GeometryError("identity has no center")
        return _normalize_fast(spec, a1, a2, 0)
    return _normalize_fast(spec, a1, a2, 1 ^ lam)


def _to_standard_frame(spec: FieldSpec, p1, p2, p3, p4) -> Matrix:
    """Rows of a matrix sending the frame p1, p2, p3, p4 to STANDARD_FRAME,
    up to scale; the four points must be in general position.

    Cramer's rule, without its common denominator, gives the columns
    c1*p1, c2*p2, c3*p3 of a map sending e1, e2, e3, e1 + e2 + e3 to the
    frame: c1 = det(p4, p2, p3) and so on.  Its adjugate, the inverse map,
    has rows c2*c3*(p2 x p3), c3*c1*(p3 x p1), c1*c2*(p1 x p2), here scaled
    by 1/(c1*c2*c3).  The standard frame's basis matrix then rewires those
    rows as (row2, row1, row0 + row1 + row2)."""
    exp, log = spec.exp, spec.log
    u = spec.q - 1
    x23 = _cross(exp, log, p2, p3)
    x31 = _cross(exp, log, p3, p1)
    x12 = _cross(exp, log, p1, p2)
    s1 = u - log[_dot(exp, log, p4, x23)]
    s2 = u - log[_dot(exp, log, p4, x31)]
    s3 = u - log[_dot(exp, log, p4, x12)]
    row0 = (exp[log[x23[0]] + s1], exp[log[x23[1]] + s1], exp[log[x23[2]] + s1])
    row1 = (exp[log[x31[0]] + s2], exp[log[x31[1]] + s2], exp[log[x31[2]] + s2])
    row2 = (exp[log[x12[0]] + s3], exp[log[x12[1]] + s3], exp[log[x12[2]] + s3])
    return (row2, row1, (row0[0] ^ row1[0] ^ row2[0], row0[1] ^ row1[1] ^ row2[1],
                         row0[2] ^ row1[2] ^ row2[2]))


def _read_frame(spec: FieldSpec, pts) -> tuple[Point, ...]:
    pts = tuple(_read_points(spec, pts))
    if len(pts) != 4:
        raise GeometryError("a frame has four points")
    if _collinear_triple(spec, pts) is not None:
        raise GeometryError("frame points are not in general position")
    return pts


def frame_map(spec: FieldSpec, sources, targets) -> Matrix:
    """The unique projectivity sending one 4-point frame to another, in order."""
    sources, targets = _read_frame(spec, sources), _read_frame(spec, targets)
    return _compose(
        spec,
        _inverse(spec, _to_standard_frame(spec, *targets)),
        _to_standard_frame(spec, *sources),
    )


def point_to_json(p: Point) -> list[str]:
    return [f"0x{v:x}" for v in p]


def line_to_json(l: Line) -> dict:
    return {"line": point_to_json(l)}


def point_from_json(spec: FieldSpec, obj) -> Point:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise GeometryError(f"malformed point: {obj!r}")
    vals = []
    for v in obj:
        # a base-16 string or an int; a float or bool is refused, not truncated
        if type(v) not in (str, int):
            raise GeometryError(f"malformed coordinate: {v!r}")
        try:
            vals.append(parse_hex(v) if isinstance(v, str) else v)
        except ValueError as exc:
            raise GeometryError(f"malformed coordinate: {v!r}") from exc
    return normalize(spec, tuple(vals))
