"""Dense exact matrices on int rows, with the one elimination routine,
kernels, inverses and solving."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .fields import QQ, Field, Scalar

Vector = tuple  # row of Scalars; kept as plain tuples throughout

_ZERO = QQ.zero()


class Matrix:
    """Immutable row-major matrix over QQ or GF(p), read from rows of
    scalars (`int_row`).  Row i is stored as an int row over one positive
    int denominator, ints[i] / dens[i], in lowest terms (the gcd of the
    entries and the denominator is 1), so equal matrices store equal rows;
    over GF(p) residues over 1.  Arithmetic, comparison and output run on
    these ints.  Over QQ the Fraction rows, `entries`, are a view built the
    first time something reads them; over GF(p) `entries` is `ints`."""

    __slots__ = ("field", "rows", "cols", "ints", "dens", "entries")

    def __new__(cls, field: Field, entries, cols: int | None = None):
        pairs = [int_row(field, row) for row in entries]
        width = len(pairs[0][0]) if pairs else cols or 0
        if cols not in (None, width) or any(len(row) != width for row, _ in pairs):
            raise ValueError("ragged rows, or rows of another width than cols")
        return cls._wrap(field, tuple([r for r, _ in pairs]), tuple([d for _, d in pairs]), width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getattr__(self, name):
        # Reached only for an unset slot: over QQ the Fraction view `entries`.
        if name != "entries":
            raise AttributeError(name)
        entries = tuple([_fractions(row, den) for row, den in zip(self.ints, self.dens)])
        _set_entries(self, entries)
        return entries

    @classmethod
    def _of(cls, field: Field, rows: tuple, cols: int) -> Matrix:
        """The matrix of a tuple of rows of field elements, over GF(p) as is."""
        if field.p is None:
            return cls(field, rows, cols)
        return cls._wrap(field, rows, (1,) * len(rows), cols)

    @classmethod
    def _wrap(cls, field: Field, ints: tuple, dens: tuple, cols: int) -> Matrix:
        """The matrix storing these int row tuples and dens as they are."""
        m = _new(cls)
        _set_field(m, field)
        _set_rows(m, len(ints))
        _set_cols(m, cols)
        _set_ints(m, ints)
        _set_dens(m, dens)
        if field.p is not None:
            _set_entries(m, ints)
        return m

    @classmethod
    def _ints(cls, field: Field, rows, dens, cols: int) -> Matrix:
        """The matrix with row i rows[i] / dens[i] in lowest terms, for int
        rows and positive dens; over GF(p) rows of residues, dens ignored."""
        if field.p is not None:
            return cls._wrap(field, tuple(map(tuple, rows)), (1,) * len(rows), cols)
        pairs = [_lowest(row, den) for row, den in zip(rows, dens)]
        return cls._wrap(field, tuple([r for r, _ in pairs]), tuple([d for _, d in pairs]), cols)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> Matrix:
        return cls._wrap(field, ((0,) * cols,) * rows, (1,) * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        ints = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._wrap(field, ints, (1,) * n, n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and (other.field, other.cols, other.ints, other.dens) == (
            self.field, self.cols, self.ints, self.dens
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self.ints, self.dens))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"

    def __add__(self, other: Matrix) -> Matrix:
        """Row by row over the lcm of the two rows' denominators."""
        self._check_peer(other, same_shape=True)
        rows, dens = [], []
        for ra, da, rb, db in zip(self.ints, self.dens, other.ints, other.dens):
            den = da if da == db else lcm(da, db)
            rows.append([a * (den // da) + b * (den // db) for a, b in zip(ra, rb)])
            dens.append(den)
        return Matrix._ints(self.field, _residues(self.field, rows), dens, self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return self.scale(-1)

    def __matmul__(self, other: Matrix) -> Matrix:
        """`integer_product` of the stored rows with other's over one scale."""
        self._check_peer(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        b_ints, scale = common_integer_rows(other)
        out = integer_product(self.field, self.ints, b_ints, other.cols)
        return Matrix._ints(self.field, out, [d * scale for d in self.dens], other.cols)

    def scale(self, c) -> Matrix:
        n, d = self.field.ratio(c)
        rows = _residues(self.field, [[n * a for a in row] for row in self.ints])
        return Matrix._ints(self.field, rows, [d * den for den in self.dens], self.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product as field elements: the `dots` of the rows
        with `int_row(v)`, row i over dens[i] times v's denominator."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        vi, vd = int_row(f, v)
        image = dots(self.ints, vi)
        if f.p is not None:
            return tuple([x % f.p for x in image])
        return tuple([Fraction(x, d * vd) if x else _ZERO for x, d in zip(image, self.dens)])

    def transpose(self) -> Matrix:
        """`common_integer_rows` transposed, each row over their scale."""
        ints, scale = common_integer_rows(self)
        rows = list(zip(*ints)) or [()] * self.cols
        return Matrix._ints(self.field, rows, [scale] * len(rows), self.rows)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return self.field.coerce(sum(self.entries[i][i] for i in range(self.rows)))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def vectorize(self) -> Vector:
        """Row-major flattening, used to treat operators as plain vectors."""
        return tuple(chain.from_iterable(self.entries))

    def to_nested(self) -> list:
        """JSON form: "n" or "n/d" strings over QQ, one gcd per entry of a
        row whose denominator is not 1; residues over GF(p)."""
        if self.field.p is not None:
            return [list(row) for row in self.ints]
        return [
            list(map(str, row)) if den == 1 else [_ratio_text(x, den) for x in row]
            for row, den in zip(self.ints, self.dens)
        ]

    def _check_peer(self, other: Matrix, same_shape: bool = False) -> None:
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")
        if same_shape and (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("shape mismatch")


# The slot setters, bound once: they write past the refusing __setattr__ at
# about half the cost of object.__setattr__ by name.
_set_field, _set_rows, _set_cols, _set_ints, _set_dens, _set_entries = (
    Matrix.__dict__[a].__set__ for a in Matrix.__slots__
)
_new = object.__new__


def _lowest(row, den: int) -> tuple[tuple, int]:
    """The int row over the positive den in lowest terms (a zero row over 1)."""
    g = gcd(den, *row)
    if g == 1:
        return tuple(row), den
    return tuple([x // g for x in row]), den // g


def _residues(field: Field, rows) -> list:
    """The int rows mod p over GF(p), as they are over QQ."""
    p = field.p
    return rows if p is None else [[x % p for x in row] for row in rows]


def _ratio_text(x: int, den: int) -> str:
    """x / den in JSON form, "n" or "n/d" in lowest terms, for den > 0."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _fractions(row, den: int) -> tuple:
    """The int row over the positive den as Fractions: `Matrix.entries`."""
    return tuple([Fraction(x, den) if x else _ZERO for x in row])


def int_row(field: Field, values) -> tuple[tuple, int]:
    """(ints, den) with values[j] = ints[j] / den in lowest terms, den > 0,
    for scalars (`Field.ratio`); over GF(p) the residues and 1.  The one
    reading of a row of scalars: the Matrix constructor, the decoder and
    every vector argument go through it."""
    ratio, p = field.ratio, field.p
    if p is not None:
        return tuple([x % p if type(x) is int else ratio(x)[0] for x in values]), 1
    pairs = [(x, 1) if type(x) is int else ratio(x) for x in values]
    den = lcm(*[d for _, d in pairs])
    return _lowest([n * (den // d) for n, d in pairs], den)


def dots(rows, v) -> list:
    """The dot product of each int row with the int row v, over v's nonzero
    entries: the int image of v under the rows."""
    nonzero = [(j, b) for j, b in enumerate(v) if b]
    return [sum([row[j] * b for j, b in nonzero]) for row in rows]


def integer_rows(m: Matrix):
    """The rows of m as ints, each a nonzero multiple of its row of m."""
    return m.ints


def common_integer_rows(m: Matrix) -> tuple[list, int]:
    """(ints, scale): the rows of m times one nonzero int scale, as ints,
    so that the ints are one multiple of m.  Over QQ the scale is the lcm of
    the rows' denominators; over GF(p) it is 1, the ints m's residues."""
    if m.field.p is not None:
        return m.ints, 1
    scale = lcm(*m.dens)
    return [[x * (scale // d) for x in row] for row, d in zip(m.ints, m.dens)], scale


def integer_vectorize(m: Matrix) -> tuple[list, int]:
    """(ints, scale): `Matrix.vectorize` of m as one int row over one
    positive int scale, with no Fraction built (`common_integer_rows`)."""
    ints, scale = common_integer_rows(m)
    return list(chain.from_iterable(ints)), scale


def sparse_product(field: Field, a_rows, b_sparse, cols: int) -> list:
    """The product of an int matrix with one given by the (column, int)
    pairs of each row's nonzero entries, over nonzero entries only, reduced
    mod p over GF(p)."""
    out = []
    for row in a_rows:
        acc = [0] * cols
        for a, other_row in zip(row, b_sparse):
            if a:
                for j, b in other_row:
                    acc[j] += a * b
        out.append(acc)
    p = field.p
    return out if p is None else [tuple([x % p for x in row]) for row in out]


def integer_product(field: Field, a_rows, b_rows, cols: int) -> list:
    """The product of two int matrices with cols columns, reduced mod p over
    GF(p).  Scaling a row of a scales that row of the product, and scaling
    all of b scales all of it, so `integer_rows(A)` times
    `common_integer_rows(B)` is A @ B up to a nonzero multiple per row, with
    no Fraction built."""
    b_sparse = [[(j, b) for j, b in enumerate(row) if b] for row in b_rows]
    return sparse_product(field, a_rows, b_sparse, cols)


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


def echelon(field: Field, rows, ncols: int) -> tuple[list, list[int]]:
    """The one elimination: (rows, pivots) of int rows reduced to echelon
    form with every pivot column cleared, zero rows dropped.  Row i of the
    result is a nonzero multiple of row i of the unique RREF, with leading
    entry rows[i][pivots[i]].

    The rows may be any nonzero int multiples of a matrix's rows.  Over QQ
    each is divided by the gcd of its entries on entry, rows are combined
    fraction-free as p*x - a*y and divided by their gcd again, and each
    result row is signed so that its leading entry is positive: a
    primitive row, the canonical row times the lcm of its denominators.
    Over GF(p) the rows are reduced mod p on entry, so a row that is 0 mod
    p is dropped; the pivot row is scaled by the pivot's inverse, so that
    its leading entry is 1, and the other rows are combined as
    (x - a*y) % p.  Every step rescales a row by a nonzero scalar or adds a
    multiple of one row to another, so the row space never changes.
    """
    p = field.p
    if p is None:
        rows = [_primitive(row) for row in rows if any(row)]
    else:
        rows = [row for row in ([x % p for x in row] for row in rows) if any(row)]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if p is None:
            lead = prow[c]
            for i in range(nrows):
                row = rows[i]
                a = row[c]
                if a and i != r:
                    new = [lead * x - a * y for x, y in zip(row, prow)]
                    g = gcd(*new)
                    rows[i] = [x // g for x in new] if g > 1 else new
        else:
            if prow[c] != 1:
                inv = pow(prow[c], -1, p)
                prow = rows[r] = [x * inv % p for x in prow]
            for i in range(nrows):
                row = rows[i]
                a = row[c]
                if a and i != r:
                    rows[i] = [(x - a * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    if p is None:
        return [row if row[c] > 0 else [-x for x in row] for row, c in zip(rows, pivots)], pivots
    return rows[:r], pivots


def _primitive(row) -> list:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def leads(rows) -> list:
    """The leading entry of each nonzero int row: for the rows of `echelon`
    or `integer_kernel`, positive over QQ and 1 over GF(p), the
    denominators that make them their canonical rows."""
    return [next(filter(None, row)) for row in rows]


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form (unique: leading ones, pivot columns cleared).

    `echelon` on the stored rows, each reduced row over its pivot
    (`leads`); zero rows pad the result to m's shape.
    """
    f = m.field
    rows, pivots = echelon(f, m.ints, m.cols)
    pad = m.rows - len(rows)
    dens = leads(rows) + [1] * pad
    rows += [(0,) * m.cols] * pad
    return RrefResult(Matrix._ints(f, rows, dens, m.cols), tuple(pivots), len(pivots))


def integer_kernel(field: Field, rows, ncols: int) -> list:
    """A basis of {v : m v = 0} for the int matrix m with these rows, as int
    rows: row i is a positive multiple of row i of `kernel_basis`, and over
    GF(p) equal to it.

    One `echelon`, of m with its columns reversed.  There the kernel vector
    of a free column f has a 1 at f, -R[i][f] / R[i][pc] at each pivot pc
    left of f and zeros at every other free column; times the lcm L of those
    pivots it is an int row, with L at f.  Reversed back, L is its leading
    entry and the free columns are unit columns, so the vectors, from the
    last free column of the reversed matrix to the first, are multiples of
    the rows of the unique RREF of the kernel.
    """
    p = field.p
    red, pivots = echelon(field, [row[::-1] for row in rows], ncols)
    pivot_set = set(pivots)
    vectors = []
    for fc in reversed(range(ncols)):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        terms = []
        for row, pc in zip(red, pivots):
            if pc > fc:
                break
            if row[fc]:
                terms.append((row[fc], row[pc], pc))
        if p is None:
            scale = lcm(*[d for _, d, _ in terms])
            v[fc] = scale
            for x, d, pc in terms:
                v[pc] = -x * (scale // d)
        else:
            v[fc] = 1
            for x, _, pc in terms:
                v[pc] = p - x
        vectors.append(v[::-1])
    return vectors


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of {v : m v = 0} as rows, in canonical reduced echelon form:
    `integer_kernel` of the stored rows, each over its leading entry."""
    f = m.field
    rows = integer_kernel(f, m.ints, m.cols)
    return Matrix._ints(f, rows, leads(rows), m.cols)


def solve(m: Matrix, b: Vector):
    """One solution of m x = b with free variables set to zero, or None:
    `echelon` of the int rows of [m | b], where x at each pivot is the
    last entry of its row over the pivot."""
    f, n = m.field, m.cols
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    # row i of [m | b] is ints[i] / dens[i] | bs[i] / c: times c dens[i]
    bs, c = int_row(f, b)
    aug = [[c * x for x in row] + [bv * d] for row, bv, d in zip(m.ints, bs, m.dens)]
    rows, pivots = echelon(f, aug, n + 1)
    if n in pivots:
        return None
    x = [f.zero()] * n
    for row, pc in zip(rows, pivots):
        if row[n]:
            # over GF(p) echelon leaves every pivot at 1 already
            x[pc] = Fraction(row[n], row[pc]) if f.p is None else row[n]
    return tuple(x)


def try_invert(m: Matrix):
    """Two-sided inverse of a square matrix, or None if singular: the
    `integer_inverse` of the int rows of [m | I], each row cut to its right
    half over its left pivot (`leads`)."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    f, n = m.field, m.rows
    # row i of [m | I] times dens[i]
    aug = [[*row, *(d * (i == j) for j in range(n))] for i, (row, d) in enumerate(zip(m.ints, m.dens))]
    red = integer_inverse(f, aug)
    if red is None:
        return None
    return Matrix._ints(f, [row[n:] for row in red], leads(red), n)


def integer_inverse(field: Field, rows):
    """The `echelon` of the int rows of [m | I] for a square m, each row a
    nonzero multiple of its own, or None if m is singular.  Its row i is
    [c e_i | c times row i of m^-1] for a nonzero c (over GF(p), c = 1)."""
    red, pivots = echelon(field, rows, 2 * len(rows))
    return red if pivots == list(range(len(rows))) else None


def dot(field: Field, u: Vector, v: Vector) -> Scalar:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = field.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def coerce_vector(field: Field, values) -> Vector:
    return tuple(field.coerce(x) for x in values)


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


def outer(field: Field, x: Vector, phi: Vector) -> Matrix:
    """The operator v -> phi(v) x, as the matrix with entries x[i]*phi[j]:
    for x = X / a and phi = F / b (`int_row`), row i is X[i] F over a b."""
    xs, a = int_row(field, x)
    fs, b = int_row(field, phi)
    rows = _residues(field, [[xi * y for y in fs] for xi in xs])
    return Matrix._ints(field, rows, [a * b] * len(xs), len(fs))
