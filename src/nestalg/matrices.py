"""Dense exact matrices with reduced row echelon form, kernels, and solving."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .fields import Field, Scalar

Vector = tuple  # row of Scalars; kept as plain tuples throughout


class Matrix:
    """Immutable row-major matrix over QQ or GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count contradicts the rows")
            cols = width
        elif cols is None:
            cols = 0
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
        _set_field(self, field)
        _set_rows(self, len(rows))
        _set_cols(self, cols)
        _set_entries(self, rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, field: Field, rows: tuple, cols: int) -> Matrix:
        """Wrap a tuple of equal-length tuples of field elements as is, without
        the per-entry coercion of the public constructor."""
        m = object.__new__(cls)
        _set_field(m, field)
        _set_rows(m, len(rows))
        _set_cols(m, cols)
        _set_entries(m, rows)
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> Matrix:
        z = field.zero()
        return cls(field, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        z, o = field.zero(), field.one()
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"

    def __add__(self, other: Matrix) -> Matrix:
        self._check_peer(other, same_shape=True)
        add = self.field.add
        return Matrix._of(
            self.field,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        neg = self.field.neg
        entries = tuple(tuple(neg(a) for a in row) for row in self.entries)
        return Matrix._of(self.field, entries, self.cols)

    def __matmul__(self, other: Matrix) -> Matrix:
        self._check_peer(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        cols = other.cols
        if f.is_rationals:
            return Matrix._of(f, _matmul_rational(self.entries, other.entries, cols), cols)
        p = f.p
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * cols
            for a, other_row in zip(row, sparse):
                if a:
                    for j, b in other_row:
                        acc[j] += a * b
            out.append(tuple([x % p for x in acc]))
        return Matrix._of(f, tuple(out), cols)

    def scale(self, c) -> Matrix:
        c = self.field.coerce(c)
        mul = self.field.mul
        entries = tuple(tuple(mul(c, a) for a in row) for row in self.entries)
        return Matrix._of(self.field, entries, self.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product; v has length self.cols.

        Sums raw products per row, reduced once mod p over GF(p).  Over QQ
        the nonzero entries of v are found once, not once per row.
        """
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        if p is None:
            zero = self.field.zero()
            nonzero = [(j, b) for j, b in enumerate(v) if b]
            return tuple(
                sum([row[j] * b for j, b in nonzero if row[j]], zero) for row in self.entries
            )
        return tuple([sum([a * b for a, b in zip(row, v)]) % p for row in self.entries])

    def transpose(self) -> Matrix:
        """Wrapped as is, the entries being field elements already; rows @
        m.transpose() holds the dot products of each row with each row of m."""
        return Matrix._of(self.field, tuple(zip(*self.entries)) or ((),) * self.cols, self.rows)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = self.field.add(acc, self.entries[i][i])
        return acc

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def vectorize(self) -> Vector:
        """Row-major flattening, used to treat operators as plain vectors."""
        return tuple(chain.from_iterable(self.entries))

    def to_nested(self) -> list:
        fmt = self.field.format_scalar
        return [[fmt(x) for x in row] for row in self.entries]

    def _check_peer(self, other: Matrix, same_shape: bool = False) -> None:
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")
        if same_shape and (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("shape mismatch")


# The slot setters, bound once: they write past the refusing __setattr__ at
# about half the cost of object.__setattr__ by name.
_set_field, _set_rows, _set_cols, _set_entries = (
    Matrix.__dict__[a].__set__ for a in Matrix.__slots__
)


def _matmul_rational(a_rows, b_rows, cols: int) -> tuple:
    """Product of Fraction rows on integers, over nonzero entries only.

    B is scaled by the lcm of all its denominators and each row of A by the
    lcm of its own, so every entry of the product is one integer sum
    divided once at the end.
    """
    b_nonzero = [[(j, x.as_integer_ratio()) for j, x in enumerate(row) if x] for row in b_rows]
    den_b = lcm(*[d for row in b_nonzero for _, (_, d) in row])
    b_ints = [[(j, n * (den_b // d)) for j, (n, d) in row] for row in b_nonzero]
    zero = Fraction(0)
    out = []
    for row in a_rows:
        nonzero = [(k, x.as_integer_ratio()) for k, x in enumerate(row) if x]
        den_a = lcm(*[d for _, (_, d) in nonzero])
        acc = [0] * cols
        for k, (n, d) in nonzero:
            a = n * (den_a // d)
            for j, b in b_ints[k]:
                acc[j] += a * b
        den = den_a * den_b
        if den == 1:
            out.append(tuple(Fraction(x) if x else zero for x in acc))
        else:
            out.append(tuple(Fraction(x, den) if x else zero for x in acc))
    return tuple(out)


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form (unique: leading ones, pivot columns cleared).

    Both back ends run on plain ints.  Over QQ each row is scaled by the lcm
    of its denominators, rows are combined fraction-free and divided by the
    gcd of their entries, and each pivot row is divided by its pivot only at
    the end.  Over GF(p) the pivot row is scaled by the pivot's inverse mod
    p and every other row is combined as (x - a*y) % p.  Every step rescales
    a row by a nonzero scalar or adds a multiple of one row to another, so
    the row space never changes, and the RREF of a row space is unique.
    """
    if m.field.is_rationals:
        return _rref_rational(m)
    return _rref_mod_p(m)


def _rref_rational(m: Matrix) -> RrefResult:
    """The QQ back end of rref, on integer rows."""
    nrows, ncols = m.rows, m.cols
    rows = []
    for row in m.entries:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*[d for _, d in ratios])
        ints = [n * (den // d) for n, d in ratios] if den > 1 else [n for n, _ in ratios]
        g = gcd(*ints)
        rows.append([x // g for x in ints] if g > 1 else ints)
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
        p = prow[c]
        for i in range(nrows):
            row = rows[i]
            a = row[c]
            if a and i != r:
                new = [p * x - a * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    out = []
    for row, pc in zip(rows, pivots):
        p = row[pc]
        if p == 1:
            out.append(tuple(Fraction(x) if x else zero for x in row))
        else:
            out.append(tuple(Fraction(x, p) if x else zero for x in row))
    out.extend((zero,) * ncols for _ in range(nrows - r))
    return RrefResult(Matrix._of(m.field, tuple(out), ncols), tuple(pivots), r)


def _rref_mod_p(m: Matrix) -> RrefResult:
    """The GF(p) back end of rref, on int rows with entries in [0, p)."""
    p = m.field.p
    nrows, ncols = m.rows, m.cols
    rows = [list(row) for row in m.entries]
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
    return RrefResult(Matrix._of(m.field, tuple(map(tuple, rows)), ncols), tuple(pivots), r)


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of {v : m v = 0} as rows, in canonical reduced echelon form.

    One rref, of m with its columns reversed.  There the kernel vector of a
    free column f has a 1 at f, -R[i][f] at the pivots left of f and zeros
    at every other free column.  Reversed back, that 1 is its leading entry
    and the free columns are unit columns, so the vectors, from the last
    free column of the reversed matrix to the first, are already the unique
    RREF of the kernel.
    """
    f, n = m.field, m.cols
    red = rref(Matrix._of(f, tuple(row[::-1] for row in m.entries), n))
    pivots, rows = red.pivots, red.matrix.entries
    zero, one, neg = f.zero(), f.one(), f.neg
    vectors = []
    for fc in reversed(range(n)):
        if fc in pivots:
            continue
        v = [zero] * n
        v[fc] = one
        for i, pc in enumerate(pivots):
            if pc > fc:
                break
            v[pc] = neg(rows[i][fc])
        vectors.append(tuple(v[::-1]))
    return Matrix._of(f, tuple(vectors), n)


def solve(m: Matrix, b: Vector):
    """One solution of m x = b with free variables set to zero, or None."""
    f = m.field
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    b = tuple(f.coerce(x) for x in b)
    aug = Matrix._of(f, tuple(row + (bv,) for row, bv in zip(m.entries, b)), m.cols + 1)
    red = rref(aug)
    if m.cols in red.pivots:
        return None
    x = [f.zero()] * m.cols
    for i, pc in enumerate(red.pivots):
        x[pc] = red.matrix.entries[i][m.cols]
    return tuple(x)


def try_invert(m: Matrix):
    """Two-sided inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    ident = Matrix.identity(m.field, n)
    aug = Matrix._of(
        m.field, tuple(row + irow for row, irow in zip(m.entries, ident.entries)), 2 * n
    )
    red = rref(aug)
    if red.pivots[:n] != tuple(range(n)) or red.rank != n:
        return None
    return Matrix._of(m.field, tuple(row[n:] for row in red.matrix.entries), n)


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
    """The operator v -> phi(v) x, as the matrix with entries x[i]*phi[j]."""
    mul = field.mul
    return Matrix(field, tuple(tuple(mul(xi, pj) for pj in phi) for xi in x))
