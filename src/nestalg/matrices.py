"""Dense exact matrices with reduced row echelon form, kernels, and solving."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .fields import QQ, Field, Scalar

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
        return cls._of(field, ((field.zero(),) * cols,) * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        z, o = field.zero(), field.one()
        return cls._of(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n)

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
        if f.p is not None:
            return Matrix._of(f, tuple(integer_product(f, self.entries, other.entries, cols)), cols)
        # A scaled per row times B scaled as a whole, each row divided once
        a_ints, a_dens = _scaled(self.entries)
        b_ints, den_b = common_integer_rows(other)
        out = integer_product(f, a_ints, b_ints, cols)
        rows = tuple([fraction_row(row, d * den_b) for row, d in zip(out, a_dens)])
        return Matrix._of(f, rows, cols)

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


def _scaled(rows) -> tuple[list, list[int]]:
    """(ints, dens): each Fraction row times the lcm of its own denominators,
    as ints, and that lcm; row i is ints[i] / dens[i]."""
    ints, dens = [], []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*[d for _, d in ratios])
        ints.append([n * (den // d) for n, d in ratios] if den > 1 else [n for n, _ in ratios])
        dens.append(den)
    return ints, dens


def integer_rows(m: Matrix):
    """The rows of m as ints, each a nonzero multiple of its row of m: over
    QQ scaled by the lcm of its own denominators, over GF(p) m's residues as
    they are."""
    return m.entries if m.field.p is not None else _scaled(m.entries)[0]


def common_integer_rows(m: Matrix) -> tuple[list, int]:
    """(ints, scale): the rows of m times one nonzero int scale, as ints,
    so that the ints are one multiple of m.  Over QQ the scale is the lcm of
    all of m's denominators; over GF(p) it is 1, the ints m's residues."""
    if m.field.p is not None:
        return m.entries, 1
    ints, dens = _scaled(m.entries)
    den = lcm(*dens)
    return [row if d == den else [x * (den // d) for x in row] for row, d in zip(ints, dens)], den


def integer_vector(field: Field, v: Vector) -> tuple[list, int]:
    """(ints, den): the vector v of field elements times one nonzero int den,
    as ints, the one-row case of `common_integer_rows`.  Over QQ den is the
    lcm of v's denominators; over GF(p) it is 1, the ints v's residues."""
    if field.p is not None:
        return v, 1
    [ints], [den] = _scaled((v,))
    return ints, den


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


def fraction_row(row, den: int) -> tuple:
    """The int row divided by the nonzero int den, as Fractions, every zero
    the one shared zero of QQ."""
    zero = QQ.zero()
    if den == 1:
        return tuple([Fraction(x) if x else zero for x in row])
    return tuple([Fraction(x, den) if x else zero for x in row])


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


def canonical_rows(field: Field, rows) -> tuple:
    """Nonzero int rows, each divided by its leading entry, as tuples of
    field elements: the one place where an elimination builds Fractions.
    Over GF(p) the rows are those of `echelon` or `integer_kernel`, whose
    leading entries are 1 already, and are kept as they are."""
    if field.p is not None:
        return tuple(map(tuple, rows))
    return tuple([fraction_row(row, next(filter(None, row))) for row in rows])


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form (unique: leading ones, pivot columns cleared).

    `echelon` on `integer_rows(m)`, each reduced row then divided by its
    pivot (`canonical_rows`); zero rows pad the result to m's shape.
    """
    f = m.field
    rows, pivots = echelon(f, integer_rows(m), m.cols)
    out = canonical_rows(f, rows)
    if len(rows) < m.rows:
        out += ((f.zero(),) * m.cols,) * (m.rows - len(rows))
    return RrefResult(Matrix._of(f, out, m.cols), tuple(pivots), len(pivots))


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
    `integer_kernel` of `integer_rows(m)`, each row divided by its leading
    entry."""
    f = m.field
    return Matrix._of(f, canonical_rows(f, integer_kernel(f, integer_rows(m), m.cols)), m.cols)


def solve(m: Matrix, b: Vector):
    """One solution of m x = b with free variables set to zero, or None:
    `echelon` of the int rows of [m | b], where x at each pivot is the
    last entry of its row over the pivot."""
    f, n = m.field, m.cols
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    b = tuple(f.coerce(x) for x in b)
    aug = Matrix._of(f, tuple(row + (bv,) for row, bv in zip(m.entries, b)), n + 1)
    rows, pivots = echelon(f, integer_rows(aug), n + 1)
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
    `integer_inverse` of the int rows of [m | I], each row divided by its
    left pivot (`canonical_rows`) and cut to its right half."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    f, n = m.field, m.rows
    aug = tuple(row + irow for row, irow in zip(m.entries, Matrix.identity(f, n).entries))
    red = integer_inverse(f, integer_rows(Matrix._of(f, aug, 2 * n)))
    if red is None:
        return None
    return Matrix._of(f, tuple(row[n:] for row in canonical_rows(f, red)), n)


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
    """The operator v -> phi(v) x, as the matrix with entries x[i]*phi[j]."""
    mul = field.mul
    return Matrix._of(field, tuple(tuple(mul(xi, pj) for pj in phi) for xi in x), len(phi))
