"""Operators leaving every member of a nest invariant: bases, rank-one
calculus, idempotent and rank decompositions, and reflexivity checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm
from operator import or_

from .fields import Field
from .matrices import (
    Matrix,
    Vector,
    coerce_vector,
    common_integer_rows,
    dots,
    echelon,
    integer_kernel,
    integer_product,
    integer_vectorize,
    is_zero_vector,
    leads,
    outer,
)
from .nests import Nest
from .subspaces import (
    Functional,
    Subspace,
    _from_int_rows,
    enumerate_subspaces,
    row_image_tables,
    separating_functional,
    span_of,
)

FULL = "full"
STRICT = "strict"
RADICAL = "radical"


@dataclass(frozen=True)
class AlgebraBasis:
    """A canonical basis of a space of operators attached to a nest.

    A basis the library builds (`_emit`) holds only its `scaled` ints; its
    operators, `basis`, are built from them the first time it is read."""

    nest: Nest
    kind: str
    basis: tuple[Matrix, ...]

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: the `basis` of an
        # emitted basis, the `scaled` rows over the scale.
        if name != "basis" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        ints, scale = self.scaled
        n = self.nest.ambient_dim
        basis = self.__dict__["basis"] = _operators(self.nest.field, ints, [scale] * len(ints), (n, n))
        return basis

    @property
    def dim(self) -> int:
        """The row count of `scaled`, read with no Fraction built."""
        return len(self.scaled[0])

    @cached_property
    def vectorized(self) -> Matrix:
        """The vectorized basis operators (`integer_vectorize`) as the rows
        of one matrix, in basis order, built on first use."""
        rows, dens = zip(*map(integer_vectorize, self.basis)) if self.basis else ((), ())
        return Matrix._ints(self.nest.field, rows, dens, self.nest.ambient_dim ** 2)

    @cached_property
    def scaled(self) -> tuple[list, int]:
        """(ints, scale): `vectorized` times one nonzero int scale, as ints
        (over GF(p) the residues, scale 1).  Carried by the bases the library
        builds (`_emit`); any other basis derives them from its `vectorized`."""
        return common_integer_rows(self.vectorized)

    @cached_property
    def span(self) -> Subspace:
        """The span in F^(n^2) of the basis, built on first use by one
        `echelon` of the `scaled` ints, so membership holds for any basis."""
        f, size = self.nest.field, self.nest.ambient_dim ** 2
        return _from_int_rows(f, size, *echelon(f, self.scaled[0], size))

    def contains(self, t: Matrix) -> bool:
        """Is t in the span (`Subspace.contains_ints` of its
        `integer_vectorize`)?"""
        _check_operator(self.nest, t)
        return self.span.contains_ints(integer_vectorize(t)[0])


def _emit(nest: Nest, kind: str, ints) -> AlgebraBasis:
    """The basis whose rows are the int rows ints, each divided by its
    leading entry, holding only `scaled`: over QQ each row times L / lead for
    the lcm L of the leads, the scale; over GF(p) ints themselves, which
    must be canonical residue rows (leading entry 1), as `echelon` and
    `integer_kernel` give them.  The dataclass __init__ is bypassed, so
    that `basis` stays unset until it is read."""
    rows, scale = ints, 1
    if nest.field.p is None:
        lead = leads(ints)
        scale = lcm(*lead)
        rows = [r if a == scale else [x * (scale // a) for x in r] for r, a in zip(ints, lead)]
    basis = object.__new__(AlgebraBasis)
    basis.__dict__.update(nest=nest, kind=kind, scaled=(rows, scale))
    return basis


class MembershipError(ValueError):
    """An operator fails a membership precondition; carries the chain member
    whose basis vector it moves out of bounds, that vector and the field."""

    def __init__(self, kind: str, member: Subspace, vector: Vector):
        self.member = member
        self.vector = vector
        self.field = member.field
        moved = ", ".join(map(str, vector))
        space = "algebra" if kind == FULL else "strict ideal"
        super().__init__(
            f"operator is not in the {space}: it moves the basis vector "
            f"({moved}) of the chain member of dimension {member.dim} out of bounds"
        )


def _forbidden(kind: str, row_block: int, col_block: int) -> bool:
    """Must entry (r, c) of S^-1 T S vanish, given block[r] and block[c]
    (`Nest.frame`)?  T leaves every member invariant (FULL) iff it vanishes
    where block[r] > block[c], and maps every nonzero member into its
    predecessor (STRICT) iff it vanishes where block[r] >= block[c]."""
    return row_block > col_block if kind == FULL else row_block >= col_block


def _constraint_kernel(nest: Nest, kind: str) -> AlgebraBasis:
    """The canonical basis of the operators T of the kind: S^-1 T S is zero
    at every `_forbidden` entry (r, c), for S of `Nest.frame`.  Each kind
    solves the smaller of its two systems, both of sum_(i<j) a_i a_j rows.
    FULL: the kernel of one int row per forbidden entry (block[r] >
    block[c]) on the n^2 entries of T, row-major: a_i * v_j against T_ij,
    for row a of S^-1 and column v of S, a nonzero multiple of the entry's.
    STRICT: one `echelon` of the generators S E_rc S^-1 at the other entries
    (block[r] < block[c]): v_i * a_j for column v = r of S and row a = c of
    S^-1.  The entries are independent coordinates of T, so the rows of
    either system are as many as their rank."""
    f, n = nest.field, nest.ambient_dim
    columns, inv_rows, block = nest.frame
    pairs = [(r, c) for r in range(n) for c in range(n)]
    if kind == FULL:
        rows = [[a * v for a in inv_rows[r] for v in columns[c]]
                for r, c in pairs if _forbidden(kind, block[r], block[c])]
        return _emit(nest, kind, integer_kernel(f, rows, n * n))
    gens = [[v * a for v in columns[r] for a in inv_rows[c]]
            for r, c in pairs if not _forbidden(kind, block[r], block[c])]
    return _emit(nest, kind, echelon(f, gens, n * n)[0])


def _conjugates(nest: Nest, ints) -> list[tuple]:
    """The entries of S^-1 t S for each operator t, S of `Nest.frame`, up to
    a diagonal scaling D_r (S^-1 t S) D_c with nonzero D_r, D_c, as ints.
    Each row of ints is a vectorized t times a nonzero int: `scaled` of a
    basis, or `integer_vectorize` of one operator.  Two integer products: the
    ops stacked @ S, then S^-1 @ those side by side."""
    f, n = nest.field, nest.ambient_dim
    columns, inv_rows, _ = nest.frame
    stacked = [v[i : i + n] for v in ints for i in range(0, n * n, n)]
    right = integer_product(f, stacked, list(zip(*columns)), n)
    side_by_side = [list(itertools.chain(*right[r::n])) for r in range(n)]
    rows = integer_product(f, inv_rows, side_by_side, len(ints) * n)
    return [tuple(row[k * n : k * n + n] for row in rows) for k in range(len(ints))]


def _first_violation(nest: Nest, kind: str, conjugates) -> int | None:
    """None if every S^-1 t S of conjugates (`_conjugates`) vanishes at every
    `_forbidden` entry, else the least block[c] = k over the nonzero
    forbidden entries (r, c): member k + 1 is the first that a t moves out
    of bounds, out of itself (FULL) or of its predecessor (STRICT)."""
    block = nest.frame[2]
    nonzero = ((r, c) for t in conjugates for r, row in enumerate(t) for c, x in enumerate(row) if x)
    return min((block[c] for r, c in nonzero if _forbidden(kind, block[r], block[c])), default=None)


def _operators(field: Field, rows, dens, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """The operators of the given shape whose row-major entries are the int
    rows over the positive dens (over GF(p) residues), the inverse of
    `integer_vectorize`."""
    r, c = shape
    return tuple(
        Matrix._ints(field, [v[i * c : i * c + c] for i in range(r)], [den] * r, c)
        for v, den in zip(rows, dens)
    )


def alg_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of the algebra of all operators preserving the chain."""
    return _constraint_kernel(nest, FULL)


def _conjugate(nest: Nest, t: Matrix) -> list[tuple]:
    """`_conjugates` of the one operator t, checked against the nest."""
    _check_operator(nest, t)
    return _conjugates(nest, [integer_vectorize(t)[0]])


def _violation(nest: Nest, t: Matrix, kind: str, conjugate=None):
    """None if t lies in the algebra (FULL) or the strict ideal (STRICT),
    else (member, basis vector of it that t moves out of bounds) for the
    first member whose constraint t breaks (`_first_violation`, on t's
    `_conjugate`, passed by a caller that holds it)."""
    if conjugate is None:
        conjugate = _conjugate(nest, t)
    k = _first_violation(nest, kind, conjugate)
    return None if k is None else (nest.chain[k + 1], _moved_vector(nest, t, kind, k))


def _moved_vector(nest: Nest, t: Matrix, kind: str, k: int) -> Vector:
    """The first basis row v of member k + 1 with t v outside that member
    (FULL) or outside member k (STRICT), tested on the int image of its
    `int_rows` under t over one scale."""
    source = nest.chain[k + 1]
    target = source if kind == FULL else nest.chain[k]
    ts = common_integer_rows(t)[0]
    i = next(i for i, v in enumerate(source.int_rows) if not target.contains_ints(dots(ts, v)))
    return source.basis.entries[i]


def in_alg_witness(nest: Nest, t: Matrix):
    """None if t preserves every member, else (member, vector) violating it."""
    return _violation(nest, t, FULL)


def in_alg(nest: Nest, t: Matrix) -> bool:
    return in_alg_witness(nest, t) is None


def _require_member(nest: Nest, t: Matrix, kind: str = FULL, conjugate=None) -> None:
    """Raise MembershipError unless t lies in the algebra (or the strict
    ideal); `conjugate` as for `_violation`."""
    witness = _violation(nest, t, kind, conjugate)
    if witness is not None:
        raise MembershipError(kind, *witness)


def _check_operator(nest: Nest, t: Matrix) -> None:
    if t.field != nest.field:
        raise ValueError("operator field mismatch")
    if (t.rows, t.cols) != (nest.ambient_dim, nest.ambient_dim):
        raise ValueError("operator must be square of the ambient dimension")


@dataclass(frozen=True)
class RankOneOp:
    """The operator v -> phi(v) x for nonzero x and phi.

    Slotted by its own __slots__ rather than slots=True, which replaces the
    class: the frozen __setattr__ then refers to the replaced class and
    raises TypeError, not FrozenInstanceError, for a name that is not a
    field."""

    __slots__ = ("x", "phi", "matrix")
    x: Vector
    phi: Functional
    matrix: Matrix

    @property
    def is_idempotent(self) -> bool:
        return self.phi(self.x) == self.matrix.field.one()


# The slot setters of RankOneOp, bound once, as for Matrix: the many
# rank-ones of `all_rank_ones_in_alg` skip the frozen __init__.
_set_x, _set_phi, _set_matrix = (RankOneOp.__dict__[a].__set__ for a in RankOneOp.__slots__)


def _rank_one_op(x: Vector, phi: Functional, matrix: Matrix) -> RankOneOp:
    r = object.__new__(RankOneOp)
    _set_x(r, x)
    _set_phi(r, phi)
    _set_matrix(r, matrix)
    return r


def rank_one(x, phi: Functional) -> RankOneOp:
    f = phi.field
    x = coerce_vector(f, x)
    if len(x) != phi.ambient_dim:
        raise ValueError("vector and functional sizes differ")
    if is_zero_vector(x) or phi.is_zero():
        raise ValueError("rank-one factors must be nonzero")
    return RankOneOp(x, phi, outer(f, x, phi.coeffs))


def rank_one_in_alg(nest: Nest, r: RankOneOp) -> bool:
    """Membership test for a rank-one operator: `in_alg` of its matrix,
    which holds iff phi kills the predecessor of x's principal member."""
    if r.matrix.field != nest.field or r.phi.ambient_dim != nest.ambient_dim:
        raise ValueError("rank-one operator does not match the nest")
    return in_alg(nest, r.matrix)


def transporter(nest: Nest, x, y) -> RankOneOp:
    """A rank-one member R of the algebra with R x = y.

    Exists whenever y lies in the principal member of x (both nonzero):
    R = y (x) phi with phi(x) = 1 and phi vanishing on the predecessor of
    y's principal member.
    """
    f = nest.field
    x = coerce_vector(f, x)
    y = coerce_vector(f, y)
    if is_zero_vector(x) or is_zero_vector(y):
        raise ValueError("transporter needs nonzero vectors")
    if not nest.principal(x).contains(y):
        raise ValueError("y lies outside the principal member of x")
    phi = separating_functional(x, nest.principal_pred(y))
    return rank_one(y, phi)


def idempotent_onto(nest: Nest, m: Subspace) -> tuple[Matrix, list[RankOneOp]]:
    """An idempotent P in the algebra with range m, split into rank-one parts.

    The RREF basis rows y_k of m are taken from the last to the first.  P,
    so far an idempotent onto the span `rest` of the rows after y_k, gains
    the rank-one (y_k - P y_k) (x) phi where phi kills both the principal
    predecessor and rest.  The parts multiply to zero pairwise and sum to P.
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m.dim == 0:
        raise ValueError("no idempotent with zero range")
    f, n = nest.field, nest.ambient_dim
    rows = m.basis.entries
    p = Matrix.zeros(f, n, n)
    parts = []
    for k in reversed(range(m.dim)):
        rest = _from_int_rows(f, n, m.int_rows[k + 1 :], m.pivots[k + 1 :])
        x = tuple(f.sub(a, b) for a, b in zip(rows[k], p.apply(rows[k])))
        part = rank_one(x, separating_functional(x, nest.principal_pred(x).join(rest)))
        p = p + part.matrix
        parts.append(part)
    return p, parts


def range_of(t: Matrix) -> Subspace:
    """Column space of t: one `echelon` of the columns of t's rows over one
    scale (`common_integer_rows`)."""
    f = t.field
    return _from_int_rows(f, t.rows, *echelon(f, list(zip(*common_integer_rows(t)[0])), t.rows))


def rank_decompose(nest: Nest, t: Matrix) -> list[Matrix]:
    """Write a nonzero member t of the algebra as rank(t) rank-one members.

    Summands are P_k t for the rank-one parts P_k = x_k (x) phi_k of an
    idempotent onto range(t), one per dimension of the range.  None is zero:
    x_k lies in range(t) and phi_k(x_k) = 1, so phi_k does not vanish on it.
    """
    _require_member(nest, t)
    if t.is_zero():
        raise ValueError("the zero operator has no rank decomposition")
    _, parts = idempotent_onto(nest, range_of(t))
    return [p.matrix @ t for p in parts]


def strict_approximant(nest: Nest, t: Matrix, vectors) -> Matrix:
    """A sum of rank-ones t P_k of the algebra agreeing with t on span(vectors)."""
    _require_member(nest, t)
    f = nest.field
    spn = span_of(list(vectors), f, nest.ambient_dim)
    if spn.dim == 0:
        return Matrix.zeros(f, nest.ambient_dim, nest.ambient_dim)
    p, _ = idempotent_onto(nest, spn)
    return t @ p


def invariant_lattice(ops, field: Field, ambient_dim: int) -> list[Subspace]:
    """All subspaces of GF(p)^n invariant under every given operator.

    A filter over enumerate_subspaces, so its bound applies (p in {2,3},
    n <= 4), and no product is formed.  The image t v_k of the k-th distinct
    enumerated basis row is the tuple of the tabulated dot products of the
    rows of t with v_k (`row_image_tables`).  Each distinct pair (k, t v_k)
    rules out, by one tabulated bitmask, the subspaces with basis row v_k
    that miss t v_k; the subspaces no pair rules out are kept.
    """
    n = ambient_dim
    ops = tuple(ops)
    for t in ops:
        if t.field != field or (t.rows, t.cols) != (n, n):
            raise ValueError("operators must match the given field and shape")
    subspaces = enumerate_subspaces(field, n)
    images, excluded = row_image_tables(field.p, n)
    gathered = [list(map(images.__getitem__, rows)) for rows in zip(*[t.entries for t in ops])]
    pairs = itertools.chain.from_iterable(map(enumerate, map(zip, *gathered))) if gathered else ()
    mask = reduce(or_, map(excluded.__getitem__, set(pairs)), 0)
    return [s for bit, s in enumerate(subspaces) if not mask >> bit & 1]


def all_rank_ones_in_alg(nest: Nest) -> list[RankOneOp]:
    """Every rank-one member of the algebra over a small finite field, one
    per (x, phi) pair of nonzero vectors (scalar multiples included), x
    outer and phi inner: phi must kill the principal predecessor of x.

    The functionals killing a proper member are the nonzero elements of its
    annihilator (every nonzero vector kills {0}), sorted into the order of
    itertools.product, and x's principal member is the first proper member
    whose elements hold x (F^n if none).  x (x) phi is assembled from the
    rows c * phi, computed once per phi."""
    f = nest.field
    if f.is_rationals:
        raise ValueError("rank-one enumeration needs a finite field")
    n, p = nest.ambient_dim, f.p
    vectors = [v for v in itertools.product(f.elements(), repeat=n) if any(v)]
    proper = nest.chain[1:-1]
    killing = [vectors] + [sorted(v for v in m.annihilator().elements if any(v)) for m in proper]
    factors = {
        phi: (Functional(f, n, phi), [tuple([c * a % p for a in phi]) for c in range(p)])
        for phi in vectors
    }
    out, ones = [], (1,) * n
    for x in vectors:
        pred = next((i for i, m in enumerate(proper) if x in m.elements), len(proper))
        for functional, multiples in map(factors.get, killing[pred]):
            matrix = Matrix._wrap(f, tuple([multiples[c] for c in x]), ones, n)
            out.append(_rank_one_op(x, functional, matrix))
    return out


def reflexivity_witness(nest: Nest, m: Subspace) -> tuple[RankOneOp, Vector]:
    """For m outside the chain, a rank-one member R and x in m with R x not in m.

    x is the first basis row of m whose principal member leaves m, and R is
    `transporter(nest, x, y)` for the first basis row y of that member
    outside m, so R x = y lies outside m.  Some row always qualifies: were
    every row's principal member inside m, the largest of them would hold
    all rows, hence contain m, and so equal m, a member of the chain.
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m in nest.chain:
        raise ValueError("m is a member of the nest")
    if m.dim == 0:
        raise ValueError("the zero subspace admits no witness")
    for x in m.basis.entries:
        for y in nest.principal(x).basis.entries:
            if not m.contains(y):
                return transporter(nest, x, y), x
    raise AssertionError("unreachable: every basis row of m has its principal member in m")


def matrix_span_basis(mats, field: Field, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """Canonical basis of the span of the given operators (vectorized RREF)."""
    stacked = []
    for m in mats:
        if m.field != field or (m.rows, m.cols) != shape:
            raise ValueError("operators must match the given field and shape")
        stacked.append(integer_vectorize(m)[0])
    red, _ = echelon(field, stacked, shape[0] * shape[1])
    return _operators(field, red, leads(red), shape)

