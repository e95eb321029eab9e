"""Operators leaving every member of a nest invariant: bases, rank-one
calculus, idempotent and rank decompositions, and reflexivity checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .fields import Field
from .matrices import Matrix, Vector, coerce_vector, dot, is_zero_vector, kernel_basis, outer, rref
from .nests import Nest
from .subspaces import (
    Functional,
    Subspace,
    complement_within,
    enumerate_subspaces,
    separating_functional,
    span_of,
)

FULL = "full"
STRICT = "strict"
RADICAL = "radical"


@dataclass(frozen=True)
class AlgebraBasis:
    """A canonical basis of a space of operators attached to a nest."""

    nest: Nest
    kind: str
    basis: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def span(self) -> Subspace:
        """The span in F^(n^2) of the vectorized basis, built on first use from
        the rows as they are: they are already in RREF, with unit pivot columns."""
        f, size = self.nest.field, self.nest.ambient_dim ** 2
        return Subspace(f, size, Matrix._of(f, tuple(b.vectorize() for b in self.basis), size))

    def contains(self, t: Matrix) -> bool:
        """Is t in the span: is its residual against `span` zero?"""
        return is_zero_vector(self.span.reduce(t.vectorize()))


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


def _pairs(nest: Nest, kind: str) -> list[tuple[Subspace, Subspace]]:
    """The (source, target) pairs with T source ⊆ target that define the
    algebra (FULL: every member invariant) or the strict ideal (STRICT:
    every nonzero member into its predecessor)."""
    chain = nest.chain
    if kind == FULL:
        return [(m, m) for m in chain[1:-1]]
    return list(zip(chain[1:], chain))


def _constraint_kernel(nest: Nest, pairs) -> tuple[Matrix, ...]:
    """Solve T . source ⊆ target for all (source, target) pairs of `_pairs`."""
    f, n = nest.field, nest.ambient_dim
    kernel = kernel_basis(Matrix._of(f, _constraint_rows(nest, pairs), n * n))
    return _operators(f, kernel.entries, (n, n))


def _constraint_rows(nest: Nest, pairs) -> tuple:
    """The constraints of T . source ⊆ target on the n^2 entries of T, row-major:
    a_i * v_j against T_ij for an annihilator row a of the target and a row v
    of the source.  A source's predecessor is the previous pair's source (or
    {0}), already mapped into the target by that pair, so v runs only over
    the source's RREF rows whose pivot is not a pivot of the predecessor: a
    complement of it, which makes the rows exactly as many as their rank."""
    f = nest.field
    zero = f.zero()
    rows: list = []
    pred_pivots: tuple[int, ...] = ()
    for source, target in pairs:
        fresh = [v for v, pc in zip(source.basis.entries, source.pivots) if pc not in pred_pivots]
        pred_pivots = source.pivots
        for a in target.annihilator().basis.entries:
            rows += [
                tuple([f.mul(ai, vj) if ai and vj else zero for ai in a for vj in v]) for v in fresh
            ]
    return tuple(rows)


def _operators(field: Field, rows, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """The operators of the given shape with these row-major entries, the
    inverse of Matrix.vectorize."""
    r, c = shape
    return tuple(Matrix._of(field, tuple(v[i * c : i * c + c] for i in range(r)), c) for v in rows)


def alg_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of the algebra of all operators preserving the chain."""
    return AlgebraBasis(nest, FULL, _constraint_kernel(nest, _pairs(nest, FULL)))


def _violation(nest: Nest, t: Matrix, kind: str):
    """None if t maps each source of the kind's pairs into its target, else
    (source, basis vector of the source that t moves out of the target)."""
    _check_operator(nest, t)
    for source, target in _pairs(nest, kind):
        for v in source.basis.entries:
            if not target.contains(t.apply(v)):
                return source, v
    return None


def in_alg_witness(nest: Nest, t: Matrix):
    """None if t preserves every member, else (member, vector) violating it."""
    return _violation(nest, t, FULL)


def in_alg(nest: Nest, t: Matrix) -> bool:
    return in_alg_witness(nest, t) is None


def _require_member(nest: Nest, t: Matrix, kind: str = FULL) -> None:
    """Raise MembershipError unless t lies in the algebra (or the strict ideal)."""
    witness = _violation(nest, t, kind)
    if witness is not None:
        raise MembershipError(kind, *witness)


def _check_operator(nest: Nest, t: Matrix) -> None:
    if t.field != nest.field:
        raise ValueError("operator field mismatch")
    if (t.rows, t.cols) != (nest.ambient_dim, nest.ambient_dim):
        raise ValueError("operator must be square of the ambient dimension")


@dataclass(frozen=True)
class RankOneOp:
    """The operator v -> phi(v) x for nonzero x and phi."""

    x: Vector
    phi: Functional
    matrix: Matrix

    @property
    def is_idempotent(self) -> bool:
        return self.phi(self.x) == self.matrix.field.one()


def rank_one(x, phi: Functional) -> RankOneOp:
    f = phi.field
    x = coerce_vector(f, x)
    if len(x) != phi.ambient_dim:
        raise ValueError("vector and functional sizes differ")
    if is_zero_vector(x) or phi.is_zero():
        raise ValueError("rank-one factors must be nonzero")
    return RankOneOp(x, phi, outer(f, x, phi.coeffs))


def rank_one_in_alg(nest: Nest, r: RankOneOp) -> bool:
    """Membership test for a rank-one operator: the predecessor of x's
    principal member must sit inside ker phi."""
    if r.matrix.field != nest.field or r.phi.ambient_dim != nest.ambient_dim:
        raise ValueError("rank-one operator does not match the nest")
    return _kills(nest.field, r.phi.coeffs, nest.principal_pred(r.x).basis.entries)


def _kills(field: Field, phi: Vector, pred_rows) -> bool:
    """Rank-one membership: x (x) phi lies in the algebra exactly when phi
    vanishes on pred_rows, the basis rows of x's principal predecessor."""
    return all(not dot(field, phi, row) for row in pred_rows)


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

    Recursive construction: peel the first basis vector y of m, build P# on a
    complement of span{y} in m, then add the rank-one (y - P# y) (x) phi where
    phi kills both the predecessor and ran P#.  The parts multiply to zero
    pairwise and sum to P.
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m.dim == 0:
        raise ValueError("no idempotent with zero range")
    f = nest.field
    if m.dim == 1:
        x = m.basis.entries[0]
        phi = separating_functional(x, nest.principal_pred(x))
        part = rank_one(x, phi)
        return part.matrix, [part]
    y = m.basis.entries[0]
    rest = complement_within(span_of([y], f, m.ambient_dim), m)
    p_rest, parts = idempotent_onto(nest, rest)
    x = tuple(f.sub(a, b) for a, b in zip(y, p_rest.apply(y)))
    avoid = nest.principal_pred(x).join(rest)
    phi = separating_functional(x, avoid)
    part = rank_one(x, phi)
    return p_rest + part.matrix, parts + [part]


def range_of(t: Matrix) -> Subspace:
    """Column space of t."""
    return span_of([t.column(j) for j in range(t.cols)], t.field, t.rows)


def rank_decompose(nest: Nest, t: Matrix) -> list[Matrix]:
    """Write a nonzero member t of the algebra as rank(t) rank-one members.

    Summands are P_k t for the rank-one parts P_k of an idempotent onto
    range(t); zero products are dropped, leaving exactly rank(t) terms.
    """
    _require_member(nest, t)
    if t.is_zero():
        raise ValueError("the zero operator has no rank decomposition")
    _, parts = idempotent_onto(nest, range_of(t))
    summands = [p.matrix @ t for p in parts]
    return [s for s in summands if not s.is_zero()]


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
    n <= 4).  The distinct basis rows of the enumerated subspaces are mapped
    by a basis of the operators' span (same lattice) in one product with
    the transposed operators side by side; s is kept when the images of
    its basis rows all lie in s.elements.
    """
    n = ambient_dim
    ops = matrix_span_basis(ops, field, (n, n))
    subspaces = enumerate_subspaces(field, n)
    rows = tuple(dict.fromkeys(v for s in subspaces for v in s.basis.entries))
    side_by_side = tuple(tuple([t.entries[i][j] for t in ops for i in range(n)]) for j in range(n))
    products = Matrix._of(field, rows, n) @ Matrix._of(field, side_by_side, len(ops) * n)
    images = {
        v: {w[k : k + n] for k in range(0, len(w), n)} for v, w in zip(rows, products.entries)
    }
    return [s for s in subspaces if all(images[v] <= s.elements for v in s.basis.entries)]


def all_rank_ones_in_alg(nest: Nest) -> list[RankOneOp]:
    """Every rank-one member of the algebra over a small finite field, one
    per (x, phi) pair of nonzero vectors (scalar multiples included), x
    outer and phi inner.  The phis killing each possible principal
    predecessor are found once, and x (x) phi is assembled from the rows
    c * phi, computed once per phi."""
    f = nest.field
    if f.is_rationals:
        raise ValueError("rank-one enumeration needs a finite field")
    n, p = nest.ambient_dim, f.p
    vectors = [v for v in itertools.product(f.elements(), repeat=n) if any(v)]
    factors = {
        phi: (Functional(f, n, phi), [tuple([c * a % p for a in phi]) for c in range(p)])
        for phi in vectors
    }
    killing = {m: [v for v in vectors if _kills(f, v, m.basis.entries)] for m in nest.chain[:-1]}
    out = []
    for x in vectors:
        for functional, multiples in map(factors.get, killing[nest.principal_pred(x)]):
            out.append(RankOneOp(x, functional, Matrix._of(f, tuple([multiples[c] for c in x]), n)))
    return out


def reflexivity_witness(nest: Nest, m: Subspace) -> tuple[RankOneOp, Vector]:
    """For m outside the chain, a rank-one member R and x in m with R x not in m.

    Searches basis vectors of m first, then their pairwise sums.
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m in nest.chain:
        raise ValueError("m is a member of the nest")
    if m.dim == 0:
        raise ValueError("the zero subspace admits no witness")
    f = nest.field
    rows = m.basis.entries
    candidates = list(rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            candidates.append(tuple(f.add(a, b) for a, b in zip(rows[i], rows[j])))
    for x in candidates:
        principal = nest.principal(x)
        for y in principal.basis.entries:
            if not m.contains(y):
                r = transporter(nest, x, y)
                if not m.contains(r.matrix.apply(x)):
                    return r, x
    raise ValueError("no witness found; is m really outside the chain?")


def matrix_span_basis(mats, field: Field, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """Canonical basis of the span of the given operators (vectorized RREF)."""
    stacked = []
    for m in mats:
        if m.field != field or (m.rows, m.cols) != shape:
            raise ValueError("operators must match the given field and shape")
        stacked.append(m.vectorize())
    red = rref(Matrix._of(field, tuple(stacked), shape[0] * shape[1]))
    return _operators(field, red.matrix.entries[: red.rank], shape)

