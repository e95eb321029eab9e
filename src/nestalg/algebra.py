"""Operators leaving every member of a nest invariant: bases, rank-one
calculus, idempotent and rank decompositions, and reflexivity checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import Field
from .matrices import Matrix, Vector, coerce_vector, is_zero_vector, kernel_basis, outer, rref
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


def _constraint_kernel(nest: Nest, pairs) -> tuple[Matrix, ...]:
    """Solve T . source ⊆ target for all (source, target) pairs.

    Unknowns are the n^2 entries of T, row-major; each constraint row reads
    a_i * v_j against T_ij for an annihilator row a of the target and a basis
    row v of the source.
    """
    f = nest.field
    n = nest.ambient_dim
    zero = f.zero()
    rows = []
    for source, target in pairs:
        ann = target.annihilator().basis.entries
        for a in ann:
            for v in source.basis.entries:
                row = [zero] * (n * n)
                for i, ai in enumerate(a):
                    if ai:
                        for j, vj in enumerate(v):
                            if vj:
                                row[i * n + j] = f.mul(ai, vj)
                rows.append(tuple(row))
    if not rows:
        sol = kernel_basis(Matrix.zeros(f, 0, n * n))
    else:
        sol = kernel_basis(Matrix._of(f, tuple(rows), n * n))
    mats = tuple(
        Matrix._of(f, tuple(row[i * n : (i + 1) * n] for i in range(n)), n)
        for row in sol.entries
    )
    return mats


def alg_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of the algebra of all operators preserving the chain."""
    pairs = [(m, m) for m in nest.chain[1:-1]]
    return AlgebraBasis(nest, FULL, _constraint_kernel(nest, pairs))


def in_alg_witness(nest: Nest, t: Matrix):
    """None if t preserves every member, else (member, vector) violating it."""
    _check_operator(nest, t)
    for member in nest.chain[1:-1]:
        for v in member.basis.entries:
            if not member.contains(t.apply(v)):
                return member, v
    return None


def in_alg(nest: Nest, t: Matrix) -> bool:
    return in_alg_witness(nest, t) is None


def _require_member(nest: Nest, t: Matrix) -> None:
    witness = in_alg_witness(nest, t)
    if witness is not None:
        member, v = witness
        raise ValueError(f"operator leaves the nest: moves {v} out of {member!r}")


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
    pred = nest.principal_pred(r.x)
    return all(not r.phi(row) for row in pred.basis.entries)


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

    Exhaustive over the subspace lattice, so the bound of
    enumerate_subspaces applies (p in {2,3}, n <= 4).
    """
    ops = list(ops)
    for t in ops:
        if t.field != field or (t.rows, t.cols) != (ambient_dim, ambient_dim):
            raise ValueError("operator shape or field mismatch")
    p = field.p
    if p is None:
        raise ValueError("invariant lattices are enumerated over finite fields only")
    subs = enumerate_subspaces(field, ambient_dim)
    rows_of = [t.entries for t in ops]
    out = []
    for s in subs:
        basis = s.basis.entries
        pivots = tuple(next(j for j, x in enumerate(row) if x) for row in basis)
        ok = True
        for rows in rows_of:
            for v in basis:
                w = [sum(a * b for a, b in zip(row, v)) % p for row in rows]
                for row, pc in zip(basis, pivots):
                    c = w[pc]
                    if c:
                        for j in range(pc, ambient_dim):
                            if row[j]:
                                w[j] = (w[j] - c * row[j]) % p
                if any(w):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(s)
    return out


def all_rank_ones_in_alg(nest: Nest) -> list[RankOneOp]:
    """Every rank-one member of the algebra over a small finite field,
    one per (x, phi) pair of nonzero vectors (scalar multiples included)."""
    f = nest.field
    if f.is_rationals:
        raise ValueError("rank-one enumeration needs a finite field")
    n = nest.ambient_dim
    vectors = [v for v in itertools.product(f.elements(), repeat=n) if any(v)]
    preds = {v: nest.principal_pred(v) for v in vectors}
    out = []
    for x in vectors:
        pred_rows = preds[x].basis.entries
        for phi_coeffs in vectors:
            phi = Functional(f, n, phi_coeffs)
            if all(not phi(row) for row in pred_rows):
                out.append(rank_one(x, phi))
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
    rows, cols = shape
    stacked = []
    for m in mats:
        if m.field != field or (m.rows, m.cols) != shape:
            raise ValueError("operators must match the given field and shape")
        stacked.append(m.vectorize())
    if not stacked:
        return ()
    red = rref(Matrix._of(field, tuple(stacked), rows * cols))
    return tuple(
        Matrix._of(field, tuple(row[i * cols : (i + 1) * cols] for i in range(rows)), cols)
        for row in red.matrix.entries[: red.rank]
    )


def in_matrix_span(mats, t: Matrix) -> bool:
    """Is t a linear combination of the given operators?"""
    basis = matrix_span_basis(mats, t.field, (t.rows, t.cols))
    size = t.rows * t.cols
    rows = tuple(b.vectorize() for b in basis)
    return Subspace(t.field, size, Matrix._of(t.field, rows, size)).contains(t.vectorize())


def spans_equal(a, b, field: Field, shape: tuple[int, int]) -> bool:
    return matrix_span_basis(a, field, shape) == matrix_span_basis(b, field, shape)
