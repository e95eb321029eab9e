"""The strictly-shifting ideal of a nest algebra and its radical.

The radical is computed independently through the trace form over every
field: tr(x y) on the algebra pairs only its diagonal blocks M_d(F), where
it is nondegenerate in any characteristic (tr(E_ij E_ji) = 1), so its kernel
is the radical exactly when it equals the strictly-shifting ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FULL,
    RADICAL,
    STRICT,
    AlgebraBasis,
    _check_operator,
    _conjugate,
    _constraint_kernel,
    _emit,
    _first_violation,
    _moved_vector,
    _require_member,
    _violation,
    alg_basis,
    in_alg,
)
from .matrices import Matrix, echelon, integer_kernel, integer_product, sparse_product
from .nests import Nest, ordinal_sum
from .subspaces import separating_functional


def strict_ideal_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of {T : T maps each member into its predecessor}, the
    echelon of its generators S E_rc S^-1 (`_constraint_kernel`)."""
    return _constraint_kernel(nest, STRICT)


def _entries(ints, n: int):
    """(k, i, j, x) for each nonzero entry x = b_k[i][j] of the n x n
    operators b_k whose row-major int rows are ints."""
    return ((k, *divmod(q, n), x) for k, v in enumerate(ints) for q, x in enumerate(v) if x)


def in_strict_ideal_witness(nest: Nest, t: Matrix):
    """None if t shifts every member into its predecessor, else a violation."""
    return _violation(nest, t, STRICT)


def in_strict_ideal(nest: Nest, t: Matrix) -> bool:
    return in_strict_ideal_witness(nest, t) is None


def nilpotency_index(nest: Nest, t: Matrix):
    """Least k with t^k = 0, or None if t is not nilpotent.

    Requires t in the algebra; the index of any nilpotent operator is at
    most the ambient dimension, so the search stops there.
    """
    _require_member(nest, t)
    power = Matrix.identity(t.field, t.rows)
    for k in range(1, t.rows + 2):
        power = power @ t
        if power.is_zero():
            return k
    return None


def ideal_nilpotency_index(ideal: AlgebraBasis) -> int:
    """Least k such that every product of k operators of the span J of
    `ideal.basis` is zero; for the strictly-shifting ideal, the number of atoms.

    V_0 = F^n and V_k = span{b v : b in basis, v in V_(k-1)} = J^k F^n, as
    J^k F^n = J (J^(k-1) F^n); the index is the least k with V_k = 0.
    V_k is inside V_(k-1) for every k: V_1 is inside V_0 = F^n, and J. is
    monotone.  So dim V_k = dim V_(k-1) != 0 means V_k = V_(k-1), and that,
    or V_n != 0, proves J not nilpotent; an AssertionError names the basis.
    Each step's images are one integer product of V_(k-1)'s reduced int rows
    with the transposed stacked basis operators, as the basis' `scaled`
    ints as (column, int) pairs built once, read off n entries at a time: a
    scaled image spans what the image does.  They are reduced by `echelon`,
    and no Fraction is built.
    """
    f, n = ideal.nest.field, ideal.nest.ambient_dim
    ints = ideal.scaled[0]
    width = len(ints) * n
    # the transposed stacked basis, row j as the (k n + i, b_k[i][j]) pairs
    transposes = [[] for _ in range(n)]
    for k, i, j, x in _entries(ints, n):
        transposes[j].append((k * n + i, x))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        products = sparse_product(f, rows, transposes, width)
        image, _ = echelon(f, [w[j : j + n] for w in products for j in range(0, width, n)], n)
        if not image:
            return k
        if len(image) == len(rows):
            break
        rows = image
    raise AssertionError(
        f"the span of {ideal.basis} is not nilpotent: J^{k} F^n has dim {len(image)}"
    )


def quasi_inverse(nest: Nest, a: Matrix, t: Matrix) -> Matrix:
    """The exact inverse of 1 - a t as the terminating series 1 + sum (a t)^k.

    Needs a in the algebra and t in the strictly-shifting ideal; then a t is
    nilpotent of index at most the number of atoms and the series is finite.
    """
    _require_member(nest, a)
    _require_member(nest, t, STRICT)
    at = a @ t
    s = Matrix.identity(nest.field, nest.ambient_dim)
    power = at
    steps = 0
    while not power.is_zero():
        steps += 1
        if steps > len(nest.atoms):
            raise AssertionError("series failed to terminate within the atom count")
        s = s + power
        power = power @ at
    return s


def radical_basis_oracle(alg: AlgebraBasis) -> AlgebraBasis:
    """Radical of the algebra whose basis is `alg`, via the trace form:
    {T : trace(T S) = 0 for all S}.  Both products run on alg's own basis.

    The radical lies in this trace-form kernel T in every characteristic (for
    x in the radical every x S is nilpotent, so its trace is 0), and the
    nilpotent ideal J lies in the radical.  On a nest algebra the trace form
    is nondegenerate on the diagonal blocks M_d(F) in every characteristic
    (tr(E_ij E_ji) = 1), so T = J, which proves rad = J over any field.
    """
    if alg.kind != FULL:
        raise ValueError("the trace-form radical needs the algebra basis")
    f, n = alg.nest.field, alg.nest.ambient_dim
    # The basis as ints times one common scale c (`AlgebraBasis.scaled`), so
    # the Gram matrix is c^2 tr(a_i a_j), with the same kernel.
    # trace(A B) = sum of A_ij B_ji: position (i, j) of a row is paired with
    # the (l, entry (j, i) of basis operator l) of every nonzero such entry.
    stacked = alg.scaled[0]
    by_transpose = [[] for _ in range(n * n)]
    for k, i, j, x in _entries(stacked, n):
        by_transpose[j * n + i].append((k, x))
    gram = sparse_product(f, stacked, by_transpose, alg.dim)
    # The kernel coordinates times the stacked basis span the radical; one
    # `echelon` puts them in RREF, up to a multiple per row, which `_emit`
    # divides out, whatever the order or form of alg's basis.
    rows = integer_product(f, integer_kernel(f, gram, alg.dim), stacked, n * n)
    rows, _ = echelon(f, rows, n * n)
    return _emit(alg.nest, RADICAL, rows)


def radical_exclusion_witness(nest: Nest, t: Matrix) -> tuple:
    """For t in the algebra but not strictly shifting: (x, phi) such that
    R = x (x) phi lies in the algebra and (1 - R t) x = 0, exposing t as
    outside the radical.

    One `_conjugate` of t decides that t lies in the algebra (else a
    MembershipError), that it is not strictly shifting (else a ValueError)
    and the first member k + 1 that t moves out of member k.  x is the
    basis vector of member k + 1 it moves (as in_strict_ideal_witness),
    and phi separates t x from member k, x's principal predecessor: x lies
    in member k + 1, and were it in member k, which t leaves invariant,
    t x would be too.
    """
    conjugate = _conjugate(nest, t)
    _require_member(nest, t, FULL, conjugate)
    k = _first_violation(nest, STRICT, conjugate)
    if k is None:
        raise ValueError("t strictly shifts the chain; no exclusion witness exists")
    x = _moved_vector(nest, t, STRICT, k)
    return x, separating_functional(t.apply(x), nest.chain[k])


@dataclass(frozen=True)
class RadicalReport:
    """Side-by-side view of the strictly-shifting ideal and the radical."""

    nest: Nest
    strict_basis: AlgebraBasis
    radical_basis: AlgebraBasis
    equal: bool
    nilpotency_index: int
    alg_dim: int
    semisimple_quotient_dim: int
    quotient_check: bool


def radical_report(nest: Nest, alg: AlgebraBasis | None = None) -> RadicalReport:
    """Compute the ideal, the radical, and the structural cross-checks.

    The index is `ideal_nilpotency_index` of the strict ideal, and the radical
    the independent trace-form oracle `radical_basis_oracle`, on every field;
    `equal` compares the two spans, and T = J proves rad = J.

    A caller that has already built `alg_basis(nest)` passes it as `alg`.
    The report keeps only its dimension: callers hold many reports.
    """
    if alg is not None and (alg.nest != nest or alg.kind != FULL):
        raise ValueError("alg is not the algebra basis of this nest")
    strict = strict_ideal_basis(nest)
    if alg is None:
        alg = alg_basis(nest)
    index = ideal_nilpotency_index(strict)
    rad = radical_basis_oracle(alg)
    quotient = alg.dim - strict.dim
    expected = sum(d * d for d in nest.atoms)
    return RadicalReport(
        nest=nest,
        strict_basis=strict,
        radical_basis=rad,
        # Both come from `_emit` on `echelon` rows, a primitive row with a
        # positive lead (over GF(p) the residue row with lead 1) per canonical
        # row, so equal `scaled` means equal canonical bases, that is equal
        # spans, with no operator built.
        equal=rad.scaled == strict.scaled,
        nilpotency_index=index,
        alg_dim=alg.dim,
        semisimple_quotient_dim=quotient,
        quotient_check=quotient == expected,
    )


@dataclass(frozen=True)
class OrdinalSumReport:
    """Block analysis of an operator against a stacked pair of nests.

    For each property the `predicted` value comes from the block rule
    (lower-left block zero, diagonal blocks in the component spaces) and the
    `direct` value from computing on the summed nest itself.
    """

    first: Nest
    second: Nest
    sum_nest: Nest
    blocks: tuple[Matrix, Matrix, Matrix, Matrix]  # a1, b, c, a2
    alg_predicted: bool
    alg_direct: bool
    strict_predicted: bool
    strict_direct: bool
    radical_predicted: bool
    radical_direct: bool

    @property
    def consistent(self) -> bool:
        return (
            self.alg_predicted == self.alg_direct
            and self.strict_predicted == self.strict_direct
            and self.radical_predicted == self.radical_direct
        )


def ordsum_analyze(
    first: Nest, second: Nest, ops, alg: AlgebraBasis | None = None
) -> list[OrdinalSumReport]:
    """Check the block characterizations of membership for a stacked nest,
    one report per operator.  Every operator is validated before
    `radical_basis_oracle` runs on the algebras of first, second and the sum,
    once for all.

    A caller that has already built the summed nest's `alg_basis` passes it
    as `alg`, as for `radical_report`.
    """
    summed = ordinal_sum(first, second)
    if alg is not None and (alg.nest != summed or alg.kind != FULL):
        raise ValueError("alg is not the algebra basis of the ordinal sum")
    for t in ops:
        _check_operator(summed, t)
    rad1, rad2 = (radical_basis_oracle(alg_basis(nest)) for nest in (first, second))
    rad = radical_basis_oracle(alg_basis(summed) if alg is None else alg)
    n1 = first.ambient_dim
    # (rows or columns, width) of the two sides; a block keeps t's row dens
    sides = ((slice(None, n1), n1), (slice(n1, None), second.ambient_dim))

    def report(t: Matrix) -> OrdinalSumReport:
        a1, b, c, a2 = (
            Matrix._ints(t.field, [r[j] for r in t.ints[i]], t.dens[i], w) for i, _ in sides for j, w in sides
        )
        c_zero = c.is_zero()
        return OrdinalSumReport(
            first=first,
            second=second,
            sum_nest=summed,
            blocks=(a1, b, c, a2),
            alg_predicted=c_zero and in_alg(first, a1) and in_alg(second, a2),
            alg_direct=in_alg(summed, t),
            strict_predicted=c_zero and in_strict_ideal(first, a1) and in_strict_ideal(second, a2),
            strict_direct=in_strict_ideal(summed, t),
            radical_predicted=c_zero and rad1.contains(a1) and rad2.contains(a2),
            radical_direct=rad.contains(t),
        )

    return [report(t) for t in ops]
