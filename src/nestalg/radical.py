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
    _constraint_kernel,
    _operators,
    _pairs,
    _require_member,
    _violation,
    alg_basis,
    in_alg,
)
from .matrices import Matrix, kernel_basis
from .nests import Nest, ordinal_sum
from .subspaces import full, separating_functional, span_of


def strict_ideal_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of {T : T maps each member into its predecessor}."""
    return AlgebraBasis(nest, STRICT, _constraint_kernel(nest, _pairs(nest, STRICT)))


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


def ideal_nilpotency_index(nest: Nest) -> int:
    """Least k such that every product of k strictly-shifting operators is zero.

    Equals the number of atoms of the nest.
    """
    return _nilpotency_index_of(nest, strict_ideal_basis(nest).basis)


def _nilpotency_index_of(nest: Nest, basis) -> int:
    """Nilpotency index of the span J of `basis`, on n-column subspaces.

    V_0 = F^n and V_k = span{b v : b in basis, v in V_(k-1)} = J^k F^n, as
    J^k F^n = J (J^(k-1) F^n); the index is the least k with V_k = 0.  The
    V_k only shrink, so V_k = V_(k-1) != 0, or V_n != 0, proves J not
    nilpotent, and an AssertionError names the basis.
    """
    f = nest.field
    n = nest.ambient_dim
    space = full(f, n)
    for k in range(1, n + 1):
        image = span_of([b.apply(v) for b in basis for v in space.basis.entries], f, n)
        if image.dim == 0:
            return k
        if image == space:
            break
        space = image
    raise AssertionError(f"the span of {basis} is not nilpotent: J^{k} F^n has dim {image.dim}")


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


def radical_basis_oracle(nest: Nest) -> AlgebraBasis:
    """Radical of the algebra via the trace form: {T : trace(T S) = 0 for all S}.

    The radical lies in this trace-form kernel T in every characteristic (for
    x in the radical every x S is nilpotent, so its trace is 0), and the
    nilpotent ideal J lies in the radical.  On a nest algebra the trace form
    is nondegenerate on the diagonal blocks M_d(F) in every characteristic
    (tr(E_ij E_ji) = 1), so T = J, which proves rad = J over any field.
    """
    return _trace_form_radical(alg_basis(nest))


def _trace_form_radical(alg: AlgebraBasis) -> AlgebraBasis:
    """radical_basis_oracle for the algebra's already-built basis.

    Both products run on the algebra's own basis matrices, never on J's.
    """
    f = alg.nest.field
    n = alg.nest.ambient_dim
    stacked = alg.span.basis
    # trace(A B) = vec(A) . vec(B^T): column j of the right factor is vec(B_j^T)
    columns = tuple(zip(*(b.transpose().vectorize() for b in alg.basis)))
    gram = stacked @ Matrix._of(f, columns, alg.dim)
    # The kernel coordinates and the stacked algebra basis are both in RREF,
    # and the latter's pivot columns are unit columns, so their product is
    # already the canonical basis of the span.
    rows = (kernel_basis(gram) @ stacked).entries
    return AlgebraBasis(alg.nest, RADICAL, _operators(f, rows, (n, n)))


def radical_exclusion_witness(nest: Nest, t: Matrix) -> tuple:
    """For t in the algebra but not strictly shifting: (x, phi) such that
    R = x (x) phi lies in the algebra and (1 - R t) x = 0, exposing t as
    outside the radical.

    x is the strict ideal's first violation (in_strict_ideal_witness).  As t
    lies in the algebra, x lies outside the predecessor that t moves it out
    of, so that predecessor is x's principal predecessor.
    """
    _require_member(nest, t)
    violation = in_strict_ideal_witness(nest, t)
    if violation is None:
        raise ValueError("t strictly shifts the chain; no exclusion witness exists")
    _, x = violation
    return x, separating_functional(t.apply(x), nest.principal_pred(x))


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

    The radical comes from the independent trace-form oracle on every field,
    and `equal` compares the two spans: the trace form is nondegenerate on
    the diagonal blocks in any characteristic, so T = J proves rad = J.

    A caller that has already built `alg_basis(nest)` passes it as `alg`.
    The report keeps only its dimension: callers hold many reports.
    """
    if alg is not None and (alg.nest != nest or alg.kind != FULL):
        raise ValueError("alg is not the algebra basis of this nest")
    strict = strict_ideal_basis(nest)
    if alg is None:
        alg = alg_basis(nest)
    index = _nilpotency_index_of(nest, strict.basis)
    rad = _trace_form_radical(alg)
    quotient = alg.dim - strict.dim
    expected = sum(d * d for d in nest.atoms)
    return RadicalReport(
        nest=nest,
        strict_basis=strict,
        radical_basis=rad,
        equal=rad.basis == strict.basis,  # both canonical, so equal iff same span
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


def ordsum_analyze(first: Nest, second: Nest, ops) -> list[OrdinalSumReport]:
    """Check the block characterizations of membership for a stacked nest,
    one report per operator.  Every operator is validated before the
    trace-form radicals of first, second and the sum are built, once for all."""
    summed = ordinal_sum(first, second)
    for t in ops:
        _check_operator(summed, t)
    rad1, rad2, rad = map(radical_basis_oracle, (first, second, summed))
    sides = (slice(None, first.ambient_dim), slice(first.ambient_dim, None))

    def report(t: Matrix) -> OrdinalSumReport:
        a1, b, c, a2 = (Matrix(t.field, [r[j] for r in t.entries[i]]) for i in sides for j in sides)
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
