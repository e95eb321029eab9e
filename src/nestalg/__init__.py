"""Exact-arithmetic nest algebras over the rationals and prime fields."""

from .algebra import (
    AlgebraBasis,
    MembershipError,
    RankOneOp,
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg,
    in_alg_witness,
    in_matrix_span,
    invariant_lattice,
    matrix_span_basis,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    reflexivity_witness,
    spans_equal,
    strict_approximant,
    transporter,
)
from .c00 import (
    CATALOG,
    DualSupportResult,
    SupportNest,
    SupportSet,
    TailFunctional,
    ZigzagReport,
    chain_union,
    dual_support_nest,
    family_meet,
    graded_quasi_inverse,
    initial,
    omega_nest,
    omega_star_nest,
    principal_support,
    support_annihilator,
    tail_from,
    truncation_nest,
    zigzag_nest,
    zigzag_report,
)
from .fields import GF, GF2, GF3, QQ, Field
from .matrices import Matrix, RrefResult, dot, kernel_basis, outer, rref, solve, try_invert
from .nests import (
    IncomparableError,
    Nest,
    coordinate_nest,
    flag_nest,
    iter_nests,
    new_nest,
    ordinal_sum,
    trivial_nest,
)
from .radical import (
    OrdinalSumReport,
    RadicalReport,
    ideal_nilpotency_index,
    in_strict_ideal,
    in_strict_ideal_witness,
    nilpotency_index,
    ordsum_analyze,
    quasi_inverse,
    radical_basis_oracle,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from .subspaces import (
    Functional,
    Subspace,
    complement_within,
    enumerate_subspaces,
    full,
    separating_functional,
    span_of,
    zero_subspace,
)

__version__ = "0.1.0"
