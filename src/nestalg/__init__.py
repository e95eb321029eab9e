"""Exact-arithmetic nest algebras over the rationals and prime fields."""

import importlib

from .algebra import (
    AlgebraBasis,
    MembershipError,
    RankOneOp,
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg,
    in_alg_witness,
    invariant_lattice,
    matrix_span_basis,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    reflexivity_witness,
    strict_approximant,
    transporter,
)
from .fields import GF, GF2, GF3, QQ, Field
from .matrices import Matrix, RrefResult, Vector, dot, kernel_basis, outer, rref, solve, try_invert
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

# The c00 catalog and the radical are imported on first use, so that a caller
# of the finite-dimensional core neither compiles nor keeps them.
_LAZY = {
    "c00": (
        "CATALOG", "DualSupportResult", "SupportNest", "SupportSet", "TailFunctional",
        "ZigzagReport", "chain_union", "dual_support_nest", "family_meet",
        "graded_quasi_inverse", "initial", "omega_nest", "omega_star_nest",
        "principal_support", "support_annihilator", "tail_from", "truncation_nest",
        "zigzag_nest", "zigzag_report",
    ),
    "radical": (
        "OrdinalSumReport", "RadicalReport", "ideal_nilpotency_index",
        "in_strict_ideal", "in_strict_ideal_witness", "nilpotency_index",
        "ordsum_analyze", "quasi_inverse", "radical_basis_oracle",
        "radical_exclusion_witness", "radical_report", "strict_ideal_basis",
    ),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
