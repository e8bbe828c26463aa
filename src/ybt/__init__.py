"""Exact-arithmetic toolkit for twisting, fusing and verifying constant
solutions of the Yang-Baxter equation.

All values are immutable and every operation is a pure function; rational
results are exact, complex ones are judged against a tolerance.
"""

from . import catalog, errors, formats
from .factorized import (
    check_split_A,
    check_split_B,
    omega_split_A,
    omega_split_B,
    pair_from_split_A,
    pair_from_split_B,
)
from .fusion import (
    DEFAULT_MAX_LEGS,
    f_components_from_omega,
    fuse_r,
    omega_recursive,
    r_fused_from_twist,
    te1_residual,
)
from .subspace_solver import (
    DEFAULT_SIZE_CAP,
    SubspaceBasis,
    braid_intertwine_residual,
    intertwiner_space,
    invertible_certificate,
    membership_coefficients,
    r_symmetric_residual,
    r_symmetric_space,
)
from .tensor_core import (
    COMPLEX64,
    DEFAULT_TOLERANCE,
    RATIONAL,
    Operator,
    determinant,
    embed,
    identity,
    invert,
    kron,
    leg_permute,
    residual,
    solve,
    swap,
)
from .twist_engine import (
    CheckReport,
    TwistPair,
    apply_twist,
    aux_identity_residual,
    check_pair,
    compose_pairs,
    gauge_transform,
    identity_pair,
    invert_pair,
)
from .ybe_check import (
    braid_matrix,
    mixed_ybe_residual,
    rtt_residual,
    ybe_residual,
)

__version__ = "0.1.0"

__all__ = [
    "COMPLEX64",
    "CheckReport",
    "DEFAULT_MAX_LEGS",
    "DEFAULT_SIZE_CAP",
    "DEFAULT_TOLERANCE",
    "Operator",
    "RATIONAL",
    "SubspaceBasis",
    "TwistPair",
    "apply_twist",
    "aux_identity_residual",
    "braid_intertwine_residual",
    "braid_matrix",
    "catalog",
    "check_pair",
    "check_split_A",
    "check_split_B",
    "compose_pairs",
    "determinant",
    "embed",
    "errors",
    "f_components_from_omega",
    "formats",
    "fuse_r",
    "gauge_transform",
    "identity",
    "identity_pair",
    "intertwiner_space",
    "invert",
    "invert_pair",
    "invertible_certificate",
    "kron",
    "leg_permute",
    "membership_coefficients",
    "mixed_ybe_residual",
    "omega_recursive",
    "omega_split_A",
    "omega_split_B",
    "pair_from_split_A",
    "pair_from_split_B",
    "r_fused_from_twist",
    "r_symmetric_residual",
    "r_symmetric_space",
    "residual",
    "rtt_residual",
    "solve",
    "swap",
    "te1_residual",
    "ybe_residual",
]
