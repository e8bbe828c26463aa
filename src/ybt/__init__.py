"""Exact-arithmetic toolkit for twisting, fusing and verifying constant
solutions of the Yang-Baxter equation.

All values are immutable and every operation is a pure function; rational
results are exact, complex ones are judged against a tolerance.

``import ybt`` loads no submodule.  Each exported name is looked up in its
defining module the first time it is used, and that module is imported
then, so a caller pays only for the layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names ybt exports from it; a module's own name
# exports the module
_MODULES = {
    "catalog": ("catalog",),
    "errors": ("errors",),
    "formats": ("formats",),
    "factorized": (
        "check_split_A",
        "check_split_B",
        "omega_split_A",
        "omega_split_B",
        "pair_from_split_A",
        "pair_from_split_B",
    ),
    "fusion": (
        "DEFAULT_MAX_LEGS",
        "f_components_from_omega",
        "fuse_r",
        "omega_recursive",
        "r_fused_from_twist",
        "te1_residual",
    ),
    "subspace_solver": (
        "DEFAULT_SIZE_CAP",
        "SubspaceBasis",
        "braid_intertwine_residual",
        "intertwiner_space",
        "invertible_certificate",
        "membership_coefficients",
        "r_symmetric_residual",
        "r_symmetric_space",
    ),
    "tensor_core": (
        "COMPLEX64",
        "DEFAULT_TOLERANCE",
        "RATIONAL",
        "Operator",
        "determinant",
        "embed",
        "identity",
        "invert",
        "kron",
        "leg_permute",
        "residual",
        "solve",
        "swap",
    ),
    "twist_engine": (
        "CheckReport",
        "TwistPair",
        "apply_twist",
        "aux_identity_residual",
        "check_pair",
        "compose_pairs",
        "gauge_transform",
        "identity_pair",
        "invert_pair",
    ),
    "ybe_check": (
        "braid_matrix",
        "mixed_ybe_residual",
        "rtt_residual",
        "ybe_residual",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it here as well
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
