"""Fused R-matrices, recursive intertwiners, and twist components F^{m,n}.

A two-leg solution R couples an m-leg group to an n-leg group through the
ordered product (legs m+j host the second group)

    R^{m,n} = (R_{1,m+n} ... R_{1,m+1})(R_{2,m+n} ... R_{2,m+1})
              ... (R_{m,m+n} ... R_{m,m+1}),

with R^{m,n} the identity when m*n = 0.  Twist components are addressed
by an explicit (m, n) -> Operator map so that the redundant routes to the
same component can be compared exactly; zero indices resolve to
identities.
"""

from __future__ import annotations

from .errors import MissingComponentError, ShapeMismatchError, SizeCapError
from .tensor_core import Operator, embed, identity, invert, kron, residual
from .twist_engine import apply_twist

#: Refuse fused spaces beyond this many legs unless the caller raises the cap.
DEFAULT_MAX_LEGS = 6


def fuse_r(r: Operator, m: int, n: int, max_legs: int = DEFAULT_MAX_LEGS) -> Operator:
    """Fuse a two-leg solution into the (m, n) block matrix R^{m,n}."""
    if r.legs != 2:
        raise ShapeMismatchError("r must have 2 legs")
    if m < 0 or n < 0:
        raise ShapeMismatchError(f"group sizes must be non-negative, got ({m}, {n})")
    total = m + n
    if total > max_legs:
        raise SizeCapError(
            f"fused operator would need {total} legs, above the cap {max_legs}"
        )
    out = identity(r.site_dim, total, r.backend)
    for i in range(1, m + 1):
        for j in range(n, 0, -1):
            out = out @ embed(r, [i, m + j], total)
    return out


def _lookup(components: dict, m: int, n: int) -> Operator:
    """Component (m, n) of the map; a zero index missing from it gives the identity.

    On the rational backend that identity is a marked unit, which products
    and ``kron`` pass through without arithmetic.
    """
    if (m, n) in components:
        return components[(m, n)]
    if m == 0 or n == 0:
        if not components:
            raise MissingComponentError(
                "cannot infer site_dim for an identity component from an empty map"
            )
        probe = next(iter(components.values()))
        return identity(probe.site_dim, m + n, probe.backend)
    raise MissingComponentError(f"component ({m}, {n}) is missing")


def omega_recursive(f_components: dict, n: int) -> Operator:
    """The n-leg intertwiner built from (1, k) components:

    Omega^n = F^{1,n-1} (I_1 x F^{1,n-2}) ... (I_{n-2} x F^{1,1}),
    with Omega^0 and Omega^1 the units.
    """
    if n < 0:
        raise ShapeMismatchError(f"n must be non-negative, got {n}")
    if not f_components:
        raise MissingComponentError("component map is empty")
    probe = next(iter(f_components.values()))
    site_dim, backend = probe.site_dim, probe.backend
    out = identity(site_dim, n, backend)
    for k in range(n - 1, 0, -1):
        comp = _lookup(f_components, 1, k)
        if comp.legs != 1 + k:
            raise ShapeMismatchError(
                f"component (1, {k}) must act on {1 + k} legs, got {comp.legs}"
            )
        out = out @ embed(comp, list(range(n - k, n + 1)), n)
    return out


def f_components_from_omega(omegas: dict, m: int, n: int) -> Operator:
    """F^{m,n} = Omega^{m+n} (Omega^m^-1 x Omega^n^-1); units implied for 0 and 1."""
    if m < 0 or n < 0:
        raise ShapeMismatchError(f"indices must be non-negative, got ({m}, {n})")
    if not omegas:
        raise MissingComponentError("omega map is empty")
    probe = next(iter(omegas.values()))
    site_dim, backend = probe.site_dim, probe.backend

    def omega(k: int) -> Operator:
        if k in omegas:
            got = omegas[k]
            if got.legs != k:
                raise ShapeMismatchError(f"omega for {k} legs has {got.legs} legs")
            return got
        if k <= 1:
            return identity(site_dim, k, backend)
        raise MissingComponentError(f"omega for {k} legs is missing")

    return omega(m + n) @ kron(invert(omega(m)), invert(omega(n)))


def te1_residual(f_components: dict, m: int, n: int, k: int):
    """Residual of the component twist equation at indices (m, n, k):

    F^{m+n,k} (F^{m,n} x I_k)  vs  F^{m,n+k} (I_m x F^{n,k}).
    """
    if min(m, n, k) < 0:
        raise ShapeMismatchError("indices must be non-negative")
    if not f_components:
        raise MissingComponentError("component map is empty")
    probe = next(iter(f_components.values()))
    site_dim, backend = probe.site_dim, probe.backend
    lhs = _lookup(f_components, m + n, k) @ kron(
        _lookup(f_components, m, n), identity(site_dim, k, backend)
    )
    rhs = _lookup(f_components, m, n + k) @ kron(
        identity(site_dim, m, backend), _lookup(f_components, n, k)
    )
    return residual(lhs, rhs)


def r_fused_from_twist(
    r: Operator, f: Operator, m: int, n: int, max_legs: int = DEFAULT_MAX_LEGS
) -> Operator:
    """Fuse the twisted matrix: fuse_r(F21^-1 R F, m, n).

    Convenience route for comparing "twist then fuse" against conjugating
    the fused block by twist components.
    """
    return fuse_r(apply_twist(r, f), m, n, max_legs)
