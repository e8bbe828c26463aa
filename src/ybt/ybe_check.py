"""Residual checks: Yang-Baxter equation, braid form, mixed-space YBE, RTT.

Every function embeds its operators in the full tensor space and returns
the worst entry of the difference of the two sides of the identity, so a
zero is an unconditional certificate on the rational backend.  Each side
is handed to ``residual`` as a tuple of factors: on the rational backend
the products are compared unsorted and never stored.
"""

from __future__ import annotations

from .errors import ShapeMismatchError
from .tensor_core import Operator, embed, residual, swap


def _require_legs(x: Operator, legs: int, name: str):
    if x.legs != legs:
        raise ShapeMismatchError(f"{name} must have {legs} legs, got {x.legs}")


def ybe_residual(r: Operator):
    """Residual of R12 R13 R23 - R23 R13 R12 on three legs: the RTT residual with T = R."""
    return rtt_residual(r, r)


def braid_matrix(r: Operator) -> Operator:
    """P*R, the braid form of a two-leg operator."""
    _require_legs(r, 2, "r")
    return swap(r.site_dim, r.backend) @ r


def mixed_ybe_residual(
    r_mn: Operator, r_mk: Operator, r_nk: Operator, m: int, n: int, k: int
):
    """Mixed Yang-Baxter residual for fused blocks of sizes (m, n, k).

    The three operators couple leg groups (1|2), (1|3) and (2|3) of the
    m+n+k-leg space; block subscripts in the contracted identity refer to
    those groups.
    """
    if min(m, n, k) < 0:
        raise ShapeMismatchError("group sizes must be non-negative")
    if r_mn.legs != m + n or r_mk.legs != m + k or r_nk.legs != n + k:
        raise ShapeMismatchError(
            f"leg counts {r_mn.legs}, {r_mk.legs}, {r_nk.legs} do not match "
            f"group sizes ({m}, {n}, {k})"
        )
    if len({r_mn.site_dim, r_mk.site_dim, r_nk.site_dim}) != 1:
        raise ShapeMismatchError("site_dim mismatch between fused blocks")
    total = m + n + k
    g1 = list(range(1, m + 1))
    g2 = list(range(m + 1, m + n + 1))
    g3 = list(range(m + n + 1, total + 1))
    a = embed(r_mn, g1 + g2, total)
    b = embed(r_mk, g1 + g3, total)
    c = embed(r_nk, g2 + g3, total)
    return residual((a, b, c), (c, b, a))


def rtt_residual(r: Operator, t: Operator):
    """Residual of R12 T13 T23 - T23 T13 R12 on three legs."""
    _require_legs(r, 2, "r")
    _require_legs(t, 2, "t")
    r12 = embed(r, [1, 2], 3)
    t13 = embed(t, [1, 3], 3)
    t23 = embed(t, [2, 3], 3)
    return residual((r12, t13, t23), (t23, t13, r12))
