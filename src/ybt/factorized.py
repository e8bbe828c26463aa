"""Factorized twists: two product regimes that build a full pair from one F.

Variant A couples the legs so that the three-leg datum splits into
pairwise products of F (conditions A1..A3 below); variant B does the same
through the twisted matrix (conditions B1..B2).  Either regime yields a
twisting pair and explicit n-leg intertwiner products.

Variant A conditions on (R, F), all on three legs:
    A1:  R23 F13 F12 = F12 F13 R23
    A2:  R12 F23 F13 = F13 F23 R12
    A3:  F12 F23 = F23 F12
Variant B conditions, with Rt = F21^-1 R F:
    B1:  R23 F12 F13 = F13 F12 R23
    B2:  Rt12 F13 F23 = F23 F13 Rt12
"""

from __future__ import annotations

import warnings

from .errors import ConditionWarning, ShapeMismatchError
from .tensor_core import Operator, embed, identity, residual
from .twist_engine import CheckReport, TwistPair, apply_twist


def _split_embeds(f: Operator):
    return embed(f, [1, 2], 3), embed(f, [1, 3], 3), embed(f, [2, 3], 3)


def _require_two_leg(r: Operator, f: Operator):
    if r.legs != 2 or f.legs != 2:
        raise ShapeMismatchError("split checks need two-leg r and f")
    if r.site_dim != f.site_dim or r.backend != f.backend:
        raise ShapeMismatchError("r and f must share site_dim and backend")


def check_split_A(r: Operator, f: Operator, tol: float | None = None) -> CheckReport:
    """Residuals of the variant-A factorization conditions A1, A2, A3."""
    _require_two_leg(r, f)
    f12, f13, f23 = _split_embeds(f)
    r12 = embed(r, [1, 2], 3)
    r23 = embed(r, [2, 3], 3)
    residuals = {
        "A1": residual((r23, f13, f12), (f12, f13, r23)),
        "A2": residual((r12, f23, f13), (f13, f23, r12)),
        "A3": residual((f12, f23), (f23, f12)),
    }
    return CheckReport.build(residuals, r.backend, tol)


def pair_from_split_A(f: Operator) -> TwistPair:
    """Build the pair (F, F13 F23 F12) of a variant-A twist.

    Under A3 the two candidates F13 F23 F12 and F13 F12 F23 coincide; if
    they differ the discrepancy is reported as a warning and the first is
    returned, which keeps negative-control studies possible.
    """
    if f.legs != 2:
        raise ShapeMismatchError("f must have 2 legs")
    f12, f13, f23 = _split_embeds(f)
    g = f13 @ f23 @ f12
    gap = residual(g, (f13, f12, f23))
    if gap != 0:
        warnings.warn(
            f"the two three-leg candidates differ (residual {gap}); "
            "condition A3 does not hold for this f",
            ConditionWarning,
            stacklevel=2,
        )
    return TwistPair(f, g)


def check_split_B(r: Operator, f: Operator, tol: float | None = None) -> CheckReport:
    """Residuals of the variant-B conditions B1 and B2 (B2 uses the twisted matrix)."""
    _require_two_leg(r, f)
    rt = apply_twist(r, f)
    f12, f13, f23 = _split_embeds(f)
    r23 = embed(r, [2, 3], 3)
    rt12 = embed(rt, [1, 2], 3)
    residuals = {
        "B1": residual((r23, f12, f13), (f13, f12, r23)),
        "B2": residual((rt12, f13, f23), (f23, f13, rt12)),
    }
    return CheckReport.build(residuals, r.backend, tol)


def pair_from_split_B(r: Operator, f: Operator) -> TwistPair:
    """Build the pair (F, F12 F13 F23) of a variant-B twist.

    The split conditions are re-verified and reported as a warning on
    failure; the formula value is returned either way.
    """
    report = check_split_B(r, f)
    if not report.verdict:
        warnings.warn(
            f"variant-B conditions do not hold: {report.residuals}",
            ConditionWarning,
            stacklevel=2,
        )
    f12, f13, f23 = _split_embeds(f)
    return TwistPair(f, f12 @ f13 @ f23)


def _check_omega_args(f: Operator, n: int):
    if f.legs != 2:
        raise ShapeMismatchError("f must have 2 legs")
    if n < 2:
        raise ShapeMismatchError(f"omega products need n >= 2, got {n}")


def omega_split_A(f: Operator, n: int) -> Operator:
    """The n-leg product (F1n ... F12)(F2n ... F23) ... (F(n-1)n)."""
    _check_omega_args(f, n)
    out = identity(f.site_dim, n, f.backend)
    for i in range(1, n):
        for j in range(n, i, -1):
            out = out @ embed(f, [i, j], n)
    return out


def omega_split_B(f: Operator, n: int) -> Operator:
    """The n-leg product (F12 ... F1n)(F23 ... F2n) ... (F(n-1)n)."""
    _check_omega_args(f, n)
    out = identity(f.site_dim, n, f.backend)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out = out @ embed(f, [i, j], n)
    return out
