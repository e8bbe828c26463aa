"""Twisting pairs (F, G), the twist transformation and its groupoid laws.

A twist of a two-leg solution R is R -> F21^-1 R F for an invertible F.
The pair (F, G) with an invertible three-leg G determines the sufficient
conditions under which the twisted matrix solves the Yang-Baxter equation
again: with phi = G F12^-1 and psi = G F23^-1,

    cond1:  phi123 F12 = psi123 F23      (holds identically by construction)
    cond2:  R12 phi123 = phi213 R12
    cond3:  R23 psi123 = psi132 R23

Pairs compose as (F F', G G'), invert as (F^-1, G^-1), and (I, I) is the
identity; R-symmetric gauge elements move a pair inside its orbit.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cached_property

from .errors import ConditionWarning, ShapeMismatchError, SingularOperatorError
from .tensor_core import (
    DEFAULT_TOLERANCE,
    RATIONAL,
    Operator,
    Record,
    _rank,
    embed,
    identity,
    invert,
    kron,
    leg_permute,
    residual,
    solve,
)
from .ybe_check import ybe_residual


class TwistPair(Record):
    """Invertible (F on 2 legs, G on 3 legs); inverses cached eagerly.

    The derived phi = G F12^-1 and psi = G F23^-1 are invertible by
    construction and satisfy cond1 identically, so only cond2 and cond3
    carry information.
    """

    f: Operator
    g: Operator

    def __post_init__(self):
        if self.f.legs != 2 or self.g.legs != 3:
            raise ShapeMismatchError(
                f"a twist pair needs (2, 3) legs, got ({self.f.legs}, {self.g.legs})"
            )
        if self.f.site_dim != self.g.site_dim or self.f.backend != self.g.backend:
            raise ShapeMismatchError("f and g must share site_dim and backend")
        self.f_inv  # noqa: B018  -- invertibility is a construction-time invariant
        self.g_inv  # noqa: B018

    @cached_property
    def f_inv(self) -> Operator:
        return invert(self.f)

    @cached_property
    def g_inv(self) -> Operator:
        return invert(self.g)

    @cached_property
    def phi(self) -> Operator:
        return self.g @ embed(self.f_inv, [1, 2], 3)

    @cached_property
    def psi(self) -> Operator:
        return self.g @ embed(self.f_inv, [2, 3], 3)

    @property
    def site_dim(self) -> int:
        return self.f.site_dim

    @property
    def backend(self) -> str:
        return self.f.backend


def identity_pair(site_dim: int, backend: str = RATIONAL) -> TwistPair:
    """The pair (I, I) realizing the identical transformation."""
    return TwistPair(identity(site_dim, 2, backend), identity(site_dim, 3, backend))


class CheckReport(Record):
    """Named residuals plus a verdict.

    The verdict is true iff every *gating* residual vanishes (rational
    backend) or stays below the tolerance (complex backend); residuals not
    listed in ``gates`` are informational.  By default all residuals gate.
    """

    residuals: dict
    verdict: bool
    tolerance: float | None
    gates: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def build(
        cls,
        residuals: dict,
        backend: str,
        tol: float | None = None,
        gates=None,
        notes=(),
    ) -> CheckReport:
        gates = tuple(gates) if gates is not None else tuple(residuals)
        tolerance = None if backend == RATIONAL else (
            DEFAULT_TOLERANCE if tol is None else tol
        )
        verdict = all(
            magnitude_ok(residuals[name], backend, tolerance) for name in gates
        )
        return cls(dict(residuals), verdict, tolerance, gates, tuple(notes))


def magnitude_ok(value, backend: str, tol: float | None) -> bool:
    if backend == RATIONAL:
        return value == 0
    return abs(value) < (DEFAULT_TOLERANCE if tol is None else tol)


def apply_twist(r: Operator, f: Operator) -> Operator:
    """F21^-1 R F, with F21 the leg swap of F."""
    if r.legs != 2 or f.legs != 2:
        raise ShapeMismatchError("apply_twist needs two-leg operators")
    f21 = leg_permute(f, (2, 1))
    if r.backend == RATIONAL:
        # F21^-1 (R F): the product of input-size integers comes before the
        # solve, not after it on determinant-sized ones
        return solve(f21, r @ f)
    return solve(f21, r) @ f  # (F21^-1 R) F, the complex rounding order


def _twisted(r: Operator, pair: TwistPair) -> Operator:
    """``apply_twist(r, pair.f)`` by the cached F21^-1 = (F^-1)21, once `r` fits the pair."""
    if r.legs != 2:
        raise ShapeMismatchError("r must have 2 legs")
    if r.site_dim != pair.site_dim or r.backend != pair.backend:
        raise ShapeMismatchError("r and pair must share site_dim and backend")
    return leg_permute(pair.f_inv, (2, 1)) @ r @ pair.f


def check_pair(r: Operator, pair: TwistPair, tol: float | None = None) -> CheckReport:
    """Verify the twist conditions of a pair against a base R-matrix.

    The report carries the base YBE residual and the twisted one as
    information; the verdict gates on cond1..cond3 only, so a pair can be
    studied against a base R that itself fails the Yang-Baxter equation.
    """
    twisted = _twisted(r, pair)
    zero = Fraction(0) if r.backend == RATIONAL else 0.0
    r12 = embed(r, [1, 2], 3)
    r23 = embed(r, [2, 3], 3)
    phi, psi = pair.phi, pair.psi
    cond2 = residual((r12, phi), (leg_permute(phi, (2, 1, 3)), r12))
    cond3 = residual((r23, psi), (leg_permute(psi, (1, 3, 2)), r23))
    residuals = {
        "ybe_r": ybe_residual(r),
        "cond1": zero,
        "cond2": cond2,
        "cond3": cond3,
        "ybe_r_twisted": ybe_residual(twisted),
    }
    return CheckReport.build(
        residuals,
        r.backend,
        tol,
        gates=("cond1", "cond2", "cond3"),
        notes=("cond1 holds identically: phi*F12 = G = psi*F23 by construction",),
    )


def aux_identity_residual(r: Operator, pair: TwistPair):
    """Residual of F12^-1 psi312^-1 R13 R23 phi123 F12 - Rt13 Rt23."""
    rt = _twisted(r, pair)
    # cached inverses only: psi^-1 = F23 G^-1
    f12 = embed(pair.f, [1, 2], 3)
    f12_inv = embed(pair.f_inv, [1, 2], 3)
    psi_bar_312 = leg_permute(embed(pair.f, [2, 3], 3) @ pair.g_inv, (3, 1, 2))
    r13 = embed(r, [1, 3], 3)
    r23 = embed(r, [2, 3], 3)
    lhs = (f12_inv, psi_bar_312, r13, r23, pair.phi, f12)
    return residual(lhs, (embed(rt, [1, 3], 3), embed(rt, [2, 3], 3)))


def compose_pairs(pair1: TwistPair, pair2: TwistPair) -> TwistPair:
    """(F F', G G'); the second pair is understood relative to the twist by the first."""
    return TwistPair(pair1.f @ pair2.f, pair1.g @ pair2.g)


def invert_pair(pair: TwistPair) -> TwistPair:
    """(F^-1, G^-1); composing with the original yields the identity pair."""
    return TwistPair(pair.f_inv, pair.g_inv)


def gauge_transform(
    pair: TwistPair,
    u1: Operator,
    u2: Operator,
    u3: Operator,
    r: Operator | None = None,
) -> TwistPair:
    """Move a pair along its gauge orbit: (u2 F (u1 x u1), u3 G (u1 x u1 x u1)).

    When `r` is supplied, u2 and u3 are tested for R-symmetry (commutation
    with the embedded braid matrices); failures are reported as warnings,
    not errors, since the similarity rule for the twisted matrix only needs
    u2 to be R-symmetric.
    """
    if (u1.legs, u2.legs, u3.legs) != (1, 2, 3):
        raise ShapeMismatchError("gauge elements must act on 1, 2 and 3 legs")
    for u in (u1, u2, u3):
        if u.backend == RATIONAL:
            rank = _rank(u)
            if rank < u.side:
                raise SingularOperatorError(u.side, rank)
        else:
            invert(u)  # raises SingularOperatorError with the rank found
    if r is not None:
        from .subspace_solver import r_symmetric_residual

        for name, u in (("u2", u2), ("u3", u3)):
            worst = r_symmetric_residual(r, u)
            if not magnitude_ok(worst, r.backend, None):
                warnings.warn(
                    f"gauge element {name} is not R-symmetric (residual {worst})",
                    ConditionWarning,
                    stacklevel=2,
                )
    uu = kron(u1, u1)
    uuu = kron(uu, u1)
    return TwistPair(u2 @ pair.f @ uu, u3 @ pair.g @ uuu)
