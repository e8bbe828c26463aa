"""Exact null spaces: R-symmetric tensors, braid intertwiner spaces, certificates.

The defining relations are linear in the unknown operator Z, vectorized
row-major.  They are built as sparse integer rows (both braid matrices
scaled by one common denominator) and solved by the fraction-free integer
elimination kernel of ``tensor_core`` (forward pass, sparsest rows first,
then reduced echelon form); every reported basis element is re-verified
by substitution into its system.  A solved basis keeps its sparse integer
kernel vectors, so membership tests and certificate searches never read
the dense operators back.  Deciding whether a computed subspace holds an
invertible element is done by a seeded randomized search with an explicit
budget; a miss is evidence, never a proof of non-existence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BackendMismatchError, ShapeMismatchError, SizeCapError, YbtError
from .tensor_core import (
    Operator,
    RATIONAL,
    Scalar,
    _back_substitute,
    _eliminate,
    _from_flat,
    _integerize,
    _primitive,
    _to_flat,
    determinant,
    embed,
    leg_permute,
    residual,
)
from .twist_engine import CheckReport
from .ybe_check import braid_matrix

#: Largest allowed side N^legs of the operators being solved for.
DEFAULT_SIZE_CAP = 64


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent operators spanning an exact solution space."""

    site_dim: int
    legs: int
    backend: str
    basis: tuple[Operator, ...]

    def __post_init__(self):
        for op in self.basis:
            if (op.site_dim, op.legs, op.backend) != (
                self.site_dim,
                self.legs,
                self.backend,
            ):
                raise ShapeMismatchError("basis elements must share one space")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def vectors(self) -> tuple[dict[int, Scalar], ...]:
        """Exact sparse vector of each element: row-major entry index -> entry.

        The solvers hand over the integer kernel vectors they computed; any
        other basis reads them off its operators once, on first use.  The
        dicts are shared, not copied: treat them as read-only.
        """
        return tuple(_vectorize(op) for op in self.basis)

    def is_independent(self) -> bool:
        """Exact rank check: dimension equals the rank of the stacked vectors."""
        pivots = _eliminate([_integerize(v)[0] for v in self.vectors if v])
        return len(pivots) == self.dimension


# ---------------------------------------------------------------------------
# exact null spaces over the shared integer elimination kernel
# ---------------------------------------------------------------------------


def _vectorize(op: Operator) -> dict[int, Scalar]:
    """Exact nonzero entries of `op` by row-major index, read off its storage."""
    flat, den = _to_flat(op), op.den
    return flat if den == 1 else {k: Fraction(v, den) for k, v in flat.items()}


def _kernel_basis(int_rows: list[dict[int, int]], num_vars: int) -> list[dict[int, int]]:
    """Canonical basis of the exact solution set of the integer rows of A x = 0.

    Basis vectors are integer, content-free, leading entry positive, one
    per free column in ascending column order.  The reduced echelon form
    is unique, so the basis does not depend on the order or positive
    scaling of the rows; the sparsest rows are eliminated first.
    """
    int_rows = sorted((row for row in int_rows if row), key=len)
    reduced = _back_substitute(_eliminate(int_rows))
    # a reduced row reads p x_c + sum(v x_f) = 0 over free columns f
    free_cols: dict[int, list[tuple[int, int, int]]] = {}
    for c, row in reduced.items():
        p = row[c]
        for f, v in row.items():
            if f != c:
                free_cols.setdefault(f, []).append((c, v, p))
    basis = []
    for f in range(num_vars):
        if f in reduced:
            continue
        terms = free_cols.get(f, ())
        scale = math.lcm(*(p // math.gcd(p, v) for _, v, p in terms))
        vec = {f: scale}
        for c, v, p in terms:
            vec[c] = -v * scale // p
        vec = _primitive(vec)
        if vec[min(vec)] < 0:
            vec = {j: -v for j, v in vec.items()}
        basis.append(vec)
    _verify_kernel(int_rows, basis)
    return basis


def _verify_kernel(int_rows: list[dict[int, int]], basis: list[dict[int, int]]):
    # independent substitution of every vector into every touched equation
    touching: dict[int, list[tuple[int, int]]] = {}
    for ei, row in enumerate(int_rows):
        for j, v in row.items():
            touching.setdefault(j, []).append((ei, v))
    for vec in basis:
        sums: dict[int, int] = {}
        for j, val in vec.items():
            for ei, coef in touching.get(j, ()):
                sums[ei] = sums.get(ei, 0) + coef * val
        if any(sums.values()):
            raise YbtError("kernel vector fails its system")


def _solved_basis(site_dim: int, legs: int, vectors: list[dict[int, int]]) -> SubspaceBasis:
    ops = tuple(_from_flat(site_dim, legs, 1, v) for v in vectors)
    basis = SubspaceBasis(site_dim, legs, RATIONAL, ops)
    # seed the cached property: the kernel vectors are the exact entries
    basis.__dict__["vectors"] = tuple(vectors)
    return basis


# ---------------------------------------------------------------------------
# the linear systems
# ---------------------------------------------------------------------------


def _require_exact(op: Operator, what: str):
    if op.backend != RATIONAL:
        raise BackendMismatchError(
            f"{what} requires the rational backend; complex matrices can only "
            "be checked for residuals, not solved exactly"
        )


def _commutation_equations(b_left: Operator, b_right: Operator) -> list[dict[int, int]]:
    """Integer rows of D (B_left Z - Z B_right) = 0 over vec(Z).

    D is the common denominator of both braid matrices, so the stored
    integer entries only need scaling; a positive scale leaves the
    solution set alone.
    """
    side = b_left.side
    den = math.lcm(b_left.den, b_right.den)
    sl, sr = den // b_left.den, den // b_right.den
    left = [[(c, sl * v) for c, v in row] for row in b_left.entries]
    right: list[list[tuple[int, int]]] = [[] for _ in range(side)]
    for c, row in enumerate(b_right.entries):
        for b, v in row:
            right[b].append((c, sr * v))
    eqs = []
    for a in range(side):
        for b in range(side):
            row = {c * side + b: v for c, v in left[a]}
            for c, v in right[b]:
                key = a * side + c
                row[key] = row.get(key, 0) - v
            # only the (a, b) entry is written by both products
            if row.get(a * side + b) == 0:
                del row[a * side + b]
            if row:
                eqs.append(row)
    return eqs


def _embedded_braids(r: Operator, n: int) -> list[Operator]:
    b = braid_matrix(r)
    return [embed(b, [i, i + 1], n) for i in range(1, n)]


def _check_cap(site_dim: int, n: int, size_cap: int):
    if site_dim**n > size_cap:
        raise SizeCapError(
            f"operators on {n} legs have side {site_dim ** n}, above the cap "
            f"{size_cap}; raise size_cap explicitly to proceed"
        )


def _solve_pairs(
    r: Operator, r_tilde: Operator, n: int, size_cap: int
) -> SubspaceBasis:
    _check_cap(r.site_dim, n, size_cap)
    eqs: list[dict[int, int]] = []
    for bl, br in zip(_embedded_braids(r, n), _embedded_braids(r_tilde, n)):
        eqs.extend(_commutation_equations(bl, br))
    side = r.site_dim**n
    return _solved_basis(r.site_dim, n, _kernel_basis(eqs, side * side))


def r_symmetric_space(
    r: Operator, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> SubspaceBasis:
    """Exact basis of n-leg operators commuting with every adjacent braid matrix.

    For n = 1 the condition is empty and the full matrix space is returned.
    """
    if r.legs != 2:
        raise ShapeMismatchError("r must have 2 legs")
    _require_exact(r, "r_symmetric_space")
    if n < 1:
        raise ShapeMismatchError(f"n must be >= 1, got {n}")
    if n == 1:
        return _solved_basis(r.site_dim, 1, [{k: 1} for k in range(r.site_dim**2)])
    return _solve_pairs(r, r, n, size_cap)


def intertwiner_space(
    r: Operator, r_tilde: Operator, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> SubspaceBasis:
    """Exact basis of all n-leg Z with R_i Z = tau_i(Z) Rt_i at every position.

    Equivalently B_i Z = Z Bt_i for the embedded braid matrices, so for
    r = r_tilde this is exactly the R-symmetric space.
    """
    if r.legs != 2 or r_tilde.legs != 2:
        raise ShapeMismatchError("r and r_tilde must have 2 legs")
    if r.site_dim != r_tilde.site_dim or r.backend != r_tilde.backend:
        raise ShapeMismatchError("r and r_tilde must share site_dim and backend")
    _require_exact(r, "intertwiner_space")
    if n < 2:
        raise ShapeMismatchError(f"n must be >= 2, got {n}")
    return _solve_pairs(r, r_tilde, n, size_cap)


def braid_intertwine_residual(
    r: Operator, r_tilde: Operator, omega: Operator, tol: float | None = None
) -> CheckReport:
    """Positionwise residuals of R_i Omega - tau_i(Omega) Rt_i, i = 1..n-1."""
    if r.legs != 2 or r_tilde.legs != 2:
        raise ShapeMismatchError("r and r_tilde must have 2 legs")
    n = omega.legs
    if n < 2:
        raise ShapeMismatchError("omega must act on at least 2 legs")
    residuals = {}
    for i in range(1, n):
        r_i = embed(r, [i, i + 1], n)
        rt_i = embed(r_tilde, [i, i + 1], n)
        sigma = list(range(1, n + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        tau_omega = leg_permute(omega, sigma)
        residuals[f"position_{i}"] = residual(r_i @ omega, tau_omega @ rt_i)
    return CheckReport.build(residuals, omega.backend, tol)


def r_symmetric_residual(r: Operator, z: Operator):
    """Worst commutator entry of z against the embedded braid matrices."""
    if r.legs != 2:
        raise ShapeMismatchError("r must have 2 legs")
    if z.legs < 2:
        return Fraction(0) if z.backend == RATIONAL else 0.0
    worst = None
    for b in _embedded_braids(r, z.legs):
        res = residual(b @ z, z @ b)
        if worst is None or res > worst:
            worst = res
    return worst


def membership_coefficients(basis: SubspaceBasis, op: Operator):
    """Exact coefficients expressing `op` in `basis`, or None if outside the span."""
    if (op.site_dim, op.legs, op.backend) != (
        basis.site_dim,
        basis.legs,
        basis.backend,
    ):
        raise ShapeMismatchError("operator does not live in the basis space")
    _require_exact(op, "membership_coefficients")
    if not basis.basis:
        return None
    d = basis.dimension
    # unknowns: d combination coefficients plus one scale t for the target;
    # kernel vectors with t != 0 witness membership.  The columns are the
    # exact entries of the elements, so the coefficients need no rescaling.
    eqs: dict[int, dict[int, Scalar]] = {}
    for ci, col in enumerate(basis.vectors):
        for entry, v in col.items():
            eqs.setdefault(entry, {})[ci] = v
    for entry, v in _vectorize(op).items():
        eqs.setdefault(entry, {})[d] = -v
    kernel = _kernel_basis([_integerize(e)[0] for e in eqs.values()], d + 1)
    for vec in kernel:
        t = vec.get(d)
        if t:
            return tuple(Fraction(vec.get(i, 0), t) for i in range(d))
    return None


def invertible_certificate(
    basis: SubspaceBasis, budget: int = 50, seed: int = 0
):
    """Search for an invertible element of the span; None after `budget` misses.

    The first attempt is the all-ones combination, later ones draw integer
    coefficients from [-9, 9], widening the range every ten attempts.  A
    returned certificate is exact; a miss is explicitly not a proof that
    no invertible element exists.
    """
    if not basis.basis:
        return None
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    _require_exact(basis.basis[0], "invertible_certificate")
    rng = random.Random(seed)
    d = basis.dimension
    # sum c_i B_i in ints, over the common denominator of the elements
    den = math.lcm(*(op.den for op in basis.basis))
    entries = [
        [(k, v * (den // op.den)) for k, v in _to_flat(op).items()] for op in basis.basis
    ]
    for attempt in range(budget):
        if attempt == 0:
            coeffs = [1] * d
        else:
            bound = 9 + 9 * (attempt // 10)
            coeffs = [rng.randint(-bound, bound) for _ in range(d)]
        if not any(coeffs):
            continue
        acc: dict[int, int] = {}
        for c, nonzero in zip(coeffs, entries):
            if c:
                for k, v in nonzero:
                    acc[k] = acc.get(k, 0) + c * v
        combo = _from_flat(basis.site_dim, basis.legs, den, acc)
        if determinant(combo) != 0:
            return tuple(Fraction(c) for c in coeffs), combo
    return None
