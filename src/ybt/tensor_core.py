"""Exact dense operators on tensor powers of one site space.

An :class:`Operator` is a square matrix acting on V x ... x V (``legs``
factors, each of dimension ``site_dim``), stored dense and row-major over
the lexicographic multi-index basis (i1..in), leftmost index slowest.

Two scalar backends exist.  ``rational`` keeps every entry as an exact
``fractions.Fraction`` and is the reference semantics: residuals of
identities that hold are exactly zero.  ``complex64`` keeps entries as
double-precision complex pairs for user-supplied numeric matrices and is
judged against a tolerance (default 1e-9).  Backends never mix silently.

Exact linear algebra on the rational backend rests on one kernel: rows
are scaled to integers and reduced by fraction-free, content-stripped
sparse elimination (``_eliminate``), optionally followed by one reduced
echelon pass (``_back_substitute``).  Inverses, determinants, ranks and
the null spaces of ``subspace_solver`` all come from it.

Subscript convention, pinned once for the whole package: the operator
X_{s1 s2 ...} places tensor factor k on leg s_k; as a matrix this is
P_sigma X P_sigma^-1 with P_sigma the leg-permutation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

from .errors import BackendMismatchError, ShapeMismatchError, SingularOperatorError

RATIONAL = "rational"
COMPLEX64 = "complex64"
BACKENDS = (RATIONAL, COMPLEX64)

#: Verdict tolerance for the complex backend; rational verdicts are exact.
DEFAULT_TOLERANCE = 1e-9

Scalar = Fraction | complex


def _zero(backend: str) -> Scalar:
    return Fraction(0) if backend == RATIONAL else complex(0)


def _one(backend: str) -> Scalar:
    return Fraction(1) if backend == RATIONAL else complex(1)


def as_scalar(value, backend: str) -> Scalar:
    """Coerce a plain number to the given backend, rejecting cross-backend mixes."""
    if backend == RATIONAL:
        if isinstance(value, (Fraction, int)):
            return Fraction(value)
        raise BackendMismatchError(
            f"rational backend cannot absorb {type(value).__name__} values"
        )
    if backend == COMPLEX64:
        if isinstance(value, Fraction):
            raise BackendMismatchError("complex64 backend cannot absorb Fraction values")
        if isinstance(value, (int, float, complex)):
            return complex(value)
        raise BackendMismatchError(
            f"complex64 backend cannot absorb {type(value).__name__} values"
        )
    raise BackendMismatchError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class Operator:
    """Dense square matrix on ``legs`` tensor factors of dimension ``site_dim``.

    ``legs = 0`` denotes a pure scalar (a 1x1 matrix); the unit of the
    0-leg space is ``identity(site_dim, 0)``.  Instances are immutable and
    safe to share between threads; all operations are pure functions.
    """

    site_dim: int
    legs: int
    backend: str
    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.site_dim < 1:
            raise ShapeMismatchError(f"site_dim must be positive, got {self.site_dim}")
        if self.legs < 0:
            raise ShapeMismatchError(f"legs must be non-negative, got {self.legs}")
        if self.backend not in BACKENDS:
            raise BackendMismatchError(f"unknown backend {self.backend!r}")
        side = self.site_dim**self.legs
        if len(self.rows) != side or any(len(r) != side for r in self.rows):
            raise ShapeMismatchError(
                f"entries must form a {side}x{side} matrix for "
                f"site_dim={self.site_dim}, legs={self.legs}"
            )

    @property
    def side(self) -> int:
        return self.site_dim**self.legs

    @classmethod
    def from_rows(cls, site_dim: int, legs: int, rows, backend: str = RATIONAL) -> Operator:
        """Build an operator, coercing every entry to the backend's scalar type."""
        frozen = tuple(tuple(as_scalar(v, backend) for v in row) for row in rows)
        return cls(site_dim, legs, backend, frozen)

    def __repr__(self):  # full rows are huge; keep the repr scannable
        return (
            f"Operator(site_dim={self.site_dim}, legs={self.legs}, "
            f"backend={self.backend!r}, side={self.side})"
        )

    def __matmul__(self, other: Operator) -> Operator:
        _check_same_space(self, other)
        return Operator(self.site_dim, self.legs, self.backend,
                        _matmul_rows(self.rows, other.rows, _zero(self.backend)))

    def __add__(self, other: Operator) -> Operator:
        _check_same_space(self, other)
        rows = tuple(tuple(x + y for x, y in zip(ra, rb))
                     for ra, rb in zip(self.rows, other.rows))
        return Operator(self.site_dim, self.legs, self.backend, rows)

    def __sub__(self, other: Operator) -> Operator:
        _check_same_space(self, other)
        rows = tuple(tuple(x - y for x, y in zip(ra, rb))
                     for ra, rb in zip(self.rows, other.rows))
        return Operator(self.site_dim, self.legs, self.backend, rows)

    def __rmul__(self, scalar) -> Operator:
        c = as_scalar(scalar, self.backend)
        rows = tuple(tuple(c * v for v in row) for row in self.rows)
        return Operator(self.site_dim, self.legs, self.backend, rows)

    def __neg__(self) -> Operator:
        return (-1) * self if self.backend == RATIONAL else (-1.0) * self


def _check_same_space(a: Operator, b: Operator):
    if a.backend != b.backend:
        raise BackendMismatchError(f"backend mismatch: {a.backend} vs {b.backend}")
    if a.site_dim != b.site_dim or a.legs != b.legs:
        raise ShapeMismatchError(
            f"operator spaces differ: (site_dim={a.site_dim}, legs={a.legs}) vs "
            f"(site_dim={b.site_dim}, legs={b.legs})"
        )


def _matmul_rows(arows, brows, zero):
    # Dense product that skips exact zeros; catalog matrices are sparse
    # enough that this dominates no acceptance budget.
    side = len(brows[0])
    bnz = [tuple((j, v) for j, v in enumerate(row) if v) for row in brows]
    out = []
    for arow in arows:
        acc = [zero] * side
        for k, a in enumerate(arow):
            if not a:
                continue
            for j, b in bnz[k]:
                acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return tuple(out)


def identity(site_dim: int, legs: int, backend: str = RATIONAL) -> Operator:
    """Identity on ``legs`` factors; ``legs = 0`` gives the scalar unit."""
    side = site_dim**legs
    one, zero = _one(backend), _zero(backend)
    rows = tuple(tuple(one if i == j else zero for j in range(side)) for i in range(side))
    return Operator(site_dim, legs, backend, rows)


def swap(site_dim: int, backend: str = RATIONAL) -> Operator:
    """The two-leg permutation operator P: P(v x w) = w x v."""
    side = site_dim * site_dim
    zero, one = _zero(backend), _one(backend)
    rows = [[zero] * side for _ in range(side)]
    for i in range(site_dim):
        for j in range(site_dim):
            rows[i * site_dim + j][j * site_dim + i] = one
    return Operator(site_dim, 2, backend, tuple(tuple(r) for r in rows))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product in leg order: `a` occupies the leading legs."""
    if a.backend != b.backend:
        raise BackendMismatchError(f"backend mismatch: {a.backend} vs {b.backend}")
    if a.site_dim != b.site_dim:
        raise ShapeMismatchError(f"site_dim mismatch: {a.site_dim} vs {b.site_dim}")
    da, db = a.side, b.side
    zero = _zero(a.backend)
    rows = [[zero] * (da * db) for _ in range(da * db)]
    for i in range(da):
        arow = a.rows[i]
        for j in range(da):
            v = arow[j]
            if not v:
                continue
            for k in range(db):
                brow = b.rows[k]
                out = rows[i * db + k]
                for l in range(db):
                    w = brow[l]
                    if w:
                        out[j * db + l] = v * w
    return Operator(a.site_dim, a.legs + b.legs, a.backend, tuple(tuple(r) for r in rows))


def _digits(idx: int, base: int, n: int) -> list[int]:
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = idx % base
        idx //= base
    return out


def _index(digits, base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def _validate_sigma(sigma, n: int) -> tuple[int, ...]:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ShapeMismatchError(f"{sigma} is not a permutation of 1..{n}")
    return sigma


def leg_permute(x: Operator, sigma) -> Operator:
    """Move tensor factor k of `x` to leg sigma[k] (1-based images).

    On a simple tensor a1 ⊗ ... ⊗ an the result carries a_k on leg
    sigma(k); as a matrix it is P_sigma x P_sigma^-1.
    """
    sigma = _validate_sigma(sigma, x.legs)
    n, N, side = x.legs, x.site_dim, x.side
    table = [0] * side
    for a in range(side):
        ds = _digits(a, N, n)
        nd = [0] * n
        for k in range(n):
            nd[sigma[k] - 1] = ds[k]
        table[a] = _index(nd, N)
    zero = _zero(x.backend)
    rows = [[zero] * side for _ in range(side)]
    for a in range(side):
        xrow = x.rows[a]
        out = rows[table[a]]
        for b in range(side):
            v = xrow[b]
            if v:
                out[table[b]] = v
    return Operator(N, n, x.backend, tuple(tuple(r) for r in rows))


def embed(x: Operator, slots, total_legs: int) -> Operator:
    """Let `x` act on the named legs (factor t on slots[t]), identity elsewhere.

    Equals leg_permute(kron(x, identity), sigma) for the sigma sending the
    leading legs to `slots` and filling the rest monotonically.
    """
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise ShapeMismatchError(f"repeated slot in {slots}")
    if len(slots) != x.legs:
        raise ShapeMismatchError(f"{len(slots)} slots given for a {x.legs}-leg operator")
    if any(s < 1 or s > total_legs for s in slots):
        raise ShapeMismatchError(f"slot out of range 1..{total_legs} in {slots}")
    N = x.site_dim
    rest = [s for s in range(1, total_legs + 1) if s not in slots]
    stride = {s: N ** (total_legs - s) for s in range(1, total_legs + 1)}
    rest_offsets = [
        sum(d * stride[s] for d, s in zip(combo, rest))
        for combo in _iproduct(range(N), repeat=len(rest))
    ]
    side = N**total_legs
    zero = _zero(x.backend)
    rows = [[zero] * side for _ in range(side)]
    for a in range(x.side):
        da = _digits(a, N, x.legs)
        base_row = sum(d * stride[s] for d, s in zip(da, slots))
        xrow = x.rows[a]
        for b in range(x.side):
            v = xrow[b]
            if not v:
                continue
            db = _digits(b, N, x.legs)
            base_col = sum(d * stride[s] for d, s in zip(db, slots))
            for off in rest_offsets:
                rows[base_row + off][base_col + off] = v
    return Operator(N, total_legs, x.backend, tuple(tuple(r) for r in rows))


def residual(x: Operator, y: Operator):
    """Max absolute entry of x - y; exact Fraction on the rational backend."""
    _check_same_space(x, y)
    worst = max(abs(v - w) for rx, ry in zip(x.rows, y.rows) for v, w in zip(rx, ry))
    return worst if x.backend == RATIONAL else float(worst)


# ---------------------------------------------------------------------------
# exact integer elimination; inversion and determinants
# ---------------------------------------------------------------------------


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _integerize(row: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Scale a sparse rational row to integers; returns (row, multiplier)."""
    lcm = math.lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (lcm // v.denominator) for j, v in row.items()}, lcm


def _eliminate(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Online fraction-free forward elimination of sparse integer rows.

    Returns pivot column -> content-free row whose lowest column is the
    pivot.  Every row operation is p*row - a*pivot_row followed by exact
    division by the content, so no inexact division can occur.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _primitive(row)
                break
            p, a = piv[c], row[c]
            new: dict[int, int] = {}
            for j, v in row.items():
                w = p * v - a * piv.get(j, 0)
                if w:
                    new[j] = w
            for j, v in piv.items():
                if j not in row:
                    new[j] = -a * v
            row = _primitive(new) if new else new
    return pivots


def _back_substitute(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced echelon form of `_eliminate` output, still content-free integers.

    Each returned row keeps its pivot and has a zero in every other pivot
    column; its remaining entries lie in non-pivot columns.
    """
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        hits = [j for j in row if j != c and j in pivots]
        if hits:
            lcm = math.lcm(*(reduced[j][j] for j in hits))
            new = {j: v * lcm for j, v in row.items() if j == c or j not in pivots}
            for j in hits:
                red = reduced[j]
                f = row[j] * (lcm // red[j])
                for k, w in red.items():
                    if k != j:
                        new[k] = new.get(k, 0) - f * w
            row = _primitive({k: v for k, v in new.items() if v})
        reduced[c] = row
    return reduced


def _augmented_pivots(x: Operator) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Eliminate the integer rows of [M x | I], M the diagonal of row multipliers."""
    side = x.side
    rows, mults = [], []
    for i, xrow in enumerate(x.rows):
        ints, m = _integerize({j: v for j, v in enumerate(xrow) if v})
        ints[side + i] = 1
        rows.append(ints)
        mults.append(m)
    return _eliminate(rows), mults


def _invert_rational(x: Operator) -> Operator:
    side = x.side
    pivots, mults = _augmented_pivots(x)
    rank = sum(1 for c in pivots if c < side)
    if rank < side:
        raise SingularOperatorError(side, rank)
    # reduced row i is [p_i e_i | B_i] with B_i / p_i row i of (M x)^-1,
    # and x^-1 = (M x)^-1 M
    reduced = _back_substitute(pivots)
    zero = Fraction(0)
    rows = []
    for i in range(side):
        row = reduced[i]
        p = row[i]
        out = [zero] * side
        for j, v in row.items():
            if j >= side:
                out[j - side] = Fraction(v * mults[j - side], p)
        rows.append(tuple(out))
    return Operator(x.site_dim, x.legs, RATIONAL, tuple(rows))


def _invert_complex(x: Operator) -> Operator:
    side = x.side
    m = [list(row) + [complex(int(i == j)) for j in range(side)]
         for i, row in enumerate(x.rows)]
    scale = max((abs(v) for row in x.rows for v in row), default=0.0)
    cutoff = scale * 1e-13
    for k in range(side):
        piv = max(range(k, side), key=lambda r: abs(m[r][k]))
        if abs(m[piv][k]) <= cutoff:
            raise SingularOperatorError(side, k)
        m[piv], m[k] = m[k], m[piv]
        p = m[k][k]
        m[k] = [v / p for v in m[k]]
        mk = m[k]
        for i in range(side):
            if i == k:
                continue
            a = m[i][k]
            if a:
                m[i] = [v - a * w for v, w in zip(m[i], mk)]
    rows = tuple(tuple(m[i][side:]) for i in range(side))
    return Operator(x.site_dim, x.legs, COMPLEX64, rows)


def invert(x: Operator) -> Operator:
    """Exact inverse (rational backend) or partial-pivot inverse (complex).

    On the rational backend the product with `x` is exactly the identity.
    Raises :class:`SingularOperatorError` carrying the rank found.
    """
    if x.backend == RATIONAL:
        return _invert_rational(x)
    return _invert_complex(x)


def determinant(x: Operator):
    """Exact determinant (rational) or partial-pivot LU determinant (complex)."""
    side = x.side
    if x.backend == COMPLEX64:
        m = [list(row) for row in x.rows]
        det = complex(1)
        for k in range(side):
            piv = max(range(k, side), key=lambda r: abs(m[r][k]))
            if m[piv][k] == 0:
                return complex(0)
            if piv != k:
                m[piv], m[k] = m[k], m[piv]
                det = -det
            p = m[k][k]
            det *= p
            for i in range(k + 1, side):
                a = m[i][k] / p
                if a:
                    m[i] = [v - a * w for v, w in zip(m[i], m[k])]
        return det
    pivots, mults = _augmented_pivots(x)
    if any(c not in pivots for c in range(side)):
        return Fraction(0)
    # The pivot rows are [U | L] with U = L M x upper triangular.  The row
    # for pivot c descends from input row origin[c], the last column its
    # identity part touches, so L is a row permutation of a lower-triangular
    # matrix and det x = sign * prod(diag U) / prod(diag L) / prod(M).
    origin = [max(pivots[c]) - side for c in range(side)]
    num, den = 1, 1
    for c, i in enumerate(origin):
        num *= pivots[c][c]
        den *= pivots[c][side + i] * mults[i]
    inversions = sum(a > b for k, a in enumerate(origin) for b in origin[k + 1:])
    return Fraction(-num if inversions % 2 else num, den)
