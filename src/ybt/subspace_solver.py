"""Exact null spaces: R-symmetric tensors, braid intertwiner spaces, certificates.

The defining relations are linear in the unknown operator Z, vectorized
row-major.  They are sparse integer rows built once from the two-leg
block: the rows of D (b Z - Z bt) over the d^4 local unknowns are read off
the stored entries of the two braid matrices (D their common denominator),
and one row is kept of each set of rows equal up to a nonzero scale.  One
tagged pass of ``exact`` (``_tagged``) then picks a maximal independent
subset of these local rows, sparsest first, and writes each other local
row as an exact integer combination of the picked ones, checked entry by
entry.  A shift to a position and environment adds one offset to every
key, so each picked row is solved as a group: its terms at one position
and the list of that position's environment offsets; no shifted row is
built.  A weighted union-find collapses the one- and two-term rows
straight from the groups; the longer rows, rewritten over the component
roots, go to ``exact._echelon_kernel``.  Every basis element is
re-verified by substitution into every row of every group.  A shifted
dropped row is the same combination of the picked rows' copies, so every
distinct row is verified.
A solved basis is stored as its sparse integer kernel vectors alone; its
operators are built only when ``basis`` is first read, and no query here
reads them: dimension, membership, certificates and the file form all run
on the vectors.  Membership reads each coefficient off a cached reduced
echelon form of the basis (a solver basis already is one) and then checks
the combination exactly.  Deciding whether a computed subspace holds an
invertible element is done by a seeded randomized search with an explicit
budget.  Each attempt is decided by ``exact._full_rank_mod_p``, which
gives an exact witness either way, or else by the exact integer rank, so
the answers are those of an exact rank.  A miss is evidence, never a
proof of non-existence.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

from .errors import BackendMismatchError, ShapeMismatchError, SizeCapError, YbtError
from .exact import _echelon_kernel, _full_rank_mod_p, _normalised, _tagged
from .tensor_core import (
    Operator,
    RATIONAL,
    Record,
    Scalar,
    _from_flat,
    _placement,
    _rank,
    _to_flat,
    embed,
    leg_permute,
    residual,
)
from .twist_engine import CheckReport
from .ybe_check import braid_matrix

#: Largest allowed side N^legs of the operators being solved for.
DEFAULT_SIZE_CAP = 64


class SubspaceBasis(Record):
    """Linearly independent operators spanning an exact solution space.

    A basis returned by the solvers stores only its integer kernel vectors
    (`vectors`); its operators, the ``basis`` field, are built from them
    once, the first time ``basis`` is read (by ``repr``, ``==``, ``hash``
    or a loop over the elements).  Every query in this module reads the
    vectors, so a solve that is only measured, tested or written out
    builds no operator.  ``_reduced`` (not a field) is true for a solver
    basis, whose vectors already are a reduced echelon form.
    """

    site_dim: int
    legs: int
    backend: str
    basis: tuple[Operator, ...]

    _reduced = False

    def __post_init__(self):
        for op in self.basis:
            if (op.site_dim, op.legs, op.backend) != (
                self.site_dim,
                self.legs,
                self.backend,
            ):
                raise ShapeMismatchError("basis elements must share one space")

    @cached_property
    def basis(self) -> tuple[Operator, ...]:
        """The elements as operators; a solver basis builds them from its vectors."""
        return tuple(_from_flat(self.site_dim, self.legs, 1, v) for v in self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @cached_property
    def vectors(self) -> tuple[dict[int, Scalar], ...]:
        """Exact sparse vector of each element: row-major entry index -> entry.

        A solver basis is stored as its integer kernel vectors; any other
        basis reads them off its operators once, on first use.  The dicts
        are shared, not copied: treat them as read-only.
        """
        return tuple(_vectorize(op) for op in self.basis)

    def _integer_vectors(self) -> tuple[int, list[dict[int, int]]]:
        """``(den, ints)``: each element times ``den``, the elements' common denominator."""
        if self._reduced:  # a solver basis: integer vectors, den 1
            return 1, list(self.vectors)
        den = math.lcm(*(op.den for op in self.basis))
        return den, [{k: v * (den // op.den) for k, v in _to_flat(op).items()}
                     for op in self.basis]

    @cached_property
    def echelon(self) -> tuple[int, dict[int, tuple[dict[int, int], dict[int, int]]]]:
        """Reduced echelon form of the elements, with the combination behind each row.

        Returns ``(den, rows)``.  ``rows`` maps a pivot entry index c to
        ``(r, w)``: r is a content-free integer vector whose last nonzero is
        at c, with a zero at every other pivot, and r equals
        ``sum(w[i] * den * vectors[i])``, where ``den`` is the common
        denominator of the elements.  An element in the span of the earlier
        ones gets no row and appears in no ``w``.  A solver basis has this
        form by construction (`_kernel_basis` gives each vector its own free
        column, its last nonzero), so its rows are its vectors, unchecked;
        `membership_coefficients` still checks every combination exactly.
        Any other basis is reduced once, on first use, by `_tagged` with
        ``reduce``, its columns in descending order of entry index so that
        each pivot is a last nonzero.
        """
        if self._reduced:
            return 1, {max(v): (v, {i: 1}) for i, v in enumerate(self.vectors)}
        if self.dimension:
            _require_exact(self, "echelon")
        den, ints = self._integer_vectors()
        # entry k is column top - k: `_tagged` pivots at the lowest column,
        # so at the last nonzero entry
        top = self.site_dim ** (2 * self.legs) - 1
        pivots, _ = _tagged([{top - k: x for k, x in v.items()} for v in ints], top + 1, True)
        return den, {top - c: ({top - j: x for j, x in r.items()}, w)
                     for c, (r, w) in pivots.items()}

    def is_independent(self) -> bool:
        """Exact rank check: dimension equals the number of echelon pivots."""
        return len(self.echelon[1]) == self.dimension


# ---------------------------------------------------------------------------
# exact null spaces over the integer passes of ``exact``
# ---------------------------------------------------------------------------


def _vectorize(op: Operator) -> dict[int, Scalar]:
    """Exact nonzero entries of `op` by row-major index, read off its storage."""
    flat, den = _to_flat(op), op.den
    return flat if den == 1 else {k: Fraction(v, den) for k, v in flat.items()}


def _collapse(groups, num_vars: int):
    """Weighted union-find over the one- and two-term rows of the groups.

    A row a x_i + b x_j = 0 makes x_i = (-b/a) x_j; a one-term row zeroes
    its unknown.  Returns ``(parent, num, den, dead, longer)``: every
    unknown satisfies x_i = num[i] / den[i] * x_parent[i], where parent[i]
    is the largest member of its component (a root is its own parent, with
    ratio 1) and den[i] > 0; ``dead`` holds the roots of components forced
    to zero (a one-term row, or a cycle whose ratio product is not 1);
    ``longer`` lists the groups of three or more terms, untouched.
    """
    parent = list(range(num_vars))
    num = [1] * num_vars
    den = [1] * num_vars
    dead: set[int] = set()
    longer = []

    def find(i: int) -> int:
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        # compress from the node next to the root outward
        n = d = 1
        for j in reversed(path):
            n, d = num[j] * n, den[j] * d
            g = math.gcd(n, d)
            if g != 1:
                n, d = n // g, d // g
            parent[j], num[j], den[j] = i, n, d
        return i

    for terms, offsets in groups:
        if len(terms) > 2:
            longer.append((terms, offsets))
            continue
        if len(terms) == 1:
            dead.update(find(terms[0][0] + o) for o in offsets)
            continue
        (ki, a0), (kj, b0) = terms
        for o in offsets:
            i, j = ki + o, kj + o
            # most unknowns are a root or hang right under one
            ri, rj = parent[i], parent[j]
            if parent[ri] != ri:
                ri = find(i)
            if parent[rj] != rj:
                rj = find(j)
            # a x_i + b x_j = 0 over the roots, cleared of the positive dens
            a, b = a0 * num[i] * den[j], b0 * num[j] * den[i]
            if ri == rj:
                if a + b:
                    dead.add(ri)
                continue
            if ri > rj:
                ri, rj, a, b = rj, ri, b, a
            # x_ri = (-b / a) x_rj: the smaller root goes under the larger one
            n, d = (-b, a) if a > 0 else (b, -a)
            g = math.gcd(n, d)
            parent[ri], num[ri], den[ri] = rj, n // g, d // g
            if ri in dead:
                dead.discard(ri)
                dead.add(rj)
    for i, r in enumerate(parent):
        if parent[r] != r:
            find(i)
    return parent, num, den, dead, longer


def _kernel_basis(groups, num_vars: int) -> list[dict[int, int]]:
    """Canonical basis of the exact solution set of grouped integer rows.

    A group ``(terms, offsets)`` stands for the rows ``{o + k: v for k, v
    in terms}``, one for each o in ``offsets``; a lone row is the group
    ``(terms, (0,))``.  Basis vectors are integer, content-free, leading
    entry positive, one per free column in ascending order, where each has
    its last nonzero.  One- and two-term rows are collapsed first
    (`_collapse`); the longer rows, substituted onto the live roots and
    kept once per set equal up to sign, are eliminated sparsest first, and
    each kernel vector is expanded back over the members of its roots.
    Roots keep the order of their largest members, so the result is the
    unique reduced echelon basis of the system, whatever the order or
    positive scaling of the rows.
    Every vector is then re-verified.
    """
    groups = [group for group in groups if group[0]]
    parent, num, den, dead, longer = _collapse(groups, num_vars)
    members: dict[int, list[int]] = {}
    for i, r in enumerate(parent):
        if r not in dead:
            members.setdefault(r, []).append(i)
    # substitute x_j = num[j] / den[j] * x_root over the live roots, keeping
    # one content-free row, lowest root positive, of each set equal up to sign
    small: dict[frozenset, dict[int, int]] = {}
    for terms, offsets in longer:
        for o in offsets:
            lcm = math.lcm(*(den[k + o] for k, _ in terms))
            sub: dict[int, int] = {}
            for k, a in terms:
                j = k + o
                r = parent[j]
                if r in members:
                    sub[r] = sub.get(r, 0) + a * num[j] * (lcm // den[j])
            sub = {r: v for r, v in sub.items() if v}
            if sub:
                sub = _normalised(sub)
                small.setdefault(frozenset(sub.items()), sub)
    basis = []
    for y in _echelon_kernel(list(small.values()), sorted(members)):
        lcm = math.lcm(*(den[m] for r in y for m in members[r]))
        vec = {m: v * num[m] * (lcm // den[m]) for r, v in y.items() for m in members[r]}
        basis.append(_normalised(vec))
    _verify_kernel(groups, basis)
    return basis


def _verify_kernel(groups, basis: list[dict[int, int]]):
    # independent substitution of every vector into every row of every group;
    # a two-term row with each unknown in exactly one vector is checked directly
    only: dict[int, tuple[int, int]] = {}
    many: dict[int, list[tuple[int, int]]] = {}
    for b, vec in enumerate(basis):
        for j, val in vec.items():
            if j in many:
                many[j].append((b, val))
            elif j in only:
                many[j] = [only.pop(j), (b, val)]
            else:
                only[j] = (b, val)

    def fails(terms, o) -> bool:
        sums: dict[int, int] = {}
        for k, coef in terms:
            j = k + o
            for b, val in (only[j],) if j in only else many.get(j, ()):
                sums[b] = sums.get(b, 0) + coef * val
        return any(sums.values())

    for terms, offsets in groups:
        if len(terms) == 2:
            (ki, a), (kj, c) = terms
            for o in offsets:
                vi, vj = only.get(ki + o), only.get(kj + o)
                if (fails(terms, o) if vi is None or vj is None
                        else vi[0] != vj[0] or a * vi[1] + c * vj[1]):
                    raise YbtError("kernel vector fails its system")
        elif any(fails(terms, o) for o in offsets):
            raise YbtError("kernel vector fails its system")


def _solved_basis(site_dim: int, legs: int, vectors: list[dict[int, int]]) -> SubspaceBasis:
    # the kernel vectors are the exact entries; ``basis`` is built on first read
    basis = object.__new__(SubspaceBasis)
    vars(basis).update(site_dim=site_dim, legs=legs, backend=RATIONAL,
                       vectors=tuple(vectors), _reduced=True)
    return basis


# ---------------------------------------------------------------------------
# the linear systems
# ---------------------------------------------------------------------------


def _require_exact(value: Operator | SubspaceBasis, what: str):
    if value.backend != RATIONAL:
        raise BackendMismatchError(
            f"{what} requires the rational backend; complex matrices can only "
            "be checked for residuals, not solved exactly"
        )


def _local_rows(r: Operator, r_tilde: Operator) -> list[tuple[tuple[int, int], ...]]:
    """Distinct two-leg rows of D (b Z - Z bt) = 0, one for each set equal up to scale.

    b and bt are the braid matrices of r and r_tilde, and D is their common
    denominator, so their stored integer entries only need scaling.  Row
    (alpha, beta) reads ``sum_g b[alpha, g] Z[g, beta] - sum_e Z[alpha, e]
    bt[e, beta]`` over the d^4 local unknowns Z[g, e], keyed g * d^2 + e.
    Each row comes back as its (key, coefficient) terms in ascending key
    order, content-free with a positive first coefficient, and a row that
    repeats an earlier one up to a nonzero scale is dropped: it has the same
    solutions.  Rows that are combinations of several others are still
    here; the solver drops those with `_independent_rows`.
    """
    b = braid_matrix(r)
    bt = b if r_tilde is r else braid_matrix(r_tilde)
    q = b.side
    den = math.lcm(b.den, bt.den)
    sl, sr = den // b.den, den // bt.den
    right: list[list[tuple[int, int]]] = [[] for _ in range(q)]
    for e, row in enumerate(bt.entries):
        for beta, v in row:
            right[beta].append((e, sr * v))
    kept: dict[tuple[tuple[int, int], ...], None] = {}
    for alpha in range(q):
        for beta in range(q):
            row = {g * q + beta: sl * v for g, v in b.entries[alpha]}
            for e, v in right[beta]:
                key = alpha * q + e
                row[key] = row.get(key, 0) - v
            row = {k: v for k, v in row.items() if v}
            if row:
                kept[tuple(sorted(_normalised(row).items()))] = None
    return list(kept)


def _independent_rows(local: list[tuple[tuple[int, int], ...]], width: int):
    """Split local rows into a maximal independent subset and exact combinations.

    The rows go sparsest first through `_tagged` over the ``width`` local
    keys.  A row that adds a pivot is kept; every other row comes back
    with its relation ``t0 * row + sum(t_j * row_j) = 0`` over kept rows
    only, t0 != 0.  Returns ``(kept, dropped)``: ``kept`` lists the kept
    rows in their order in `local`, and each entry of ``dropped`` is
    ``(row, w0, w)`` with ``w0 * row == sum(w[i] * kept[i])``, which
    `_check_dependencies` verifies.
    """
    order = sorted(range(len(local)), key=lambda i: len(local[i]))
    _, relations = _tagged([dict(local[i]) for i in order], width)
    spanned = {order[p]: {order[j]: v for j, v in w.items()} for p, w in relations.items()}
    kept = [i for i in range(len(local)) if i not in spanned]
    at = {i: k for k, i in enumerate(kept)}
    dropped = [(local[i], w[i], {at[j]: -v for j, v in w.items() if j != i})
               for i, w in spanned.items()]
    return [local[i] for i in kept], dropped


def _check_dependencies(kept, dropped):
    """Raise `YbtError` unless each dropped row is the combination it carries.

    For each ``(row, w0, w)`` of `_independent_rows`, ``w0 * row`` must
    equal ``sum(w[i] * kept[i])`` at every local key, with w0 != 0.  A
    shift to one position and environment maps every local row by the same
    linear map, so every solution of the kept rows' shifted copies then
    solves the dropped rows' copies too.
    """
    for row, w0, w in dropped:
        diff = {k: w0 * v for k, v in row}
        for i, wi in w.items():
            for k, v in kept[i]:
                diff[k] = diff.get(k, 0) - wi * v
        if not w0 or any(diff.values()):
            raise YbtError("a dropped local row is not the combination it carries")


def _shifted_groups(local: list[tuple[tuple[int, int], ...]], site_dim: int, n: int):
    """One group (see `_kernel_basis`) per position i = 1..n-1 and local row.

    ``_placement`` on legs i and i + 1 gives ``pos``, where each two-leg
    index lands, and ``outside``, the offsets of the other legs.  Local
    unknown Z[g, e], key g * d^2 + e, sits at pos[g] * side + pos[e], and
    each environment, a setting of the other legs in row and column, adds
    the offset a * side + b for a and b in ``outside``.  A position's
    offsets are listed once, shared by its groups.
    """
    d = site_dim
    q = d * d
    side = d**n
    groups = []
    for i in range(1, n):
        pos, outside = _placement(d, (i, i + 1), n)
        offsets = [a * side + b for a in outside for b in outside]
        for terms in local:
            shifted = tuple((pos[k // q] * side + pos[k % q], v) for k, v in terms)
            groups.append((shifted, offsets))
    return groups


def _solve_pairs(r: Operator, r_tilde: Operator, n: int, size_cap: int) -> SubspaceBasis:
    d = r.site_dim
    if d**n > size_cap:
        raise SizeCapError(
            f"operators on {n} legs have side {d ** n}, above the cap "
            f"{size_cap}; raise size_cap explicitly to proceed"
        )
    # the dropped rows are certified at the two-leg level, so only the
    # kept ones are shifted, solved and re-verified against the basis
    kept, dropped = _independent_rows(_local_rows(r, r_tilde), d**4)
    _check_dependencies(kept, dropped)
    groups = _shifted_groups(kept, d, n)
    return _solved_basis(d, n, _kernel_basis(groups, d ** (2 * n)))


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
        residuals[f"position_{i}"] = residual((r_i, omega), (tau_omega, rt_i))
    return CheckReport.build(residuals, omega.backend, tol)


def r_symmetric_residual(r: Operator, z: Operator):
    """Worst commutator entry of z against the embedded braid matrices."""
    if r.legs != 2:
        raise ShapeMismatchError("r must have 2 legs")
    if z.legs < 2:
        return Fraction(0) if z.backend == RATIONAL else 0.0
    worst = None
    b = braid_matrix(r)
    for i in range(1, z.legs):
        b_i = embed(b, [i, i + 1], z.legs)
        res = residual((b_i, z), (z, b_i))
        if worst is None or res > worst:
            worst = res
    return worst


def membership_coefficients(basis: SubspaceBasis, op: Operator):
    """Exact coefficients expressing `op` in `basis`, or None if outside the span.

    Each coefficient is read off at a pivot of the basis's cached reduced
    echelon form (`SubspaceBasis.echelon`), in integers over one common
    denominator, and the combination is then compared with `op` entry by
    entry, exactly; any difference means `op` is outside the span.  An
    element in the span of the earlier elements gets coefficient 0, so a
    dependent basis gives the combination of its first independent
    elements.
    """
    if (op.site_dim, op.legs, op.backend) != (
        basis.site_dim,
        basis.legs,
        basis.backend,
    ):
        raise ShapeMismatchError("operator does not live in the basis space")
    _require_exact(op, "membership_coefficients")
    den, echelon = basis.echelon
    target = _to_flat(op)
    used = [(c, target[c], *echelon[c]) for c in target if c in echelon]
    # scale * target = sum f_c r_c, with f_c = target[c] * scale / r_c[c]
    scale = math.lcm(*(r[c] for c, _, r, _ in used))
    rest = {k: scale * v for k, v in target.items()}
    coeffs = [0] * basis.dimension
    for c, t, r, w in used:
        f = t * (scale // r[c])
        for k, v in r.items():
            rest[k] = rest.get(k, 0) - f * v
        for i, v in w.items():
            coeffs[i] += f * v
    if any(rest.values()):
        return None
    # op = target / op.den and r_c = sum w_c[i] * den * vectors[i]
    return tuple(Fraction(c * den, scale * op.den) for c in coeffs)


def _invertible(x: Operator) -> bool:
    """Whether a rational operator is invertible: `_full_rank_mod_p`, else the exact `_rank`."""
    verdict = _full_rank_mod_p(x.entries)
    return _rank(x) == x.side if verdict is None else verdict


def invertible_certificate(
    basis: SubspaceBasis, budget: int = 50, seed: int = 0
):
    """Search for an invertible element of the span; None after `budget` misses.

    The first attempt is the all-ones combination, later ones draw integer
    coefficients from [-9, 9], widening the range every ten attempts.  An
    attempt is decided by `_invertible`: modulo a prime below 2**30, with
    an exact witness either way, or else by the exact fraction-free rank,
    so each attempt, and with it every answer, is exactly what a rank over
    Q gives.  A returned certificate is exact;
    a miss is explicitly not a proof that no invertible element exists.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    d = basis.dimension
    if not d:
        return None
    _require_exact(basis, "invertible_certificate")
    rng = random.Random(seed)
    # sum c_i B_i in ints, over the common denominator of the elements
    den, entries = basis._integer_vectors()
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
                for k, v in nonzero.items():
                    acc[k] = acc.get(k, 0) + c * v
        combo = _from_flat(basis.site_dim, basis.legs, den, acc)
        if _invertible(combo):
            return tuple(Fraction(c) for c in coeffs), combo
    return None
