"""The integer elimination kernel against a naive Fraction Gauss-Jordan.

Inverse, determinant, the rank carried by SingularOperatorError, and the
null spaces behind r_symmetric_space and membership_coefficients all come
from one fraction-free elimination.  The reference below shares no code
with it: plain Gauss-Jordan over Fraction, written for clarity only.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybt
from ybt import (
    Operator,
    SubspaceBasis,
    braid_matrix,
    determinant,
    invert,
    invertible_certificate,
    membership_coefficients,
    r_symmetric_space,
)
from ybt.errors import SingularOperatorError
from ybt.formats import subspace_from_obj, subspace_to_obj
from ybt.subspace_solver import _kernel_basis
from ybt.tensor_core import _integerize

# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------


def ref_rref(rows, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(len(m)):
            a = m[i][c]
            if i != r and a:
                m[i] = [v - a * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def ref_det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            a = m[i][k] / m[k][k]
            if a:
                m[i] = [v - a * w for v, w in zip(m[i], m[k])]
    return det


def ref_kernel(rows, ncols):
    """One primitive integer vector per free column, leading entry positive."""
    reduced, pivots = ref_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for row, c in zip(reduced, pivots):
            if row[f]:
                vec[c] = -row[f]
        scale = math.lcm(*(v.denominator for v in vec.values()))
        ints = {j: int(v * scale) for j, v in vec.items()}
        g = math.gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        basis.append({j: v // g for j, v in ints.items()})
    return basis


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

DENOMINATOR = st.integers(1, 6)
ENTRY = st.builds(Fraction, st.integers(-9, 9), DENOMINATOR)
# about three quarters zeros
SPARSE_ENTRY = st.builds(
    Fraction, st.integers(-36, 36).map(lambda n: n if abs(n) <= 9 else 0), DENOMINATOR
)


@st.composite
def matrices(draw, max_side=9, min_side=1):
    """Square rational matrices, sometimes made rank-deficient.

    Dense, sparse, or upper triangular with shuffled rows; the last shape
    makes pivots appear out of row order.
    """
    side = draw(st.integers(min_side, max_side))
    shape = draw(st.sampled_from(["dense", "sparse", "shuffled triangular"]))
    entry = SPARSE_ENTRY if shape == "sparse" else ENTRY
    rows = [draw(st.lists(entry, min_size=side, max_size=side)) for _ in range(side)]
    if shape == "shuffled triangular":
        upper = [[v if j >= i else Fraction(0) for j, v in enumerate(row)]
                 for i, row in enumerate(rows)]
        rows = draw(st.permutations(upper))
    if side > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def as_operator(rows):
    return Operator.from_rows(len(rows), 1, rows)


# ---------------------------------------------------------------------------
# inverse, determinant, rank
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_invert_and_rank_match_reference(rows):
    side = len(rows)
    identity_block = [[Fraction(int(i == j)) for j in range(side)] for i in range(side)]
    reduced, pivots = ref_rref([r + e for r, e in zip(rows, identity_block)], 2 * side)
    rank = len(ref_rref(rows, side)[1])
    if rank < side:
        with pytest.raises(SingularOperatorError) as err:
            invert(as_operator(rows))
        assert (err.value.side, err.value.rank) == (side, rank)
    else:
        expected = tuple(tuple(row[side:]) for row in reduced)
        assert invert(as_operator(rows)).rows == expected


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_determinant_matches_reference_and_flips_under_row_swaps(rows, data):
    det = determinant(as_operator(rows))
    assert det == ref_det(rows)
    assert isinstance(det, Fraction)
    if len(rows) > 1:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1).filter(lambda k: k != i))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(as_operator(swapped)) == -det


# ---------------------------------------------------------------------------
# null spaces
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), matrices(max_side=n + 3))))
def test_kernel_basis_matches_reference(args):
    num_vars, square = args
    rows = [row[:num_vars] + [Fraction(0)] * (num_vars - len(row)) for row in square]
    eqs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    int_rows = [_integerize(e)[0] for e in eqs]
    assert _kernel_basis(int_rows, num_vars) == ref_kernel(rows, num_vars)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), matrices(max_side=n + 3))),
       st.data())
def test_kernel_basis_ignores_row_order_and_positive_scale(args, data):
    num_vars, square = args
    rows = [row[:num_vars] + [Fraction(0)] * (num_vars - len(row)) for row in square]
    int_rows = [_integerize({j: v for j, v in enumerate(row) if v})[0] for row in rows]
    order = data.draw(st.permutations(range(len(int_rows))))
    scales = data.draw(st.lists(st.integers(1, 12), min_size=len(int_rows),
                                max_size=len(int_rows)))
    moved = [{j: s * v for j, v in int_rows[i].items()} for i, s in zip(order, scales)]
    assert _kernel_basis(moved, num_vars) == _kernel_basis(int_rows, num_vars)
    assert _kernel_basis(moved, num_vars) == ref_kernel(rows, num_vars)


def commutation_rows(b):
    """Dense rows of B Z - Z B = 0 over vec(Z), written out entry by entry."""
    side = len(b)
    rows = []
    for a in range(side):
        for col in range(side):
            row = [Fraction(0)] * (side * side)
            for c in range(side):
                row[c * side + col] += b[a][c]
                row[a * side + c] -= b[c][col]
            rows.append(row)
    return rows


@settings(max_examples=25, deadline=None)
@given(matrices(min_side=4, max_side=4))
def test_r_symmetric_space_and_membership_match_reference(rows):
    r = Operator.from_rows(2, 2, rows)
    space = r_symmetric_space(r, 2)
    expected = ref_kernel(commutation_rows(braid_matrix(r).rows), 16)
    got = [{j: v for j, v in enumerate(e for row in op.rows for e in row) if v}
           for op in space.basis]
    assert got == expected
    assert space.is_independent()
    coeffs = tuple(Fraction(k % 5 - 2, 1 + k % 3) for k in range(space.dimension))
    member = Operator(2, 2, "rational", tuple(
        tuple(sum((c * op.rows[i][j] for c, op in zip(coeffs, space.basis)), Fraction(0))
              for j in range(4))
        for i in range(4)
    ))
    assert membership_coefficients(space, member) == coeffs
    outsider = Operator.from_rows(2, 2, [[int(i == 0 and j == 1) for j in range(4)] for i in range(4)])
    stacked = [[e for row in op.rows for e in row] for op in (*space.basis, outsider)]
    inside = len(ref_rref(stacked, 16)[1]) == space.dimension
    assert (membership_coefficients(space, outsider) is not None) == inside


def flat(op):
    return [e for row in op.rows for e in row]


def ref_membership(ops, target):
    """First kernel vector of [B_1 .. B_d | -T] with t != 0, from dense rows."""
    d = len(ops)
    columns = [flat(op) for op in ops] + [[-v for v in flat(target)]]
    for vec in ref_kernel([list(eq) for eq in zip(*columns)], d + 1):
        if vec.get(d):
            return tuple(Fraction(vec.get(i, 0), vec[d]) for i in range(d))
    return None


def ref_certificate(ops, budget, seed):
    """The documented search (all ones first, then widening random integers)."""
    rng = random.Random(seed)
    side = ops[0].side
    for attempt in range(budget):
        if attempt == 0:
            coeffs = [1] * len(ops)
        else:
            bound = 9 + 9 * (attempt // 10)
            coeffs = [rng.randint(-bound, bound) for _ in ops]
        if not any(coeffs):
            continue
        combo = [[sum((c * op.rows[i][j] for c, op in zip(coeffs, ops)), Fraction(0))
                  for j in range(side)] for i in range(side)]
        if ref_det(combo):
            return tuple(map(Fraction, coeffs)), combo
    return None


def check_against_reference(space, coeffs, outsider, budget):
    ops = space.basis
    rank = len(ref_rref([flat(op) for op in ops], ops[0].side ** 2)[1])
    assert space.is_independent() == (rank == len(ops))
    member = Operator(space.site_dim, space.legs, "rational", tuple(
        tuple(sum((c * op.rows[i][j] for c, op in zip(coeffs, ops)), Fraction(0))
              for j in range(ops[0].side))
        for i in range(ops[0].side)
    ))
    for target in (member, outsider):
        assert membership_coefficients(space, target) == ref_membership(ops, target)
    found = invertible_certificate(space, budget=budget, seed=3)
    expected = ref_certificate(ops, budget, seed=3)
    if expected is None:
        assert found is None
    else:
        assert (found[0], [list(row) for row in found[1].rows]) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(matrices(min_side=4, max_side=4), min_size=1, max_size=5),
       st.data())
def test_hand_built_fractional_basis_matches_reference(square, data):
    ops = [as_operator(rows) for rows in square]
    if len(ops) > 2 and data.draw(st.booleans()):
        ops[-1] = Fraction(1, 2) * ops[0] + Fraction(-3, 5) * ops[1]
    space = SubspaceBasis(4, 1, "rational", tuple(ops))
    coeffs = data.draw(st.lists(ENTRY, min_size=len(ops), max_size=len(ops)))
    outsider = as_operator(data.draw(matrices(min_side=4, max_side=4)))
    check_against_reference(space, coeffs, outsider, budget=data.draw(st.integers(1, 4)))


@settings(max_examples=20, deadline=None)
@given(matrices(min_side=4, max_side=4), st.data())
def test_reloaded_solver_basis_matches_reference(rows, data):
    solved = r_symmetric_space(Operator.from_rows(2, 2, rows), 2)
    reloaded = subspace_from_obj(subspace_to_obj(solved))
    assert reloaded == solved
    coeffs = data.draw(st.lists(ENTRY, min_size=solved.dimension,
                                max_size=solved.dimension))
    outsider = Operator.from_rows(2, 2, data.draw(matrices(min_side=4, max_side=4)))
    budget = data.draw(st.integers(1, 4))
    for space in (solved, reloaded):
        check_against_reference(space, coeffs, outsider, budget)


def test_dependent_basis_is_reported():
    op = as_operator([[1, 2], [3, 4]])
    assert not SubspaceBasis(2, 1, "rational", (op, Fraction(-3, 2) * op)).is_independent()


# ---------------------------------------------------------------------------
# re-verification survives python -O
# ---------------------------------------------------------------------------


def test_kernel_verification_raises_under_optimized_python():
    code = (
        "from ybt.errors import YbtError\n"
        "from ybt.subspace_solver import _verify_kernel\n"
        "try:\n"
        "    _verify_kernel([{0: 1, 1: 1}], [{0: 1}])\n"
        "except YbtError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(ybt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
