"""The exact kernels against naive dense references.

The rank carried by SingularOperatorError and the null spaces behind
r_symmetric_space and membership_coefficients come from one sparse
fraction-free elimination; the null spaces first collapse their one- and
two-term rows with a union-find.  Solves and inverses take that
elimination, or a dense Bareiss pass on packed integer rows when the
matrix is at least a quarter full, and determinants always take that
pass; the two routes are also checked against each other, and Hadamard
matrices, which meet the bound that sizes the packed slots, check that
the slots have no bit to spare.  The reference below shares no code with
either: plain Gauss-Jordan over Fraction, written for clarity only.
Solves a^-1 b are checked against the reduced form of [A | B].  The
sparse operator kernels (products, sums, Kronecker products, leg
permutations, embeddings, residuals) are checked on both backends against
dense list arithmetic, and every way of building an operator must give
the same stored form.
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ybt
from ybt import (
    Operator,
    SubspaceBasis,
    braid_matrix,
    determinant,
    embed,
    intertwiner_space,
    invert,
    invertible_certificate,
    kron,
    leg_permute,
    membership_coefficients,
    r_symmetric_space,
    residual,
    solve,
    ybe_residual,
)
from ybt.errors import SingularOperatorError, YbtError
from ybt.formats import subspace_from_obj, subspace_to_obj
from ybt.exact import _PRIME, _tagged
from ybt.subspace_solver import (
    _check_dependencies,
    _independent_rows,
    _invertible,
    _kernel_basis,
    _local_rows,
    _shifted_groups,
    _verify_kernel,
)
from ybt.tensor_core import (
    _is_dense,
    _rank,
    _solve_dense,
    _solve_sparse,
)
from ybt.twist_engine import apply_twist

from conftest import jimbo_sl3

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


def integer_row(row):
    """A sparse Fraction row scaled to integers by the lcm of its denominators."""
    lcm = math.lcm(*(v.denominator for v in row.values()))
    return {j: int(v * lcm) for j, v in row.items()}


def plain(rows):
    """Rows given as dicts, as the groups of `_kernel_basis`: each at the one offset 0."""
    return [(tuple(row.items()), (0,)) for row in rows]


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


def fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


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
@given(matrices(), st.randoms(use_true_random=False))
@example(fractions([["-3/2"]]), random.Random(0))
# a zero leading diagonal: the Bareiss pass swaps once, then twice
@example(fractions([[0, "1/2"], ["2/3", 3]]), random.Random(0))
@example(fractions([[0, "1/2", 0], [0, 0, "-2/3"], [5, 0, 1]]), random.Random(0))
# column 1 has no pivot once column 0 is eliminated
@example(fractions([[1, 2, 3], [2, 4, 5], [0, 0, "7/2"]]), random.Random(0))
# the last pivot is negative
@example(fractions([["1/2", 1], [1, "-3/4"]]), random.Random(0))
def test_determinant_matches_reference_and_flips_under_row_swaps(rows, rng):
    det = determinant(as_operator(rows))
    assert det == ref_det(rows)
    assert isinstance(det, Fraction)
    if len(rows) > 1:
        i, j = rng.sample(range(len(rows)), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(as_operator(swapped)) == -det


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_reference_and_shares_the_rank_of_invert(rows, data):
    side = len(rows)
    rhs = [data.draw(st.lists(ENTRY, min_size=side, max_size=side)) for _ in range(side)]
    reduced, _ = ref_rref([r + b for r, b in zip(rows, rhs)], 2 * side)
    rank = len(ref_rref(rows, side)[1])
    if rank < side:
        with pytest.raises(SingularOperatorError) as err:
            solve(as_operator(rows), as_operator(rhs))
        with pytest.raises(SingularOperatorError) as inv_err:
            invert(as_operator(rows))
        assert (err.value.side, err.value.rank) == (inv_err.value.side, inv_err.value.rank)
        assert err.value.rank == rank
    else:
        got = solve(as_operator(rows), as_operator(rhs))
        assert checked_rows(got) == tuple(tuple(row[side:]) for row in reduced)
        assert got == invert(as_operator(rows)) @ as_operator(rhs)


@pytest.mark.parametrize("side, seed", [(16, 0), (20, 1), (24, 2)])
def test_solve_of_large_dense_entries_matches_reference(side, seed):
    # dense, so solve takes the Bareiss pass, which carries the large
    # entries whole; determinant and the sparse route of the same rows
    # reduce them by many pivots with large leading entries, so
    # `_eliminate` strips content part-way through a row as well as at its end
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9)) for _ in range(side)]
            for _ in range(side)]
    rhs = [[Fraction(rng.randint(-9, 9)) for _ in range(side)] for _ in range(side)]
    reduced, pivots = ref_rref([r + b for r, b in zip(rows, rhs)], 2 * side)
    assert pivots == list(range(side))
    a, b = as_operator(rows), as_operator(rhs)
    assert _is_dense(a)
    got = solve(a, b)
    assert checked_rows(got) == tuple(tuple(row[side:]) for row in reduced)
    assert _solve_sparse(a, b) == got
    assert determinant(a) == ref_det(rows)


@pytest.mark.parametrize("side, seed", [(24, 3), (27, 5), (32, 4)])
def test_sparse_solve_of_large_entries_matches_reference(side, seed):
    # under a quarter full, so solve takes `_eliminate`; fill-in and the
    # 2^20-sized pivots make it strip content part-way through a row
    rng = random.Random(seed)
    rows = [[Fraction(0)] * side for _ in range(side)]
    for i, row in enumerate(rows):
        for j in {i, *rng.sample(range(side), side // 4 - 2)}:
            row[j] = Fraction(rng.randint(2**20, 2**24) * rng.choice((-1, 1)), rng.randint(1, 9))
    rhs = [[Fraction(rng.randint(-9, 9)) for _ in range(side)] for _ in range(side)]
    a, b = as_operator(rows), as_operator(rhs)
    assert not _is_dense(a)
    reduced, pivots = ref_rref([r + e for r, e in zip(rows, rhs)], 2 * side)
    assert pivots == list(range(side))
    got = solve(a, b)
    assert checked_rows(got) == tuple(tuple(row[side:]) for row in reduced)
    assert got == _solve_dense(a, b)
    assert determinant(a) == ref_det(rows)


def with_rhs(rows):
    side = len(rows)
    return st.tuples(st.just(rows), st.lists(
        st.lists(ENTRY, min_size=side, max_size=side), min_size=side, max_size=side))


def route_result(route, a, b):
    try:
        return route(a, b)
    except SingularOperatorError as err:
        return err.side, err.rank


@settings(max_examples=60, deadline=None)
@given(matrices().flatmap(with_rhs))
# the last pivot, the determinant of the integer rows of a, is negative
@example((fractions([["1/2", 0], [0, "-1/3"]]), fractions([[1, 2], [0, "5/4"]])))
# exactly a quarter full (nnz * 4 == side * side), and pivoting needs row swaps
@example((fractions([[0, "1/2", 0, 0], [0, 0, 0, "-5/3"], [7, 0, 0, 0], [0, 0, "2/9", 0]]),
          [[Fraction(i - j, 1 + i) for j in range(4)] for i in range(4)]))
def test_dense_and_sparse_routes_agree(system):
    # dividing by 11 puts a factor 11 in both denominators unless all zero
    rows, rhs = system
    side = len(rows)
    a = as_operator([[v / 11 for v in row] for row in rows])
    b = as_operator([[v / 11 for v in row] for row in rhs])
    assert a.den % 11 == 0 or not any(a.entries)
    assert b.den % 11 == 0 or not any(b.entries)
    dense, sparse = route_result(_solve_dense, a, b), route_result(_solve_sparse, a, b)
    assert dense == sparse
    if not isinstance(dense, Operator):
        assert dense == (side, _rank(a))


def sylvester(order):
    """The Sylvester Hadamard matrix of a power-of-two order, as int rows."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


def as_operator_on(legs, rows):
    return Operator.from_rows(2, legs, rows)


def hadamard_problems():
    """What dense solves at Hadamard's bound get wrong against the reference.

    A Hadamard matrix H of order n meets the bound: |det H| = n^(n/2), the
    product of its row lengths, so the last pivot of the dense pass over H
    or [H | I] needs every bit of the slot.  H, -H, H/3 and H with two rows
    swapped give that pivot both signs.  A matrix whose last column has no
    pivot must make solve and invert report its exact rank.  The checks
    are plain comparisons, not asserts, so they hold under python -O too.
    """
    problems = []
    for legs in (2, 3):
        n = 2**legs
        h = sylvester(n)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        variants = {"H": h, "-H": [[-v for v in row] for row in h],
                    "H/3": [[Fraction(v, 3) for v in row] for row in h],
                    "H, rows 0 and 1 swapped": [h[1], h[0], *h[2:]]}
        for name, rows in variants.items():
            a = as_operator_on(legs, rows)
            det = determinant(a)
            if det != ref_det(rows):
                problems.append(f"order {n}, {name}: determinant {det}")
            if name != "H/3" and abs(det) != n ** (n // 2):
                problems.append(f"order {n}, {name}: |det| {abs(det)} is not n^(n/2)")
            for b_name, rhs in (("H", h), ("I", unit)):
                reduced, _ = ref_rref([r + b for r, b in zip(rows, rhs)], 2 * n)
                if solve(a, as_operator_on(legs, rhs)).rows != tuple(tuple(r[n:]) for r in reduced):
                    problems.append(f"order {n}, {name}: solve with B = {b_name}")
                if b_name == "I" and invert(a).rows != tuple(tuple(r[n:]) for r in reduced):
                    problems.append(f"order {n}, {name}: invert")
        singular = [row[:-1] + [row[0] + row[1]] for row in h]
        rank = len(ref_rref(singular, n)[1])
        for call in (lambda a: solve(a, as_operator_on(legs, h)), invert):
            try:
                call(as_operator_on(legs, singular))
                problems.append(f"order {n}: a singular matrix was solved")
            except SingularOperatorError as err:
                if (err.side, err.rank) != (n, rank):
                    problems.append(f"order {n}: rank {err.rank} reported, {rank} true")
    return problems


def test_hadamard_bound_is_met_exactly_under_optimized_python():
    assert hadamard_problems() == []
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys\nsys.path[:0] = [{tests!r}]\n"
        "import test_exact_kernel as t\n"
        "problems = t.hadamard_problems()\n"
        "print(problems)\n"
        "raise SystemExit(1 if problems else 0)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, (done.stdout + done.stderr).decode()


def complex_bits(x):
    """The stored form with signed zeros told apart."""
    return x.den, repr(x.entries)


@st.composite
def complex_operators(draw, count, legs):
    site_dim = draw(st.integers(2, 3)) if legs == 2 else draw(st.integers(2, 9))
    side = site_dim**legs
    return [Operator(site_dim, legs, "complex64", dense_rows(draw, "complex64", side))
            for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(complex_operators(2, 1))
def test_complex_solve_is_the_inverse_times_b(ops):
    a, b = ops
    try:
        expected = invert(a) @ b
    except SingularOperatorError as exc:
        with pytest.raises(SingularOperatorError) as err:
            solve(a, b)
        assert err.value.rank == exc.rank
        return
    got = solve(a, b)
    assert got == expected and complex_bits(got) == complex_bits(expected)


@settings(max_examples=40, deadline=None)
@given(complex_operators(2, 2))
def test_complex_apply_twist_keeps_its_association(ops):
    r, f = ops
    try:
        expected = (invert(leg_permute(f, (2, 1))) @ r) @ f
    except SingularOperatorError:
        return
    got = apply_twist(r, f)
    assert got == expected and complex_bits(got) == complex_bits(expected)


def twisted_by_inverse(r, f):
    return (invert(leg_permute(f, (2, 1))) @ r) @ f


@st.composite
def rational_twist_inputs(draw):
    """R and F on two legs of site_dim 2 or 3: sides 4 and 9."""
    site_dim = draw(st.sampled_from([2, 3]))
    return [Operator(site_dim, 2, "rational", dense_rows(draw, "rational", site_dim**2))
            for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(rational_twist_inputs())
def test_rational_apply_twist_is_the_inverse_twist(ops):
    # apply_twist solves F21 X = R F; the reference inverts F21 and multiplies after
    r, f = ops
    try:
        expected = twisted_by_inverse(r, f)
    except SingularOperatorError:
        return
    assert apply_twist(r, f) == expected


def test_catalog_twists_are_the_inverse_twist(twisted_entries):
    for entry, twisted in twisted_entries:
        assert twisted == twisted_by_inverse(entry.r, entry.twist.f)


# ---------------------------------------------------------------------------
# null spaces
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), matrices(max_side=n + 3))))
def test_kernel_basis_matches_reference(args):
    num_vars, square = args
    rows = [row[:num_vars] + [Fraction(0)] * (num_vars - len(row)) for row in square]
    eqs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    int_rows = [integer_row(e) for e in eqs]
    assert _kernel_basis(plain(int_rows), num_vars) == ref_kernel(rows, num_vars)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), matrices(max_side=n + 3))),
       st.data())
def test_kernel_basis_ignores_row_order_and_positive_scale(args, data):
    num_vars, square = args
    rows = [row[:num_vars] + [Fraction(0)] * (num_vars - len(row)) for row in square]
    int_rows = [integer_row({j: v for j, v in enumerate(row) if v}) for row in rows]
    order = data.draw(st.permutations(range(len(int_rows))))
    scales = data.draw(st.lists(st.integers(1, 12), min_size=len(int_rows),
                                max_size=len(int_rows)))
    moved = [{j: s * v for j, v in int_rows[i].items()} for i, s in zip(order, scales)]
    assert _kernel_basis(plain(moved), num_vars) == _kernel_basis(plain(int_rows), num_vars)
    assert _kernel_basis(plain(moved), num_vars) == ref_kernel(rows, num_vars)


NONZERO = st.integers(-6, 6).filter(bool)


@st.composite
def short_row_systems(draw):
    """(num_vars, integer rows) built mostly from one- and two-term rows.

    Besides random rows of one, two and three terms it plants the shapes
    the union-find collapse must get right: closed cycles whose ratio
    product is 1 (consistent) or not (the component is zero), duplicated
    two-term rows, and three-term rows that shrink to one term or cancel
    once their unknowns are written through a shared root.
    """
    n = draw(st.integers(1, 10))
    var = st.integers(0, n - 1)

    def distinct(k):
        return draw(st.lists(var, min_size=k, max_size=k, unique=True))

    rows = []
    kinds = ["one", "duplicate"] + (["two", "cycle"] if n >= 2 else [])
    kinds += ["three", "shrink", "cancel"] if n >= 3 else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "one":
            rows.append({draw(var): draw(NONZERO)})
        elif kind == "two":
            i, j = distinct(2)
            rows.append({i: draw(NONZERO), j: draw(NONZERO)})
        elif kind == "duplicate":
            pairs = [row for row in rows if len(row) == 2]
            if pairs:
                s = draw(NONZERO)
                rows.append({j: s * v for j, v in draw(st.sampled_from(pairs)).items()})
        elif kind == "cycle":
            chain = distinct(draw(st.integers(2, min(n, 5))))
            ratio = Fraction(1)  # x_chain[0] = ratio * x_chain[-1]
            for i, j in zip(chain, chain[1:]):
                a, b = draw(NONZERO), draw(NONZERO)
                rows.append({i: a, j: b})
                ratio *= Fraction(-b, a)
            # closing row x_last = (m / ratio) x_first: consistent iff m == 1
            s, m = draw(NONZERO), draw(st.integers(-3, 3).filter(bool))
            rows.append({chain[-1]: ratio.numerator * s,
                         chain[0]: -ratio.denominator * s * m})
        elif kind == "three":
            rows.append({j: draw(NONZERO) for j in distinct(3)})
        elif kind == "shrink":
            # t (a x_i + b x_j) + e x_k leaves e x_k after the collapse
            (i, j, k), a, b, t = distinct(3), draw(NONZERO), draw(NONZERO), draw(NONZERO)
            rows += [{i: a, j: b}, {i: t * a, j: t * b, k: draw(NONZERO)}]
        else:
            # a combination of two rows of one component cancels to nothing
            (i, j, k), t, u = distinct(3), draw(NONZERO), draw(NONZERO)
            first = {i: draw(NONZERO), j: draw(NONZERO)}
            second = {j: draw(NONZERO), k: draw(NONZERO)}
            combo = {i: t * first[i], j: t * first[j] + u * second[j], k: u * second[k]}
            rows += [first, second, {c: v for c, v in combo.items() if v}]
    return n, rows


@settings(max_examples=150, deadline=None)
@given(short_row_systems())
def test_collapsed_kernel_basis_matches_reference(system):
    num_vars, rows = system
    dense = [[row.get(j, 0) for j in range(num_vars)] for row in rows]
    assert _kernel_basis(plain(rows), num_vars) == ref_kernel(dense, num_vars)


def test_cycle_with_ratio_not_one_zeroes_only_its_component():
    # x0 = 2 x1 and x1 = x0 force x0 = x1 = 0; x2 is untouched
    assert _kernel_basis(plain([{0: 1, 1: -2}, {1: 1, 0: -1}]), 3) == [{2: 1}]
    # the same cycle closed consistently keeps one free direction
    assert _kernel_basis(plain([{0: 1, 1: -2}, {1: 2, 0: -1}]), 3) == [{0: 2, 1: 1}, {2: 1}]


@st.composite
def row_groups(draw):
    """(num_vars, groups): short integer rows, each repeated at several offsets.

    A group's terms sit on the first few keys and its offsets come from
    the whole range, so the copies of one group chain unknowns together
    and the copies of different groups meet: components merge across
    groups.  A two-term group is sometimes repeated with a different ratio
    at some of its own offsets, which closes cycles whose ratio product is
    not 1; one-term groups zero whole components, and groups of three or
    four terms go through the substitution step.
    """
    n = draw(st.integers(2, 12))
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([s for s in (1, 2, 2, 2, 3, 4) if s <= n]))
        span = draw(st.integers(size, min(n, size + 2)))
        keys = sorted(draw(st.lists(st.integers(0, span - 1), min_size=size,
                                    max_size=size, unique=True)))
        terms = tuple((k, draw(NONZERO)) for k in keys)
        offsets = draw(st.lists(st.integers(0, n - 1 - keys[-1]), max_size=5, unique=True))
        groups.append((terms, offsets))
        if size == 2 and offsets and draw(st.booleans()):
            (i, a), (j, b) = terms
            m = draw(st.sampled_from([-1, 2, 3]))
            again = draw(st.lists(st.sampled_from(offsets), min_size=1, unique=True))
            groups.append((((i, a * m), (j, b)), again))
    return n, groups


@settings(max_examples=150, deadline=None)
@given(row_groups())
# x_o = 2 x_(o+1) for o = 0..3, and x_1 = x_2 from another group: that
# cycle's ratio product is 2, so x_0..x_4 are zero and x_5 is free
@example((6, [(((0, 1), (1, -2)), [0, 1, 2, 3]), (((0, 1), (1, -1)), [1])]))
# a three-term group over components merged by a two-term group
@example((7, [(((0, 1), (2, -1)), [0, 1, 2, 4]), (((0, 2), (1, 1), (3, -1)), [0, 3]),
              (((0, 5),), [6])]))
def test_grouped_kernel_basis_matches_reference(system):
    num_vars, groups = system
    rows = [{o + k: v for k, v in terms} for terms, offsets in groups for o in offsets]
    dense = [[row.get(j, 0) for j in range(num_vars)] for row in rows]
    assert _kernel_basis(groups, num_vars) == ref_kernel(dense, num_vars)
    assert _kernel_basis(groups, num_vars) == _kernel_basis(plain(rows), num_vars)


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


# overlapping supports: every element shares entries with another one
OVERLAPPING = (
    [[1, 1, 0], [0, 0, 0], [0, 0, 2]],
    [[0, 1, 1], [0, 0, 0], [0, 0, -1]],
    [[0, 0, 1], [Fraction(1, 2), 0, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 3], [0, 0, 0]],
)


@pytest.mark.parametrize("coeffs, ops", [
    # each combination cancels at least one shared entry
    ((1, -1), OVERLAPPING[:2]),
    ((1, -1, 1), OVERLAPPING[:3]),
    ((2, -2, 2, -2), OVERLAPPING),
    ((Fraction(1, 3), Fraction(-1, 3), 1, Fraction(-5, 7)), OVERLAPPING),
    # a repeated element lies in the span of the earlier ones: coefficient 0
    ((1, 2, 3, 4), (OVERLAPPING[0], OVERLAPPING[1], OVERLAPPING[0], OVERLAPPING[3])),
    ((0, 0, 5, 1), (OVERLAPPING[2], OVERLAPPING[2], OVERLAPPING[2], OVERLAPPING[1])),
])
def test_membership_with_cancelling_combinations_matches_reference(coeffs, ops):
    ops = [as_operator(rows) for rows in ops]
    space = SubspaceBasis(3, 1, "rational", tuple(ops))
    member = as_operator([
        [sum((c * op.rows[i][j] for c, op in zip(coeffs, ops)), Fraction(0)) for j in range(3)]
        for i in range(3)
    ])
    expected = ref_membership(ops, member)
    got = membership_coefficients(space, member)
    assert got == expected is not None
    # the combination is the member, whatever it makes of a repeated element
    for i in range(3):
        for j in range(3):
            assert sum(c * op.rows[i][j] for c, op in zip(got, ops)) == member.rows[i][j]
    for i, op in enumerate(ops):
        if op in ops[:i]:
            assert got[i] == 0
    # one entry off the span
    off = as_operator([[member.rows[i][j] + (i == 1 and j == 1) for j in range(3)]
                       for i in range(3)])
    assert membership_coefficients(space, off) is None
    assert ref_membership(ops, off) is None


def reference_commutation_rows(r, r_tilde, n):
    """Rows of B_i Z - Z Bt_i = 0 over vec(Z), from the embedded braid matrices."""
    rows = []
    for i in range(1, n):
        left = embed(braid_matrix(r), [i, i + 1], n).rows
        right = embed(braid_matrix(r_tilde), [i, i + 1], n).rows
        side = len(left)
        for a in range(side):
            for col in range(side):
                row = {}
                for c in range(side):
                    row[c * side + col] = row.get(c * side + col, 0) + left[a][c]
                    row[a * side + c] = row.get(a * side + c, 0) - right[c][col]
                row = {j: v for j, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def commutation_dicts(r, r_tilde, n):
    """Every shifted distinct local row as a dict: the solver's groups, expanded."""
    groups = _shifted_groups(_local_rows(r, r_tilde), r.site_dim, n)
    return [{o + k: v for k, v in terms} for terms, offsets in groups for o in offsets]


def normalised(row):
    """Sorted integer terms of a row, content-free, with a positive first value."""
    keys = sorted(row)
    den = math.lcm(*(Fraction(row[k]).denominator for k in keys))
    ints = [int(Fraction(row[k]) * den) for k in keys]
    g = math.gcd(*ints) if ints[0] > 0 else -math.gcd(*ints)
    return tuple((k, v // g) for k, v in zip(keys, ints))


def local_rank(local, site_dim):
    """Rank of local rows over the d^4 local unknowns, by the Fraction reference."""
    width = site_dim**4
    dense = [[dict(row).get(k, 0) for k in range(width)] for row in local]
    return len(ref_rref(dense, width)[1])


def check_commutation_rows(r, r_tilde, n):
    rows = commutation_dicts(r, r_tilde, n)
    reference = reference_commutation_rows(r, r_tilde, n)
    # each row is stored normalised; each reference row is a multiple of
    # a builder row and each builder row a multiple of a reference row
    kept = [normalised(row) for row in rows]
    assert kept == [tuple(sorted(row.items())) for row in rows]
    assert set(kept) == {normalised(row) for row in reference}
    # position by position, each local row at every environment: no two
    # rows of one position and environment are multiples of each other
    k, envs = len(_local_rows(r, r_tilde)), r.site_dim ** (2 * (n - 2))
    assert len(rows) == (n - 1) * k * envs
    for position in range(n - 1):
        block = position * k * envs
        for env in range(envs):
            group = kept[block + env: block + k * envs: envs]
            assert len(set(group)) == k
    num_vars = r.site_dim ** (2 * n)
    assert _kernel_basis(plain(rows), num_vars) == _kernel_basis(
        plain([dict(row) for row in {normalised(row) for row in reference}]), num_vars)
    # the solver shifts only an independent subset of the local rows, as
    # many as their rank, and still returns the kernel of every distinct row
    local = _local_rows(r, r_tilde)
    kept, _ = _independent_rows(local, r.site_dim**4)
    assert len(kept) == local_rank(kept, r.site_dim) == local_rank(local, r.site_dim)
    assert list(intertwiner_space(r, r_tilde, n).vectors) == _kernel_basis(plain(rows), num_vars)


@pytest.mark.parametrize("name", ybt.catalog.names())
@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutation_rows_of_catalog_braids_match_reference(name, n):
    entry = ybt.catalog.get(name)
    check_commutation_rows(entry.r, entry.r, n)
    if entry.twist is not None:
        check_commutation_rows(entry.r, apply_twist(entry.r, entry.twist.f), n)


SMALL_INT = st.integers(-12, 12).map(lambda v: v if abs(v) <= 3 else 0)


@st.composite
def braid_pairs(draw):
    """Small integer R and R~, mostly at site_dim 2 on 2 to 4 legs, some at 3 on 2."""
    site_dim = draw(st.sampled_from([2, 2, 2, 3]))
    n = draw(st.integers(2, 4)) if site_dim == 2 else 2
    side = site_dim**2
    r, r_tilde = (
        Operator.from_rows(site_dim, 2, [draw(st.lists(SMALL_INT, min_size=side, max_size=side))
                                         for _ in range(side)])
        for _ in range(2)
    )
    return r, draw(st.sampled_from([r, r_tilde])), n


@settings(max_examples=40, deadline=None)
@given(braid_pairs())
def test_commutation_rows_of_random_braids_match_reference(pair):
    check_commutation_rows(*pair)


def test_sl3_commutants_have_the_symmetric_power_dimensions():
    r = jimbo_sl3(Fraction(3, 2))
    assert ybe_residual(r) == 0
    local = _local_rows(r, r)
    kept, dropped = _independent_rows(local, 3**4)
    assert (len(local), len(kept), len(dropped)) == (45, 36, 9)
    _check_dependencies(kept, dropped)
    for n in (2, 3):
        check_commutation_rows(r, r, n)
    # at generic q the commutant has the classical dimension C(n + 8, 8)
    for n, dim in ((2, 45), (3, 165), (4, 495)):
        space = r_symmetric_space(r, n, size_cap=81)
        assert space.dimension == dim == math.comb(n + 8, 8)
        assert list(space.vectors) == _kernel_basis(plain(commutation_dicts(r, r, n)), 9**n)


@pytest.mark.parametrize("which", [0, 4, -1])
def test_dependency_certificate_rejects_one_changed_entry(which):
    r = jimbo_sl3(Fraction(3, 2))
    kept, dropped = _independent_rows(_local_rows(r, r), 3**4)
    _check_dependencies(kept, dropped)
    row, w0, w = dropped[which]
    for k in range(len(row)):
        changed = list(row)
        changed[k] = (row[k][0], row[k][1] + 1)
        forged = list(dropped)
        forged[which] = (tuple(changed), w0, w)
        with pytest.raises(YbtError):
            _check_dependencies(kept, forged)
    # a zero leading weight certifies nothing, even with an empty sum
    with pytest.raises(YbtError):
        _check_dependencies(kept, [(row, 0, {})])
    _check_dependencies(kept, dropped)


def test_solver_rejects_a_forged_dependency(monkeypatch):
    # drop an independent row with a made-up combination: the solve must
    # raise before it shifts the remaining rows
    import ybt.subspace_solver as solver

    def forged(local, width):
        kept, dropped = _independent_rows(local, width)
        return kept[1:], [(kept[0], 1, {0: 1})] + dropped

    r = ybt.catalog.get("six_vertex").r
    monkeypatch.setattr(solver, "_independent_rows", forged)
    with pytest.raises(YbtError):
        r_symmetric_space(r, 3)


@pytest.mark.parametrize("which", [0, 5, -1])
def test_kernel_verification_rejects_one_changed_entry(which):
    r = ybt.catalog.get("six_vertex").r
    rows = _shifted_groups(_local_rows(r, r), 2, 4)
    basis = _kernel_basis(rows, 16**2)
    assert len(basis) == 35
    _verify_kernel(rows, basis)
    # a one-entry vector only rescales when that entry changes
    spread = [i for i, vec in enumerate(basis) if len(vec) > 1]
    assert len(spread) > 10
    changed = [dict(vec) for vec in basis]
    vec = changed[spread[which]]
    vec[max(vec)] += 1
    with pytest.raises(YbtError):
        _verify_kernel(rows, changed)
    _verify_kernel(rows, basis)


# (groups, a basis that solves them, a forged basis that must be rejected),
# one for each branch of the sweep in `_verify_kernel`
FORGED = {
    # x_o = x_(o+1) at o = 0, 2: the forged x_3 breaks the ratio of its vector
    "two-term row, one vector each": (
        [(((0, 1), (1, -1)), (0, 2))],
        [{0: 1, 1: 1}, {2: 1, 3: 1}],
        [{0: 1, 1: 1}, {2: 1, 3: 2}],
    ),
    "two unknowns in different vectors": (
        [(((0, 1), (1, -1)), (0, 2))],
        [{0: 1, 1: 1}, {2: 1, 3: 1}],
        [{0: 1, 1: 1}, {2: 1}, {3: 1}],
    ),
    "an unknown outside every vector": (
        [(((0, 1), (1, -1)), (0, 2))],
        [{0: 1, 1: 1}, {2: 1, 3: 1}],
        [{0: 1, 1: 1}, {3: 1}],
    ),
    "an unknown in several vectors": (
        [(((0, 1), (1, -1)), (0,))],
        [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 3: 1}],
        [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 3: 1}],
    ),
    # x_o + x_(o+1) - 2 x_(o+2) at o = 0, 1
    "a row of three terms": (
        [(((0, 1), (1, 1), (2, -2)), (0, 1))],
        [{0: 3, 1: -1, 2: 1}, {0: -2, 1: 2, 3: 1}],
        [{0: 3, 1: -1, 2: 1}, {0: -2, 1: 2, 3: 2}],
    ),
}


@pytest.mark.parametrize("case", FORGED)
def test_forged_vector_is_rejected_on_every_branch(case):
    groups, good, forged = FORGED[case]
    _verify_kernel(groups, good)
    with pytest.raises(YbtError):
        _verify_kernel(groups, forged)


# ---------------------------------------------------------------------------
# the sparse storage kernels against dense references
# ---------------------------------------------------------------------------
#
# Each reference works on plain lists of dense rows.  Complex entries are
# small Gaussian integers, so every sum and product of the kernels is exact
# there too, and both backends are compared with ==.


def ref_matmul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b))] for i in range(len(a))]


def ref_kron(a, b):
    db = len(b)
    return [[a[i // db][j // db] * b[i % db][j % db] for j in range(len(a) * db)]
            for i in range(len(a) * db)]


def multi_index(idx, site_dim, legs):
    out = []
    for _ in range(legs):
        idx, d = divmod(idx, site_dim)
        out.append(d)
    return out[::-1]


def flat_index(digits, site_dim):
    idx = 0
    for d in digits:
        idx = idx * site_dim + d
    return idx


def ref_leg_permute(x, site_dim, legs, sigma):
    """Entry (i, j) of x lands at (tau i, tau j); tau puts digit k on leg sigma[k]."""
    def tau(idx):
        ds = multi_index(idx, site_dim, legs)
        moved = [0] * legs
        for k, s in enumerate(sigma):
            moved[s - 1] = ds[k]
        return flat_index(moved, site_dim)

    side = len(x)
    out = [[None] * side for _ in range(side)]
    for i in range(side):
        for j in range(side):
            out[tau(i)][tau(j)] = x[i][j]
    return out


def ref_embed(x, site_dim, slots, total, zero):
    """x on `slots`, identity on the other legs, entry by entry."""
    legs = len(slots)
    rest = [s for s in range(1, total + 1) if s not in slots]
    side = site_dim**total
    out = []
    for i in range(side):
        di = multi_index(i, site_dim, total)
        row = []
        for j in range(side):
            dj = multi_index(j, site_dim, total)
            if any(di[s - 1] != dj[s - 1] for s in rest):
                row.append(zero)
                continue
            a = flat_index([di[s - 1] for s in slots], site_dim)
            b = flat_index([dj[s - 1] for s in slots], site_dim)
            row.append(x[a][b])
        out.append(row)
    return out


def g_det(rows):
    """Exact determinant of a Gaussian-integer matrix, over Gaussian rationals."""
    m = [[(Fraction(v.real), Fraction(v.imag)) for v in row] for row in rows]
    n, det = len(m), (Fraction(1), Fraction(0))

    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def div(p, q):
        norm = q[0] * q[0] + q[1] * q[1]
        return mul(p, (q[0] / norm, -q[1] / norm))

    for k in range(n):
        piv = next((i for i in range(k, n) if any(m[i][k])), None)
        if piv is None:
            return 0j
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = (-det[0], -det[1])
        det = mul(det, m[k][k])
        for i in range(k + 1, n):
            f = div(m[i][k], m[k][k])
            m[i] = [(v[0] - w[0], v[1] - w[1]) for v, w in
                    ((v, mul(f, w)) for v, w in zip(m[i], m[k]))]
    return complex(float(det[0]), float(det[1]))


RATIONAL_ENTRY = st.one_of(st.just(Fraction(0)), ENTRY)
COMPLEX_ENTRY = st.one_of(
    st.just(0j), st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
)
ENTRIES = {"rational": RATIONAL_ENTRY, "complex64": COMPLEX_ENTRY}
ZERO = {"rational": Fraction(0), "complex64": 0j}
BACKEND = st.sampled_from(["rational", "complex64"])
# (site_dim, legs) with side at most 9
SPACE = st.sampled_from([(1, 0), (2, 0), (3, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])


def dense_rows(draw, backend, side):
    entry = ENTRIES[backend]
    return [[draw(entry) for _ in range(side)] for _ in range(side)]


def checked_rows(op):
    """op.rows, after checking the stored form the kernels must produce.

    Every row lists nonzero values under strictly ascending columns; the
    rational backend keeps ints over a positive denominator sharing no
    factor with all of them, the complex backend a denominator of 1.
    """
    for row in op.entries:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(v for _, v in row)
    values = [v for row in op.entries for _, v in row]
    if op.backend == "rational":
        assert all(type(v) is int for v in values)
        assert op.den > 0 and math.gcd(op.den, *values) == 1
    else:
        assert op.den == 1
    return op.rows


@st.composite
def operator_pairs(draw):
    """Two dense row lists on one random space and backend, with the operators."""
    backend = draw(BACKEND)
    site_dim, legs = draw(SPACE)
    side = site_dim**legs
    a, b = dense_rows(draw, backend, side), dense_rows(draw, backend, side)
    if draw(st.booleans()):  # share some rows, so equal rows show up in residual
        b = [ra if draw(st.booleans()) else rb for ra, rb in zip(a, b)]
    return backend, a, b, Operator(site_dim, legs, backend, a), Operator(site_dim, legs, backend, b)


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.sampled_from([2, -1, Fraction(-3, 4), Fraction(0)]))
def test_arithmetic_matches_dense_reference(pair, scalar):
    backend, a, b, x, y = pair
    zero = ZERO[backend]
    assert checked_rows(x @ y) == tuple(map(tuple, ref_matmul(a, b, zero)))
    assert checked_rows(x + y) == tuple(
        tuple(v + w for v, w in zip(ra, rb)) for ra, rb in zip(a, b))
    assert checked_rows(x - y) == tuple(
        tuple(v - w for v, w in zip(ra, rb)) for ra, rb in zip(a, b))
    assert checked_rows(-x) == tuple(tuple(-v for v in row) for row in a)
    c = scalar if backend == "rational" else complex(scalar)
    assert checked_rows(c * x) == tuple(tuple(c * v for v in row) for row in a)
    worst = max(abs(v - w) for ra, rb in zip(a, b) for v, w in zip(ra, rb))
    got = residual(x, y)
    if backend == "rational":
        assert got == worst and isinstance(got, Fraction)
    else:
        assert got == float(worst) and isinstance(got, float)


def mixed_rows(rng, backend, side):
    """Dense rows of every kind a product meets: empty, one-entry, sparse, dense.

    The first four rows take one kind each, so every kind occurs; the rows
    are then shuffled."""
    def value():
        if backend == "rational":
            return Fraction(rng.choice([-9, -5, -2, -1, 1, 2, 3, 7]), rng.randint(1, 6))
        return complex(rng.randint(-3, 3), rng.choice([-2, -1, 1, 3]))

    rows = []
    for i in range(side):
        kind = i if i < 4 else rng.randrange(4)
        count = (0, 1, rng.randint(2, 3), rng.randint(side // 4 + 1, side))[kind]
        cols = set(rng.sample(range(side), count))
        rows.append([value() if j in cols else ZERO[backend] for j in range(side)])
    rng.shuffle(rows)
    return rows


@settings(max_examples=30, deadline=None)
@given(BACKEND, st.sampled_from([(2, 4), (4, 2), (5, 2), (3, 3)]),
       st.randoms(use_true_random=False))
def test_products_of_mixed_rows_match_dense_reference(backend, space, rng):
    site_dim, legs = space
    side = site_dim**legs
    a, b = mixed_rows(rng, backend, side), mixed_rows(rng, backend, side)
    x, y = Operator(site_dim, legs, backend, a), Operator(site_dim, legs, backend, b)
    zero = ZERO[backend]
    assert checked_rows(x @ y) == tuple(map(tuple, ref_matmul(a, b, zero)))
    assert checked_rows(y @ x) == tuple(map(tuple, ref_matmul(b, a, zero)))


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.data())
def test_tensor_kernels_match_dense_reference(pair, data):
    backend, a, b, x, y = pair
    site_dim, legs = x.site_dim, x.legs
    assert checked_rows(x) == tuple(map(tuple, a))
    assert checked_rows(kron(x, y)) == tuple(map(tuple, ref_kron(a, b)))
    sigma = data.draw(st.permutations(range(1, legs + 1)))
    assert checked_rows(leg_permute(x, sigma)) == tuple(
        map(tuple, ref_leg_permute(a, site_dim, legs, sigma)))
    total = data.draw(st.integers(legs, 3 if site_dim > 1 else 4))
    slots = data.draw(st.permutations(range(1, total + 1)))[:legs]
    assert checked_rows(embed(x, slots, total)) == tuple(
        map(tuple, ref_embed(a, site_dim, slots, total, ZERO[backend])))


@settings(max_examples=60, deadline=None)
@given(operator_pairs())
def test_invert_and_determinant_match_reference_on_both_backends(pair):
    backend, a, _, x, _ = pair
    side = len(a)
    if backend == "rational":
        assert determinant(x) == ref_det(a)
        if ref_det(a):
            identity_block = [[Fraction(int(i == j)) for j in range(side)] for i in range(side)]
            reduced, _ = ref_rref([r + e for r, e in zip(a, identity_block)], 2 * side)
            assert checked_rows(invert(x)) == tuple(tuple(row[side:]) for row in reduced)
        return
    exact = g_det(a)
    assert abs(determinant(x) - exact) <= 1e-9 * max(1.0, abs(exact))
    if abs(exact) >= 1:  # a nonzero Gaussian-integer determinant
        product = ref_matmul(a, [list(row) for row in invert(x).rows], 0j)
        assert all(abs(product[i][j] - (i == j)) < 1e-9
                   for i in range(side) for j in range(side))


# ---------------------------------------------------------------------------
# one stored form: equality, hashing and the dense view
# ---------------------------------------------------------------------------


@st.composite
def rational_operators(draw):
    site_dim, legs = draw(SPACE)
    side = site_dim**legs
    return Operator(site_dim, legs, "rational", dense_rows(draw, "rational", side))


def routes(x):
    """The same matrix built from dense rows, from from_rows and by kernels."""
    site_dim, legs = x.site_dim, x.legs
    unit = ybt.identity(site_dim, legs)
    yield Operator(site_dim, legs, "rational", x.rows)
    yield Operator.from_rows(site_dim, legs, [list(row) for row in x.rows])
    yield unit @ x
    yield x @ unit
    yield x + (x - x)
    yield Fraction(1, 3) * (3 * x)
    yield -(-x)
    yield leg_permute(x, range(1, legs + 1))
    yield embed(x, range(1, legs + 1), legs)
    yield kron(ybt.identity(site_dim, 0), x)


@settings(max_examples=60, deadline=None)
@given(rational_operators())
def test_every_route_gives_one_stored_form(x):
    assert x.den > 0
    assert math.gcd(x.den, *(v for row in x.entries for _, v in row)) == 1
    for other in routes(x):
        assert other == x and hash(other) == hash(x)
        assert (other.den, other.entries) == (x.den, x.entries)


@pytest.mark.parametrize("site_dim, legs", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_zero_and_scalar_operators_have_one_stored_form(site_dim, legs):
    side = site_dim**legs
    x = Operator.from_rows(site_dim, legs, [[Fraction(k + 1, 4) for k in range(side)]] * side)
    zeros = [
        Operator(site_dim, legs, "rational", [[Fraction(0)] * side] * side),
        Operator.from_rows(site_dim, legs, [[0] * side] * side),
        x - x,
        0 * x,
        x @ Operator.from_rows(site_dim, legs, [[0] * side] * side),
    ]
    for z in zeros:
        assert z == zeros[0] and hash(z) == hash(zeros[0])
        assert (z.den, z.entries) == (1, ((),) * side)
    scalars = [
        Operator(site_dim, 0, "rational", [[Fraction(3, 4)]]),
        Operator.from_rows(site_dim, 0, [[Fraction(6, 8)]]),
        Fraction(3, 4) * ybt.identity(site_dim, 0),
        kron(Operator.from_rows(site_dim, 0, [[Fraction(3, 2)]]),
             Operator.from_rows(site_dim, 0, [[Fraction(1, 2)]])),
        ybt.identity(site_dim, 0) - Fraction(1, 4) * ybt.identity(site_dim, 0),
    ]
    for s in scalars:
        assert s == scalars[0] and hash(s) == hash(scalars[0])
        assert (s.den, s.entries) == (4, (((0, 3),),))
    assert len({*zeros, *scalars}) == 2


@settings(max_examples=60, deadline=None)
@given(operator_pairs())
def test_dense_rows_round_trip(pair):
    backend, a, _, x, _ = pair
    assert x.rows == tuple(map(tuple, a))
    assert x.rows is x.rows  # built once, then cached
    scalar = Fraction if backend == "rational" else complex
    assert all(type(v) is scalar for row in x.rows for v in row)
    again = Operator(x.site_dim, x.legs, backend, x.rows)
    assert again == x and again.rows == x.rows
    assert repr(again) == (f"Operator(site_dim={x.site_dim}, legs={x.legs}, "
                           f"backend={backend!r}, side={x.side})")


# ---------------------------------------------------------------------------
# re-verification survives python -O
# ---------------------------------------------------------------------------


def run_optimized(code):
    src = str(Path(ybt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60
    )


def test_kernel_verification_raises_under_optimized_python():
    code = (
        "from ybt.errors import YbtError\n"
        "from ybt.subspace_solver import _verify_kernel\n"
        "try:\n"
        "    _verify_kernel([(((0, 1), (1, 1)), (0,))], [{0: 1}])\n"
        "except YbtError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr.decode()


def test_forged_vectors_are_rejected_under_optimized_python():
    code = (
        "from ybt.errors import YbtError\n"
        "from ybt.subspace_solver import _verify_kernel\n"
        f"for groups, good, forged in {list(FORGED.values())!r}:\n"
        "    _verify_kernel(groups, good)\n"
        "    try:\n"
        "        _verify_kernel(groups, forged)\n"
        "    except YbtError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr.decode()


def test_dependency_certificate_raises_under_optimized_python():
    code = (
        "import ybt\n"
        "from ybt.errors import YbtError\n"
        "from ybt.subspace_solver import _check_dependencies, _independent_rows, _local_rows\n"
        "r = ybt.catalog.get('six_vertex').r\n"
        "kept, dropped = _independent_rows(_local_rows(r, r), 16)\n"
        "_check_dependencies(kept, dropped)\n"
        "(row, w0, w), = dropped\n"
        "row = row[:-1] + ((row[-1][0], row[-1][1] + 1),)\n"
        "try:\n"
        "    _check_dependencies(kept, [(row, w0, w)])\n"
        "except YbtError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr.decode()


def test_non_member_is_rejected_under_optimized_python():
    # the second basis needs a reduction step, the first is already reduced
    code = (
        "from ybt import Operator, SubspaceBasis, membership_coefficients\n"
        "a = Operator.from_rows(2, 1, [[1, 1], [0, 0]])\n"
        "b = Operator.from_rows(2, 1, [[1, 0], [1, 0]])\n"
        "outside = Operator.from_rows(2, 1, [[0, 0], [0, 1]])\n"
        "for ops in ((a, b), (a, b, a - b)):\n"
        "    space = SubspaceBasis(2, 1, 'rational', ops)\n"
        "    if membership_coefficients(space, outside) is not None:\n"
        "        raise SystemExit(1)\n"
        "    if membership_coefficients(space, a - b)[:2] != (1, -1):\n"
        "        raise SystemExit(2)\n"
        "raise SystemExit(0)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr.decode()


# ---------------------------------------------------------------------------
# certificate attempts: decided modulo a prime, with an exact witness
# ---------------------------------------------------------------------------

# small entries plus multiples of the prime, which vanish mod p
MOD_ENTRY = st.one_of(
    st.integers(-9, 9), st.sampled_from([_PRIME, -_PRIME, 2 * _PRIME, _PRIME + 1])
)


@st.composite
def integer_squares(draw, max_side=7):
    """Square integer rows, often forced singular by a repeated, zero or combined row."""
    side = draw(st.integers(1, max_side))
    rows = [draw(st.lists(MOD_ENTRY, min_size=side, max_size=side)) for _ in range(side)]
    shape = draw(st.sampled_from(["as drawn", "repeated row", "zero row", "combined row"]))
    if shape == "repeated row" and side > 1:
        rows[-1] = list(rows[draw(st.integers(0, side - 2))])
    elif shape == "zero row":
        rows[draw(st.integers(0, side - 1))] = [0] * side
    elif shape == "combined row" and side > 2:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(integer_squares(), DENOMINATOR)
def test_modular_invertibility_decides_as_the_exact_rank(rows, den):
    x = Fraction(1, den) * as_operator(rows)
    assert _invertible(x) == (_rank(x) == x.side)


@settings(max_examples=60, deadline=None)
@given(integer_squares(), st.booleans())
def test_tagged_pivots_and_relations_are_the_combinations_they_carry(rows, reduce):
    width = len(rows)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots, relations = _tagged(sparse, width, reduce)

    def combination(w):
        return [sum(w.get(i, 0) * row[j] for i, row in enumerate(rows)) for j in range(width)]

    assert sorted(pivots) == ref_rref(rows, width)[1]
    assert len(pivots) + len(relations) == len(rows)
    for c, (r, w) in pivots.items():
        assert min(r) == c and combination(w) == [r.get(j, 0) for j in range(width)]
        if reduce:
            assert not any(r.get(other) for other in pivots if other != c)
    for i, w in relations.items():
        assert w[i] != 0 and max(w) == i and not any(combination(w))


@pytest.mark.parametrize("rows, invertible", [
    ([[1, 2], [3, 4]], True),  # full rank mod p
    ([[1, 1], [2, 2]], False),  # the kernel vector (-1, 1) lifts
])
def test_modular_decisions_need_no_exact_rank(monkeypatch, rows, invertible):
    calls = []
    monkeypatch.setattr("ybt.subspace_solver._rank", lambda x: calls.append(x) or _rank(x))
    assert _invertible(as_operator(rows)) is invertible
    assert calls == []


# Both cases take the exact fallback: det(diag(p, 1)) = p vanishes mod p
# only, and the kernel vector (1/2, 1) of rows (2, -1), (4, -2) reads
# ((p + 1) / 2, 1) mod p, whose symmetric lift the exact rows do not annihilate.
FALLBACK = (
    "from ybt import Operator\n"
    "import ybt.subspace_solver as s\n"
    "exact = []\n"
    "rank = s._rank\n"
    "s._rank = lambda x: exact.append(x) or rank(x)\n"
    "x = Operator.from_rows(2, 1, {rows!r})\n"
    "raise SystemExit(0 if s._invertible(x) is {invertible} and len(exact) == 1 else 1)\n"
)


def test_determinant_p_is_accepted_by_the_exact_fallback_under_optimized_python():
    done = run_optimized(FALLBACK.format(rows=[[_PRIME, 0], [0, 1]], invertible=True))
    assert done.returncode == 0, done.stderr.decode()


def test_unlifted_kernel_is_refused_by_the_exact_fallback_under_optimized_python():
    done = run_optimized(FALLBACK.format(rows=[[2, -1], [4, -2]], invertible=False))
    assert done.returncode == 0, done.stderr.decode()
