"""Tensor bookkeeping: Kronecker products, leg permutations, embeddings, inverses.

The embedding and permutation tests are checked against matrices built
independently from first principles: a basis-index map (i1..in) -> (j1..jn)
is turned into a 0/1 matrix entry by entry, with no call into the library's
own leg machinery.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import matmul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ybt
from ybt import (
    COMPLEX64,
    Operator,
    RATIONAL,
    determinant,
    embed,
    identity,
    invert,
    kron,
    leg_permute,
    residual,
    solve,
    swap,
)
from ybt.errors import BackendMismatchError, ShapeMismatchError, SingularOperatorError
from ybt.tensor_core import _make, _placement

from conftest import diag_operator, rand_fraction, rand_invertible, rand_operator


def index_map_matrix(site_dim, legs, index_fn):
    """Oracle: permutation matrix M with M[index_fn(idx)][idx] = 1.

    index_fn acts on multi-indices written as tuples, leftmost slowest.
    """
    side = site_dim**legs

    def to_tuple(idx):
        out = []
        for _ in range(legs):
            out.append(idx % site_dim)
            idx //= site_dim
        return tuple(reversed(out))

    def to_index(ts):
        idx = 0
        for t in ts:
            idx = idx * site_dim + t
        return idx

    rows = [[Fraction(0)] * side for _ in range(side)]
    for src in range(side):
        dst = to_index(index_fn(to_tuple(src)))
        rows[dst][src] = Fraction(1)
    return Operator(site_dim, legs, RATIONAL, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------


def test_kron_identities():
    assert kron(identity(2, 1), identity(2, 1)) == identity(2, 2)


def test_kron_diagonal_is_entrywise():
    a = diag_operator([1, 2], legs=1)
    b = diag_operator([1, 3], legs=1)
    assert kron(a, b) == diag_operator([1, 3, 2, 6], legs=2)


def test_kron_swap_equals_embed_and_oracle():
    # P on legs (1,2) of a 3-leg space, all three routes
    p12 = kron(swap(2), identity(2, 1))
    assert p12 == embed(swap(2), [1, 2], 3)
    oracle = index_map_matrix(2, 3, lambda t: (t[1], t[0], t[2]))
    assert p12 == oracle


def test_kron_unit_is_neutral():
    rng = random.Random(3)
    x = rand_operator(rng, legs=2)
    assert kron(identity(2, 0), x) == x
    assert kron(x, identity(2, 0)) == x


def test_kron_rejects_mixed_backends():
    with pytest.raises(BackendMismatchError):
        kron(identity(2, 1), identity(2, 1, COMPLEX64))


def test_kron_rejects_site_dim_mismatch():
    with pytest.raises(ShapeMismatchError):
        kron(identity(2, 1), identity(3, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_kron_associative(seed):
    rng = random.Random(seed)
    a, b, c = (rand_operator(rng, legs=1) for _ in range(3))
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) == 0


# ---------------------------------------------------------------------------
# leg_permute
# ---------------------------------------------------------------------------


def test_leg_permute_moves_factors_to_slots():
    rng = random.Random(7)
    a, b, c = (rand_operator(rng, legs=1) for _ in range(3))
    x = kron(kron(a, b), c)
    # factor k goes to slot sigma(k): a->3, b->1, c->2
    assert leg_permute(x, (3, 1, 2)) == kron(kron(b, c), a)


def test_leg_permute_identity():
    rng = random.Random(11)
    x = rand_operator(rng, legs=3)
    assert leg_permute(x, (1, 2, 3)) == x


def test_leg_permute_roundtrip_100_instances():
    rng = random.Random(13)
    perms = [(1, 2, 3), (2, 1, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1), (1, 3, 2)]
    for _ in range(100):
        x = rand_operator(rng, legs=3)
        sigma = perms[rng.randrange(len(perms))]
        inverse = [0] * 3
        for k, s in enumerate(sigma, start=1):
            inverse[s - 1] = k
        assert leg_permute(leg_permute(x, sigma), inverse) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_leg_permute_group_action(seed):
    rng = random.Random(seed)
    x = rand_operator(rng, legs=3)
    perms = [(2, 1, 3), (3, 1, 2), (1, 3, 2), (2, 3, 1)]
    rho = perms[rng.randrange(len(perms))]
    sigma = perms[rng.randrange(len(perms))]
    composed = tuple(sigma[rho[k] - 1] for k in range(3))
    assert leg_permute(x, composed) == leg_permute(leg_permute(x, rho), sigma)


def test_leg_permute_rejects_non_bijections():
    x = identity(2, 3)
    with pytest.raises(ShapeMismatchError):
        leg_permute(x, (1, 1, 2))
    with pytest.raises(ShapeMismatchError):
        leg_permute(x, (1, 2))


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def test_embed_full_slots_is_identity_operation():
    rng = random.Random(17)
    f = rand_operator(rng, legs=2)
    assert embed(f, [1, 2], 2) == f


def test_embed_exchange_of_outer_legs():
    oracle = index_map_matrix(2, 3, lambda t: (t[2], t[1], t[0]))
    assert embed(swap(2), [1, 3], 3) == oracle


def test_embed_identity_stays_identity():
    assert embed(identity(2, 2), [2, 3], 3) == identity(2, 3)


def test_embed_slot_order_is_factor_order():
    rng = random.Random(19)
    f = rand_operator(rng, legs=2)
    assert embed(f, [2, 1], 2) == leg_permute(f, (2, 1))


def test_embed_matches_permuted_kron():
    rng = random.Random(23)
    for total in (3, 4):
        for slots in [(1, 2), (1, 3), (2, 3), (1, total), (2, total)]:
            if slots[1] > total:
                continue
            x = rand_operator(rng, legs=2)
            sigma = [0] * total
            sigma[0], sigma[1] = slots[0], slots[1]
            rest = [s for s in range(1, total + 1) if s not in slots]
            for k, s in enumerate(rest):
                sigma[2 + k] = s
            padded = kron(x, identity(2, total - 2))
            assert embed(x, slots, total) == leg_permute(padded, sigma)


def test_embed_oracle_at_site_dim_three():
    oracle = index_map_matrix(3, 3, lambda t: (t[2], t[1], t[0]))
    assert embed(swap(3), [1, 3], 3) == oracle


def test_embed_rejects_bad_slots():
    f = identity(2, 2)
    with pytest.raises(ShapeMismatchError):
        embed(f, [1, 1], 3)
    with pytest.raises(ShapeMismatchError):
        embed(f, [1, 4], 3)
    with pytest.raises(ShapeMismatchError):
        embed(f, [1], 3)


@st.composite
def placements(draw):
    """(site_dim, slots, total_legs) with slots an ordered subset of the legs."""
    site_dim = draw(st.integers(1, 3))
    total = draw(st.integers(0, 5))
    legs = draw(st.permutations(range(1, total + 1)))
    return site_dim, tuple(legs[:draw(st.integers(0, total))]), total


@settings(max_examples=150, deadline=None)
@given(placements())
def test_placement_matches_digit_by_digit_reference(case):
    site_dim, slots, total = case
    rest_legs = [s for s in range(1, total + 1) if s not in slots]

    def digits(idx, legs):
        out = []
        for _ in range(legs):
            idx, d = divmod(idx, site_dim)
            out.append(d)
        return out[::-1]

    def place(values, legs):
        # row-major index of the multi-index with values[t] on leg legs[t], 0 elsewhere
        full = [0] * total
        for v, s in zip(values, legs):
            full[s - 1] = v
        idx = 0
        for d in full:
            idx = idx * site_dim + d
        return idx

    pos, rest = _placement(site_dim, slots, total)
    assert pos == [place(digits(a, len(slots)), slots) for a in range(site_dim ** len(slots))]
    assert rest == [place(digits(b, len(rest_legs)), rest_legs)
                    for b in range(site_dim ** len(rest_legs))]


def test_placement_is_built_once_and_left_unchanged_by_embed():
    pos, rest = _placement(2, [3, 1], 4)
    again = _placement(2, (3, 1), 4)
    assert again[0] is pos and again[1] is rest
    before = (list(pos), list(rest))
    for x in (swap(2), rand_operator(random.Random(5), 2, 2), diag_operator([1, 2, 3, 4], legs=2)):
        placed = embed(x, [3, 1], 4)
        assert placed == leg_permute(kron(x, identity(2, 2)), (3, 1, 2, 4))
    assert _placement(2, [3, 1], 4)[0] is pos
    assert (pos, rest) == before


# ---------------------------------------------------------------------------
# invert / determinant
# ---------------------------------------------------------------------------


def test_invert_identity():
    assert invert(identity(2, 2)) == identity(2, 2)


def test_invert_diagonal():
    x = diag_operator([2, Fraction(1, 3), 1, 5])
    assert invert(x) == diag_operator([Fraction(1, 2), 3, 1, Fraction(1, 5)])


def test_invert_swap_is_involution():
    p = swap(2)
    assert invert(p) @ p == identity(2, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_invert_exact_roundtrip(seed):
    rng = random.Random(seed)
    legs = rng.choice([1, 2])
    x = rand_invertible(rng, legs=legs)
    inv = invert(x)
    ident = identity(2, legs)
    assert x @ inv == ident
    assert inv @ x == ident


def test_invert_singular_reports_rank():
    rows = [
        [1, 2, 3, 4],
        [2, 4, 6, 8],
        [0, 0, 1, 1],
        [0, 0, 2, 2],
    ]
    x = Operator.from_rows(2, 2, rows)
    with pytest.raises(SingularOperatorError) as err:
        invert(x)
    assert err.value.rank == 2


def test_determinant_matches_diagonal_product():
    x = diag_operator([2, 3, Fraction(1, 6), 1])
    assert determinant(x) == 1
    assert determinant(swap(2)) == -1
    assert determinant(identity(2, 2) - identity(2, 2)) == 0


def test_invert_complex_backend_within_tolerance():
    rng = random.Random(29)
    rows = [[complex(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
            for _ in range(4)]
    x = Operator.from_rows(2, 2, rows, backend=COMPLEX64)
    res = residual(x @ invert(x), identity(2, 2, COMPLEX64))
    assert isinstance(res, float)
    assert res < 1e-9


def test_invert_complex_singular():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1]]
    x = Operator.from_rows(2, 2, rows, backend=COMPLEX64)
    with pytest.raises(SingularOperatorError):
        invert(x)


# ---------------------------------------------------------------------------
# residual and scalars
# ---------------------------------------------------------------------------


def test_residual_examples():
    rng = random.Random(31)
    x = rand_operator(rng, legs=2)
    assert residual(x, x) == 0
    two_i = 2 * identity(2, 1)
    assert residual(identity(2, 1), two_i) == 1
    p = swap(2)
    assert residual(p @ p, identity(2, 2)) == 0


def test_residual_is_exact_fraction_on_rational():
    a = diag_operator([1, 1, 1, Fraction(1, 3)])
    b = identity(2, 2)
    out = residual(a, b)
    assert out == Fraction(2, 3)
    assert isinstance(out, Fraction)


def test_residual_rejects_shape_and_backend_mixes():
    with pytest.raises(ShapeMismatchError):
        residual(identity(2, 1), identity(2, 2))
    with pytest.raises(BackendMismatchError):
        residual(identity(2, 1), identity(2, 1, COMPLEX64))


def test_from_rows_coerces_ints_exactly():
    x = Operator.from_rows(2, 1, [[1, 0], [0, 1]])
    assert x == identity(2, 1)
    assert all(isinstance(v, Fraction) for row in x.rows for v in row)


def test_backend_coercion_never_silent():
    with pytest.raises(BackendMismatchError):
        Operator.from_rows(2, 1, [[0.5, 0], [0, 1]])
    with pytest.raises(BackendMismatchError):
        Operator.from_rows(2, 1, [[Fraction(1), 0], [0, 1]], backend=COMPLEX64)
    with pytest.raises(BackendMismatchError):
        0.5 * identity(2, 1)


def test_zero_leg_scalar_unit():
    e0 = identity(2, 0)
    assert e0.side == 1
    assert e0.rows == ((Fraction(1),),)


# ---------------------------------------------------------------------------
# rational identities: marked where made, passed through by every kernel
# ---------------------------------------------------------------------------

# (site_dim, legs) with side at most 27
UNIT_SPACES = st.sampled_from(
    [(1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 3),
     (4, 1), (4, 2), (5, 2)]
)
UNIT_ENTRY = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
)


def unmarked(op):
    """The same stored entries, wrapped without the unit mark."""
    return _make(op.site_dim, op.legs, op.backend, op.den, op.entries)


@st.composite
def unit_and_operator(draw):
    site_dim, legs = draw(UNIT_SPACES)
    side = site_dim**legs
    rows = [[draw(UNIT_ENTRY) for _ in range(side)] for _ in range(side)]
    return identity(site_dim, legs), Operator(site_dim, legs, RATIONAL, rows)


@settings(max_examples=40, deadline=None)
@given(unit_and_operator())
def test_products_and_solves_with_a_unit_are_the_other_operand(ops):
    unit, x = ops
    twin = unmarked(unit)
    assert unit._unit and not twin._unit
    assert unit @ x is x
    assert x @ unit is (unit if x._unit else x)  # a drawn x can be a unit too
    assert unit @ x == twin @ x and x @ unit == x @ twin
    assert solve(unit, x) is x and solve(unit, x) == solve(twin, x)
    assert invert(unit) == unit == invert(twin)


@settings(max_examples=40, deadline=None)
@given(UNIT_SPACES, st.integers(0, 2), st.data())
def test_kron_and_placements_of_a_unit_are_the_target_identity(space, more, data):
    site_dim, legs = space
    unit, twin = identity(site_dim, legs), unmarked(identity(site_dim, legs))
    other = identity(site_dim, more)
    assert kron(unit, other) == identity(site_dim, legs + more) == kron(twin, unmarked(other))
    assert kron(other, unit) == identity(site_dim, legs + more) == kron(unmarked(other), twin)
    scalar = identity(site_dim, 0)
    x = Operator(site_dim, legs, RATIONAL, [[data.draw(UNIT_ENTRY) for _ in range(unit.side)]
                                             for _ in range(unit.side)])
    assert kron(scalar, x) is x
    assert kron(x, scalar) is x or x._unit  # a 0-leg unit x gives `scalar` back
    assert kron(scalar, x) == kron(unmarked(scalar), x) == kron(x, unmarked(scalar))
    total = legs + more
    slots = data.draw(st.permutations(range(1, total + 1)))[:legs]
    assert embed(unit, slots, total) == identity(site_dim, total) == embed(twin, slots, total)
    sigma = data.draw(st.permutations(range(1, legs + 1)))
    assert leg_permute(unit, sigma) == unit == leg_permute(twin, sigma)


def test_units_are_marked_where_they_are_made(tmp_path):
    from ybt.formats import load_operator, save_operator

    assert identity(3, 2)._unit and identity(2, 0)._unit
    assert Operator.from_rows(2, 1, [[1, 0], [0, Fraction(2, 2)]])._unit
    path = tmp_path / "unit.json"
    save_operator(identity(2, 2), path)
    assert load_operator(path)._unit
    # not units: a scaled identity, a swap, a rational product, a complex identity
    assert not (2 * identity(2, 1))._unit
    assert not Operator.from_rows(2, 1, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])._unit
    assert not swap(2)._unit and not (swap(2) @ swap(2))._unit
    assert not identity(2, 2, COMPLEX64)._unit


def test_a_coefficient_one_row_of_a_product_is_the_right_factors_stored_row():
    y = Operator.from_rows(2, 1, [[Fraction(1, 2), 3], [0, -1]])
    x = Operator.from_rows(2, 1, [[0, 1], [3, 0]])  # row 0 is y's row 1, row 1 is 3 y's row 0
    got = x @ y
    assert got.entries[0] is y.entries[1]
    assert got.entries[1] == ((0, 3), (1, 18)) and got.den == y.den == 2


def test_complex_identity_products_keep_their_normalisation():
    # a signed zero part survives a copy but not a product, which sums from 0j
    x = Operator.from_rows(2, 1, [[complex(1, -0.0), 0], [0, complex(-0.0, 2)]],
                           backend=COMPLEX64)
    unit = identity(2, 1, COMPLEX64)
    normalised = (1, repr(tuple(tuple((j, v + 0j) for j, v in row) for row in x.entries)))
    assert normalised != (x.den, repr(x.entries))
    for got in (unit @ x, x @ unit, kron(identity(2, 0, COMPLEX64), x)):
        assert got == x and (got.den, repr(got.entries)) == normalised


def test_a_unit_still_rejects_bad_placements_and_mixed_backends():
    unit = identity(2, 2)
    with pytest.raises(ShapeMismatchError):
        embed(unit, [1, 1], 3)
    with pytest.raises(ShapeMismatchError):
        embed(unit, [1], 3)
    with pytest.raises(ShapeMismatchError):
        embed(unit, [1, 4], 3)
    with pytest.raises(ShapeMismatchError):
        leg_permute(unit, (1, 3))
    for kernel in (lambda a, b: a @ b, kron, solve):
        with pytest.raises(BackendMismatchError):
            kernel(unit, identity(2, 2, COMPLEX64))
        with pytest.raises(BackendMismatchError):
            kernel(identity(2, 2, COMPLEX64), unit)
    with pytest.raises(ShapeMismatchError):
        unit @ identity(2, 1)
    with pytest.raises(ShapeMismatchError):
        solve(unit, identity(3, 2))
    with pytest.raises(ShapeMismatchError):
        kron(identity(2, 0), identity(3, 1))


# ---------------------------------------------------------------------------
# a unit costs nothing until it is read
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX64])
@pytest.mark.parametrize("space", [(1, 2), (2, 0), (2, 1), (2, 3), (3, 2), (4, 1)])
def test_a_lazy_identity_equals_and_hashes_like_one_built_from_rows(space, backend):
    site_dim, legs = space
    side = site_dim**legs
    lazy = identity(site_dim, legs, backend)
    assert "entries" not in vars(lazy)
    built = Operator.from_rows(site_dim, legs, [[int(i == j) for j in range(side)]
                                                for i in range(side)], backend=backend)
    assert lazy == built and hash(lazy) == hash(built)
    assert lazy.entries == built.entries and lazy.rows == built.rows
    assert lazy._unit == built._unit == (backend == RATIONAL)
    assert identity(site_dim, legs, backend) == lazy  # a second lazy one, read by ==


@settings(max_examples=40, deadline=None)
@given(unit_and_operator(), st.data())
def test_kron_with_a_unit_factor_is_kron_of_unmarked_twins(ops, data):
    unit, x = ops
    site_dim = x.site_dim
    # the other unit keeps the product at most 81 wide
    more = data.draw(st.integers(0, max(k for k in range(4) if x.side * site_dim**k <= 81)))
    other = identity(site_dim, more)
    right, left = kron(x, other), kron(other, x)
    assert "entries" not in vars(other)  # the unit's rows were not read
    twin = unmarked(other)
    total = x.legs + more
    assert right == kron(unmarked(x), twin) == embed(x, range(1, x.legs + 1), total)
    assert left == kron(twin, unmarked(x)) == embed(x, range(more + 1, total + 1), total)
    assert kron(unit, other) == kron(unmarked(unit), twin) == identity(site_dim, x.legs + more)


def test_residual_of_an_operator_with_itself_or_of_two_units_is_zero():
    rng = random.Random(41)
    x = rand_operator(rng, legs=2)
    for a, b in ((x, x), (identity(2, 3), identity(2, 3)), (identity(3, 0), identity(3, 0)),
                 (identity(2, 2), unmarked(identity(2, 2)))):
        got = residual(a, b)
        assert got == 0 and type(got) is Fraction
    z = 1j * identity(2, 2, COMPLEX64)
    for a, b in ((z, z), (identity(2, 2, COMPLEX64), identity(2, 2, COMPLEX64))):
        got = residual(a, b)
        assert got == 0 and type(got) is float
    with pytest.raises(ShapeMismatchError):
        residual(identity(2, 2), identity(2, 3))
    with pytest.raises(BackendMismatchError):
        residual(identity(2, 2), identity(2, 2, COMPLEX64))


def test_a_million_wide_unit_is_made_multiplied_krond_and_compared_unread():
    tracemalloc.start()
    try:
        unit = identity(2, 20)
        made = [unit, unit @ unit, kron(identity(2, 0), unit), kron(unit, identity(2, 0)),
                kron(identity(2, 12), identity(2, 8))]
        zero = residual(unit, identity(2, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert zero == 0
    for op in made:
        assert op.side == 2**20 and op._unit and "entries" not in vars(op)


# ---------------------------------------------------------------------------
# residuals of products given as tuples of factors
# ---------------------------------------------------------------------------


def chain_factor(rng, site_dim, legs, backend=RATIONAL):
    """A random factor: a unit, an unmarked unit, or sparse fractions with zero rows."""
    pick = rng.random()
    if pick < 0.15:
        return identity(site_dim, legs, backend)
    if pick < 0.2:
        return unmarked(identity(site_dim, legs, backend))
    side = site_dim**legs
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.4 else 0
             for _ in range(side)] if rng.random() > 0.15 else [0] * side
            for _ in range(side)]
    if backend == COMPLEX64:
        rows = [[complex(v) for v in row] for row in rows]
    return Operator(site_dim, legs, backend, rows)


def chain_cases(rng):
    """(x, y) tuples of 1-6 factors on one space: apart, regrouped or the same objects."""
    site_dim, legs = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    backend = rng.choice([RATIONAL, RATIONAL, COMPLEX64])
    xs = tuple(chain_factor(rng, site_dim, legs, backend) for _ in range(rng.randint(1, 6)))
    ys = tuple(chain_factor(rng, site_dim, legs, backend) for _ in range(rng.randint(1, 6)))
    cut = rng.randrange(len(xs))
    regrouped = xs[:cut] + (reduce(matmul, xs[cut:cut + 2]),) + xs[cut + 2:]
    padded = list(xs)
    padded.insert(rng.randint(0, len(xs)), identity(site_dim, legs, backend))
    return [(xs, ys), (xs, regrouped), (tuple(padded), xs), (xs, tuple(xs)), (xs, ys[0]),
            (ys[0], xs), ((reduce(matmul, xs),), xs)]


def chain_residual_problems(xs, ys):
    """How ``residual`` of the tuples differs from that of the built products, if it does."""
    product = (lambda c: reduce(matmul, c) if type(c) is tuple else c)
    got, want = residual(xs, ys), residual(product(xs), product(ys))
    if type(got) is not type(want) or got != want:
        return [f"{got!r} != {want!r}"]
    if type(got) is float and got.hex() != want.hex():
        return [f"{got.hex()} is not bitwise {want.hex()}"]
    return []


def raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 -- the class is the result
        return type(exc)
    return None


# factors that differ from a (2, 2) rational chain in site_dim, legs or backend
MISFITS = [identity(3, 2), identity(4, 1), identity(2, 1), identity(2, 3),
           identity(2, 2, COMPLEX64), 1j * identity(2, 1, COMPLEX64),
           unmarked(identity(3, 1)), swap(3)]


def chain_error_problems(rng):
    """How the error of a chain with misfit factors differs from that of its products.

    Both chains can turn into the same misfit, say ``(identity(2, 1),)``,
    whose products fit; such draws are redrawn, so the products always raise.
    """
    want = None
    while want is None:
        xs = [chain_factor(rng, 2, 2) for _ in range(rng.randint(1, 4))]
        ys = [chain_factor(rng, 2, 2) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 2)):
            chain = rng.choice([xs, ys])
            chain[rng.randrange(len(chain))] = rng.choice(MISFITS)
        xs, ys = tuple(xs), tuple(ys)
        want = raised(lambda: residual(reduce(matmul, xs), reduce(matmul, ys)))
    got = raised(lambda: residual(xs, ys))
    return [] if got is want and want is not None else [f"{got} is not {want}"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_a_chain_residual_is_the_residual_of_its_built_products(seed):
    for xs, ys in chain_cases(random.Random(seed)):
        assert not chain_residual_problems(xs, ys)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
@example(197)  # both chains once became (identity(2, 1),), whose products fit
def test_a_misfit_factor_in_a_chain_raises_what_its_product_raises(seed):
    assert not chain_error_problems(random.Random(seed))
    with pytest.raises(ShapeMismatchError):
        residual((), identity(2, 2))


def test_chain_residuals_and_errors_match_products_under_optimized_python():
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(ybt.__file__).resolve().parents[1])
    code = (
        f"import random, sys\nsys.path[:0] = [{src!r}, {tests!r}]\n"
        "import test_tensor_core as t\n"
        "for seed in range(40):\n"
        "    rng = random.Random(seed)\n"
        "    if t.chain_error_problems(rng):\n"
        "        raise SystemExit(2)\n"
        "    for xs, ys in t.chain_cases(rng):\n"
        "        if t.chain_residual_problems(xs, ys):\n"
        "            raise SystemExit(1)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_chains_of_the_same_objects_are_equal_unread():
    class Unreadable(tuple):
        def __getitem__(self, i):
            raise AssertionError("a row was read")

        def __iter__(self):
            raise AssertionError("a row was read")

    a, b = (_make(2, 2, RATIONAL, 1, Unreadable()) for _ in range(2))
    unit = identity(2, 2)
    for xs, ys in (((a, b), (a, b)), ((a, unit, b), (unit, a, unit, b)), ((unit, a), a)):
        got = residual(xs, ys)
        assert got == 0 and type(got) is Fraction


def test_a_million_wide_unit_only_chain_is_answered_unread():
    tracemalloc.start()
    try:
        unit, other = identity(2, 20), identity(2, 20)
        zeros = [residual((unit, other), unit), residual(unit, (other, other, unit)),
                 residual((unit,), (other,))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert all(z == 0 and type(z) is Fraction for z in zeros)
    assert "entries" not in vars(unit) and "entries" not in vars(other)


def test_checks_given_chains_build_no_product(monkeypatch):
    from ybt import check_split_A, fuse_r, mixed_ybe_residual
    from ybt.catalog import six_vertex_r

    six = six_vertex_r(Fraction(3))
    bad = [list(row) for row in six.rows]
    bad[0][1] += 1
    bad = Operator.from_rows(2, 2, bad)
    f = rand_invertible(random.Random(43), legs=2)
    mixed, split = [], []
    for r in (six, bad):
        blocks = fuse_r(r, 2, 1), fuse_r(r, 2, 1), fuse_r(r, 1, 1)
        a, b, c = (embed(x, s, 4) for x, s in zip(blocks, ([1, 2, 3], [1, 2, 4], [3, 4])))
        mixed.append((blocks, residual(a @ b @ c, c @ b @ a)))
        r12, r23 = embed(r, [1, 2], 3), embed(r, [2, 3], 3)
        f12, f13, f23 = embed(f, [1, 2], 3), embed(f, [1, 3], 3), embed(f, [2, 3], 3)
        split.append((r, {"A1": residual(r23 @ f13 @ f12, f12 @ f13 @ r23),
                          "A2": residual(r12 @ f23 @ f13, f13 @ f23 @ r12),
                          "A3": residual(f12 @ f23, f23 @ f12)}))
    assert mixed[0][1] == 0 != mixed[1][1] and any(split[1][1].values())

    def refused(self, other):
        raise AssertionError("a product was built")

    monkeypatch.setattr(Operator, "__matmul__", refused)
    for blocks, want in mixed:
        got = mixed_ybe_residual(*blocks, 2, 1, 1)
        assert got == want and type(got) is Fraction
    for r, want in split:
        got = check_split_A(r, f).residuals
        assert got == want and all(type(v) is Fraction for v in got.values())


def digit_embed(x, slots, total):
    """Oracle: entry (I, J) is x[a][b] when I and J agree off `slots`, with a, b
    read from their digits on `slots` in slot order; no library placement is used."""
    d = x.site_dim

    def digits(idx):
        return [idx // d ** (total - 1 - t) % d for t in range(total)]

    def on_slots(ds):
        idx = 0
        for s in slots:
            idx = idx * d + ds[s - 1]
        return idx

    rest = [s for s in range(1, total + 1) if s not in slots]
    rows = []
    for i in range(d**total):
        di = digits(i)
        rows.append([
            x.rows[on_slots(di)][on_slots(dj)]
            if all(di[s - 1] == dj[s - 1] for s in rest) else 0
            for dj in map(digits, range(d**total))
        ])
    return Operator(d, total, RATIONAL, rows)


@pytest.mark.parametrize("slots", [(3, 1), (2, 1, 3), (1, 3), (1, 2), (2, 3), (3,), (1, 2, 3),
                                   (3, 2, 1)])
@pytest.mark.parametrize("site_dim", [2, 3])
def test_embed_with_ascending_or_other_slots_matches_a_digit_reference(slots, site_dim):
    rng = random.Random(47)
    side = site_dim ** len(slots)
    x = Operator(site_dim, len(slots), RATIONAL, [
        [rand_fraction(rng) if rng.random() < 0.5 else 0 for _ in range(side)]
        for _ in range(side)])
    placed = embed(x, slots, 3)
    assert placed == digit_embed(x, slots, 3)
    assert all([j for j, _ in row] == sorted(j for j, _ in row) for row in placed.entries)
