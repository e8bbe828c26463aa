"""Fused checks and commutants past the documented scale, each answer exact.

The mixed Yang-Baxter residual of six_vertex on 8 legs contracts products
of side 256; the fused swap of site_dim 3 on 6 legs has side 729.  Both are
compared exactly: a zero residual is the Fraction 0, and the fused swap is
matched entry for entry against the block swap written out densely here.
The commutants of identity(3, 2) and of Jimbo's U_q(sl_3) R on 5 legs
(59049 unknowns) and of six_vertex on 7 legs are checked against
closed-form dimensions, and the solver's traced memory at identity(3, 2)
on 4 legs is bounded; two
smaller commutant bases and two intertwiner bases (between a catalog R and
its twist) are pinned by the sha256 of their kernel vectors, and the
certificate search on spaces of side 64 and 81 by that of its outcome.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

import ybt.subspace_solver

from ybt import (
    Operator,
    apply_twist,
    catalog,
    fuse_r,
    identity,
    intertwiner_space,
    invertible_certificate,
    mixed_ybe_residual,
    r_symmetric_space,
    swap,
)

from conftest import jimbo_sl3

BLOCKS = [(3, 3, 2), (3, 2, 3), (2, 3, 3)]


def fused_blocks(r):
    return {(m, n): fuse_r(r, m, n) for m, n in ((3, 3), (3, 2), (2, 3))}


@pytest.fixture(scope="module")
def six_vertex_fused():
    return fused_blocks(catalog.get("six_vertex").r)


@pytest.mark.parametrize("m, n, k", BLOCKS)
def test_eight_leg_mixed_ybe_of_six_vertex_is_exactly_zero(six_vertex_fused, m, n, k):
    fused = six_vertex_fused
    res = mixed_ybe_residual(fused[(m, n)], fused[(m, k)], fused[(n, k)], m, n, k)
    assert res == 0 and isinstance(res, Fraction)


def test_eight_leg_mixed_ybe_of_a_corrupted_r_is_nonzero():
    rows = [list(row) for row in catalog.get("six_vertex").r.rows]
    rows[0][1] += 1
    fused = fused_blocks(Operator.from_rows(2, 2, rows))
    want = [Fraction(1188722821, 36864), Fraction(190523165, 6144), Fraction(3656007125, 73728)]
    got = [mixed_ybe_residual(fused[(m, n)], fused[(m, k)], fused[(n, k)], m, n, k)
           for m, n, k in BLOCKS]
    assert got == want


def block_swap_rows(site_dim, m, n):
    """Dense 0/1 rows of v_1..v_m w_1..w_n -> w_1..w_n v_1..v_m."""
    dm, dn = site_dim**m, site_dim**n
    rows = [[0] * (dm * dn) for _ in range(dm * dn)]
    for i in range(dm):
        for j in range(dn):
            rows[j * dm + i][i * dn + j] = 1
    return rows


def test_fused_swap_on_six_legs_is_the_block_swap():
    fused = fuse_r(swap(3), 3, 3)
    assert fused.side == 729
    assert fused == Operator.from_rows(3, 6, block_swap_rows(3, 3, 3))


# dim Sym^n(End C^3) = C(9 + n - 1, n): every operator commutes with the swap
def test_identity_commutant_on_five_legs_of_site_dim_three():
    assert r_symmetric_space(identity(3, 2), 5, size_cap=243).dimension == comb(13, 8)


# at generic q, C(n + 8, 8) by Schur-Weyl duality; a quarter of the
# shifted rows have three terms, so the longer-row system is not trivial
def test_sl3_commutant_on_five_legs_has_the_symmetric_power_dimension():
    space = r_symmetric_space(jimbo_sl3(Fraction(3, 2)), 5, size_cap=243)
    assert space.dimension == comb(13, 8)


# Python 3.11, traced peak of the solve: 4.4-4.5 MiB when every shifted row
# was built as a dict before solving, 1.5 MiB with the rows kept as
# (local row, offsets) groups; the bound sits between the two
def test_identity_commutant_on_four_legs_stays_within_its_memory_bound():
    tracemalloc.start()
    try:
        space = r_symmetric_space(identity(3, 2), 4, size_cap=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dimension == comb(12, 8)
    assert peak < 3 * 2**20


@pytest.mark.parametrize("n", [5, 6, 7])
def test_six_vertex_commutant_dimension_follows_its_closed_form(n):
    space = r_symmetric_space(catalog.get("six_vertex").r, n, size_cap=2**n)
    assert space.dimension == comb(n + 3, 3)


def kernel_digest(space) -> str:
    """sha256 of the basis vectors, each as its sorted (index, entry) pairs."""
    vectors = [sorted(vec.items()) for vec in space.vectors]
    return hashlib.sha256(repr(vectors).encode()).hexdigest()


# pinned before two-term rows were collapsed by a union-find; past the CLI
# pins, which stop at n = 5
def test_identity_site_dim_three_n4_basis_is_pinned():
    space = r_symmetric_space(identity(3, 2), 4, size_cap=81)
    assert kernel_digest(space) == (
        "d9f00bafc7c2be53b03fc2eeca3a51c8516e487c06b75e42ed42a85c2788828a"
    )


def test_six_vertex_n6_basis_is_pinned():
    space = r_symmetric_space(catalog.get("six_vertex").r, 6)
    assert kernel_digest(space) == (
        "2c14f24d69860f92b1ae7304ebaba7b5467630620a6d7d3fcfa28f0e626afd75"
    )


# pinned before the commutation rows were built from the two-leg block;
# here r_tilde is not r, unlike in the commutants above
@pytest.mark.parametrize("name, n, digest", [
    ("diag_twist", 5, "ee0c97ab58d5b3d5d956ac270e989758dd44b2dc4f0152d697009de74e8dbb33"),
    ("jordanian", 4, "a665d62ad85820e6e87db69e95786ee9ad883720d8708b593193182cb5e9a1b9"),
])
def test_intertwiner_basis_against_the_twist_is_pinned(name, n, digest):
    entry = catalog.get(name)
    space = intertwiner_space(entry.r, apply_twist(entry.r, entry.twist.f), n)
    assert kernel_digest(space) == digest


def certificate_digest(found) -> str:
    """sha256 of a certificate's coefficients and its combination's stored form."""
    coeffs, combo = found
    return hashlib.sha256(repr((coeffs, combo.den, combo.entries)).encode()).hexdigest()


# at the documented scale edge (side 64) and one leg of site_dim 3 past it
# (side 81): the all-ones combination is refused by a lifted kernel vector
# mod p, the first random one accepted mod p, and no exact rank runs
@pytest.mark.parametrize("space, digest", [
    (lambda: intertwiner_space(catalog.get("diag_twist").r, apply_twist(
        catalog.get("diag_twist").r, catalog.get("diag_twist").twist.f), 6),
     "9063e14f239f8fcb4b8ab49244fb749f933aef77f972f359a279a83dfcdf115e"),
    (lambda: r_symmetric_space(identity(3, 2), 4, size_cap=81),
     "af9acf55c2537529dbb0466dd64c22539ad2f49c42ece3f3960f0550a4b12351"),
], ids=["diag_twist intertwiner n6", "identity(3, 2) commutant n4"])
def test_certificate_search_at_the_scale_edge_is_pinned(monkeypatch, space, digest):
    space = space()
    verdicts, ranks = [], []
    decide, rank = ybt.subspace_solver._full_rank_mod_p, ybt.subspace_solver._rank
    monkeypatch.setattr(ybt.subspace_solver, "_full_rank_mod_p",
                        lambda rows: verdicts.append(decide(rows)) or verdicts[-1])
    monkeypatch.setattr(ybt.subspace_solver, "_rank", lambda x: ranks.append(x) or rank(x))
    found = invertible_certificate(space, seed=0)
    assert certificate_digest(found) == digest
    assert verdicts == [False, True] and ranks == []
