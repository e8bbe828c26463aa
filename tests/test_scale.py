"""Fused checks at the 8-leg scale target, each answer exact.

The mixed Yang-Baxter residual of six_vertex on 8 legs contracts products
of side 256; the fused swap of site_dim 3 on 6 legs has side 729.  Both are
compared exactly: a zero residual is the Fraction 0, and the fused swap is
matched entry for entry against the block swap written out densely here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from ybt import Operator, catalog, fuse_r, mixed_ybe_residual, swap

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
    res = mixed_ybe_residual(fused[(3, 3)], fused[(3, 2)], fused[(3, 2)], 3, 3, 2)
    assert res > 0


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
