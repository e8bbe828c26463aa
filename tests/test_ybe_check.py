"""Yang-Baxter, braid-form, mixed-space and RTT residual checks."""

from __future__ import annotations

import random

import pytest

from ybt import (
    COMPLEX64,
    CheckReport,
    apply_twist,
    braid_matrix,
    embed,
    fuse_r,
    identity,
    kron,
    mixed_ybe_residual,
    residual,
    rtt_residual,
    swap,
    ybe_residual,
)
from ybt.errors import ShapeMismatchError

from conftest import rand_invertible, rand_operator


def test_identity_solves_ybe():
    assert ybe_residual(identity(2, 2)) == 0


def test_swap_solves_ybe():
    assert ybe_residual(swap(2)) == 0


def test_six_vertex_solves_ybe(six_vertex_entry):
    assert ybe_residual(six_vertex_entry.r) == 0


def test_random_operator_generically_fails_ybe():
    rng = random.Random(101)
    hits = [ybe_residual(rand_invertible(rng, legs=2)) for _ in range(3)]
    assert all(h != 0 for h in hits)


def test_ybe_requires_two_legs():
    with pytest.raises(ShapeMismatchError):
        ybe_residual(identity(2, 3))


def test_braid_matrix_basics():
    assert braid_matrix(swap(2)) == identity(2, 2)
    assert braid_matrix(identity(2, 2)) == swap(2)


def braid_relation_residual(b):
    """Oracle: residual of B1 B2 B1 - B2 B1 B2 with B at adjacent positions."""
    b1 = embed(b, [1, 2], 3)
    b2 = embed(b, [2, 3], 3)
    return residual(b1 @ b2 @ b1, b2 @ b1 @ b2)


def test_braid_relation_equivalent_to_ybe(catalog_entries):
    rng = random.Random(103)
    for entry in catalog_entries:
        assert ybe_residual(entry.r) == 0
        assert braid_relation_residual(braid_matrix(entry.r)) == 0
    bad = rand_invertible(rng, legs=2)
    assert ybe_residual(bad) != 0
    assert braid_relation_residual(braid_matrix(bad)) != 0


def test_braid_conjugation_identity_random_f(six_vertex_entry):
    # P R . F = F . P Rt holds for every invertible F, Rt the twist of R,
    # whether or not R solves the Yang-Baxter equation
    rng = random.Random(107)
    fixed = six_vertex_entry.r
    for trial in range(30):
        r = fixed if trial % 2 == 0 else rand_operator(rng, legs=2)
        b = braid_matrix(r)
        f = rand_invertible(rng, legs=2)
        bt = braid_matrix(apply_twist(r, f))
        assert residual(b @ f, f @ bt) == 0


def test_mixed_degenerate_case_matches_ybe(six_vertex_entry):
    r = six_vertex_entry.r
    assert mixed_ybe_residual(r, r, r, 1, 1, 1) == ybe_residual(r)


def test_mixed_with_fused_blocks(six_vertex_entry):
    r = six_vertex_entry.r
    r21 = fuse_r(r, 2, 1)
    assert mixed_ybe_residual(r21, r21, r, 2, 1, 1) == 0


def test_mixed_validates_shapes(six_vertex_entry):
    r = six_vertex_entry.r
    with pytest.raises(ShapeMismatchError):
        mixed_ybe_residual(r, r, r, 2, 1, 1)


def test_rtt_with_identity_t(six_vertex_entry):
    assert rtt_residual(six_vertex_entry.r, identity(2, 2)) == 0


def test_rtt_with_swap_and_symmetric_t():
    rng = random.Random(109)
    a = rand_operator(rng, legs=1)
    assert rtt_residual(swap(2), kron(a, a)) == 0


def test_rtt_recovers_second_split_condition(jordanian_entry):
    # for a variant-B factorized twist, T = F solves RTT against the twisted matrix
    f = jordanian_entry.twist.f
    r_twisted = apply_twist(jordanian_entry.r, f)
    assert rtt_residual(r_twisted, f) == 0


def test_higher_site_dimensions():
    # the library's target scale goes beyond qubits
    assert ybe_residual(swap(3)) == 0
    assert ybe_residual(identity(4, 2)) == 0
    p4 = swap(4)
    fused = fuse_r(p4, 2, 1)  # 64 x 64
    assert mixed_ybe_residual(fused, fused, p4, 2, 1, 1) == 0


def complex_operator(op):
    from ybt import Operator

    rows = [[complex(float(v), 0.0) for v in row] for row in op.rows]
    return Operator.from_rows(op.site_dim, op.legs, rows, backend=COMPLEX64)


def test_complex_backend_residuals_are_floats(six_vertex_entry):
    rc = complex_operator(six_vertex_entry.r)
    res = ybe_residual(rc)
    assert isinstance(res, float)
    assert res < 1e-9


def test_complex_verdicts_respect_the_tolerance(six_vertex_entry):
    rc = complex_operator(six_vertex_entry.r)
    rows = [list(row) for row in rc.rows]
    rows[1][2] += 1e-12
    from ybt import Operator

    nudged = Operator.from_rows(2, 2, rows, backend=COMPLEX64)
    res = ybe_residual(nudged)
    assert 0 < res < 1e-9
    assert CheckReport.build({"ybe": res}, COMPLEX64, 1e-9).verdict
    assert not CheckReport.build({"ybe": res}, COMPLEX64, 1e-15).verdict
