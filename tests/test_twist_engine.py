"""Twist pairs: the defining conditions, the auxiliary identity, groupoid laws."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ybt import (
    CheckReport,
    Operator,
    TwistPair,
    apply_twist,
    aux_identity_residual,
    check_pair,
    compose_pairs,
    gauge_transform,
    identity,
    identity_pair,
    invert,
    invert_pair,
    kron,
    residual,
    ybe_residual,
)
from ybt.errors import ConditionWarning, ShapeMismatchError, SingularOperatorError

from conftest import diag_operator, rand_invertible


def test_pair_requires_invertible_parts():
    nilpotent = Fraction(0) * identity(2, 2)
    with pytest.raises(SingularOperatorError):
        TwistPair(nilpotent, identity(2, 3))
    with pytest.raises(ShapeMismatchError):
        TwistPair(identity(2, 3), identity(2, 3))


def test_pair_derived_parts_satisfy_cond1_identically():
    rng = random.Random(201)
    f = rand_invertible(rng, legs=2)
    g = rand_invertible(rng, legs=3)
    pair = TwistPair(f, g)
    from ybt import embed

    lhs = pair.phi @ embed(f, [1, 2], 3)
    rhs = pair.psi @ embed(f, [2, 3], 3)
    assert residual(lhs, rhs) == 0
    assert residual(lhs, g) == 0


def test_apply_twist_with_identity_fixes_r(catalog_entries):
    for entry in catalog_entries:
        assert apply_twist(entry.r, identity(2, 2)) == entry.r


def test_apply_twist_inverse_restores(six_vertex_entry):
    rng = random.Random(203)
    r = six_vertex_entry.r
    for _ in range(10):
        f = rand_invertible(rng, legs=2)
        assert apply_twist(apply_twist(r, f), invert(f)) == r


def test_twisting_identity_by_jordanian_solves_ybe(jordanian_entry):
    twisted = apply_twist(identity(2, 2), jordanian_entry.twist.f)
    assert ybe_residual(twisted) == 0
    assert twisted != identity(2, 2)


def test_check_pair_identity_pair(six_vertex_entry):
    report = check_pair(six_vertex_entry.r, identity_pair(2))
    assert report.verdict
    assert all(v == 0 for v in report.residuals.values())
    assert report.tolerance is None


def test_check_pair_jordanian_on_identity(jordanian_entry):
    report = check_pair(identity(2, 2), jordanian_entry.twist)
    assert report.verdict
    assert report.residuals["cond2"] == 0
    assert report.residuals["cond3"] == 0
    assert report.residuals["ybe_r_twisted"] == 0


def test_check_pair_negative_control(six_vertex_entry):
    rng = random.Random(207)
    f = rand_invertible(rng, legs=2)
    pair = TwistPair(f, identity(2, 3))
    report = check_pair(six_vertex_entry.r, pair)
    assert not report.verdict
    assert report.residuals["cond2"] != 0 or report.residuals["cond3"] != 0


def test_check_pair_reports_bad_base_without_rejecting():
    rng = random.Random(209)
    bad_r = rand_invertible(rng, legs=2)
    report = check_pair(bad_r, identity_pair(2))
    # the base matrix fails YBE but the identity pair still gets verdict true
    assert report.residuals["ybe_r"] != 0
    assert report.verdict


def test_aux_identity_for_identity_pair(catalog_entries):
    for entry in catalog_entries:
        assert aux_identity_residual(entry.r, identity_pair(2)) == 0


def test_aux_identity_across_catalog_pairs(catalog_entries):
    for entry in catalog_entries:
        if entry.twist is None:
            continue
        report = check_pair(entry.r, entry.twist)
        assert report.verdict
        assert aux_identity_residual(entry.r, entry.twist) == 0


def test_compose_with_identity_and_inverse(jordanian_entry):
    pair = jordanian_entry.twist
    ident = identity_pair(2)
    composed = compose_pairs(pair, ident)
    assert composed.f == pair.f and composed.g == pair.g
    cancel = compose_pairs(pair, invert_pair(pair))
    assert cancel.f == ident.f and cancel.g == ident.g


def test_two_diagonal_twists_compose(six_vertex_entry, diag_twist_entry):
    r = six_vertex_entry.r
    p1, p2 = six_vertex_entry.twist, diag_twist_entry.twist
    composed = compose_pairs(p1, p2)
    two_step = apply_twist(apply_twist(r, p1.f), p2.f)
    assert apply_twist(r, composed.f) == two_step
    assert check_pair(r, composed).verdict


def test_composition_coherence_is_a_matrix_identity(six_vertex_entry):
    rng = random.Random(211)
    r = six_vertex_entry.r
    f1 = rand_invertible(rng, legs=2)
    f2 = rand_invertible(rng, legs=2)
    assert apply_twist(r, f1 @ f2) == apply_twist(apply_twist(r, f1), f2)


def test_invert_pair_laws(jordanian_entry):
    pair = jordanian_entry.twist
    assert invert_pair(identity_pair(2)).f == identity(2, 2)
    double = invert_pair(invert_pair(pair))
    assert double.f == pair.f and double.g == pair.g


def test_inverse_pair_untwists(catalog_entries):
    for entry in catalog_entries:
        if entry.twist is None:
            continue
        r_twisted = apply_twist(entry.r, entry.twist.f)
        report = check_pair(r_twisted, invert_pair(entry.twist))
        assert report.verdict
        assert apply_twist(r_twisted, invert_pair(entry.twist).f) == entry.r


def test_gauge_identity_elements_fix_the_pair(jordanian_entry):
    pair = jordanian_entry.twist
    out = gauge_transform(pair, identity(2, 1), identity(2, 2), identity(2, 3))
    assert out.f == pair.f and out.g == pair.g


def test_gauge_similarity_rule(jordanian_entry):
    r = jordanian_entry.r
    pair = jordanian_entry.twist
    u1 = diag_operator([1, 2], legs=1)
    out = gauge_transform(pair, u1, identity(2, 2), identity(2, 3), r=r)
    uu = kron(u1, u1)
    expected = invert(uu) @ apply_twist(r, pair.f) @ uu
    assert apply_twist(r, out.f) == expected


def test_gauge_central_scalar_leaves_twist_unchanged(jordanian_entry):
    r = jordanian_entry.r
    pair = jordanian_entry.twist
    c = Fraction(5, 3)
    out = gauge_transform(
        pair, identity(2, 1), c * identity(2, 2), c * identity(2, 3), r=r
    )
    assert apply_twist(r, out.f) == apply_twist(r, pair.f)


def test_gauge_orbit_samples_keep_the_full_pipeline(catalog_entries):
    # moving a pair by R-symmetric gauge elements preserves the verdict,
    # the auxiliary identity, and the similarity rule for the twisted matrix
    from ybt import braid_matrix

    u1 = diag_operator([1, 2], legs=1)
    uu = kron(u1, u1)
    for entry in catalog_entries:
        if entry.twist is None:
            continue
        u2 = 2 * identity(2, 2) + braid_matrix(entry.r)
        u3 = Fraction(5, 2) * identity(2, 3)
        gauged = gauge_transform(entry.twist, u1, u2, u3, r=entry.r)
        report = check_pair(entry.r, gauged)
        assert report.verdict, entry.name
        assert aux_identity_residual(entry.r, gauged) == 0
        assert ybe_residual(apply_twist(entry.r, gauged.f)) == 0
        similar = invert(uu) @ apply_twist(entry.r, entry.twist.f) @ uu
        assert apply_twist(entry.r, gauged.f) == similar


def test_gauge_warns_on_non_symmetric_elements(six_vertex_entry):
    rng = random.Random(213)
    pair = six_vertex_entry.twist
    u2 = rand_invertible(rng, legs=2)
    with pytest.warns(ConditionWarning):
        gauge_transform(
            pair, identity(2, 1), u2, identity(2, 3), r=six_vertex_entry.r
        )


def singular_operator(rng, legs, drop):
    """A random integer operator whose last `drop` rows repeat combinations of the others."""
    side = 2**legs
    rows = [[rng.randint(-3, 3) for _ in range(side)] for _ in range(side - drop)]
    for _ in range(drop):
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return Operator.from_rows(2, legs, rows)


@pytest.mark.parametrize("slot, drop", [(0, 1), (1, 1), (1, 2), (2, 1), (2, 3)])
def test_gauge_rejects_a_singular_element_with_its_rank(jordanian_entry, slot, drop):
    rng = random.Random(10 * slot + drop)
    gauge = [identity(2, 1), identity(2, 2), identity(2, 3)]
    gauge[slot] = singular_operator(rng, slot + 1, drop)
    with pytest.raises(SingularOperatorError) as expected:
        invert(gauge[slot])
    with pytest.raises(SingularOperatorError) as got:
        gauge_transform(jordanian_entry.twist, *gauge)
    assert got.value.rank == expected.value.rank < gauge[slot].side
    assert got.value.side == gauge[slot].side


def test_check_report_gates_and_tolerance():
    report = CheckReport.build({"a": Fraction(0), "b": Fraction(1)}, "rational",
                               gates=("a",))
    assert report.verdict and report.tolerance is None
    report = CheckReport.build({"a": 1e-12}, "complex64")
    assert report.verdict and report.tolerance == 1e-9
    report = CheckReport.build({"a": 1e-12}, "complex64", tol=1e-13)
    assert not report.verdict
