"""Exact null spaces, braid intertwiner residuals, invertibility certificates.

Dimension assertions are frozen from two independent oracles written
before the solver runs:

* the commutant of the adjacent-swap action on (C^2)^n has dimension
  sum over two-row partitions (a, b) of n of (a - b + 1)^2, by double
  centralizer theory (n = 2, 3, 4 give 10, 20, 35);
* similar matrices share their trace, so braid forms with different
  traces admit no invertible intertwiner at all.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ybt import (
    Operator,
    RATIONAL,
    SubspaceBasis,
    apply_twist,
    braid_intertwine_residual,
    catalog,
    braid_matrix,
    identity,
    intertwiner_space,
    invertible_certificate,
    membership_coefficients,
    omega_split_B,
    r_symmetric_residual,
    r_symmetric_space,
    swap,
)
from ybt.errors import BackendMismatchError, ShapeMismatchError, SizeCapError
from ybt.formats import subspace_from_obj, subspace_to_obj

from conftest import rand_invertible


def schur_weyl_commutant_dim(n: int, site_dim: int = 2) -> int:
    """Closed-form oracle for the swap-commutant dimension at site_dim 2."""
    assert site_dim == 2
    total = 0
    for b in range(n // 2 + 1):
        a = n - b
        total += (a - b + 1) ** 2
    return total


def trace(op: Operator):
    return sum(op.rows[i][i] for i in range(op.side))


def test_oracle_values_are_the_frozen_ones():
    assert [schur_weyl_commutant_dim(n) for n in (2, 3, 4)] == [10, 20, 35]


def test_full_space_when_braid_is_central():
    # braid(P) = I commutes with everything
    for n in (2, 3):
        basis = r_symmetric_space(swap(2), n)
        assert basis.dimension == 2 ** (2 * n)
        assert basis.is_independent()


def test_single_leg_returns_the_full_matrix_space(six_vertex_entry):
    basis = r_symmetric_space(six_vertex_entry.r, 1)
    assert basis.dimension == 4
    assert basis.legs == 1


def test_identity_r_commutant_dimensions_match_oracle():
    r = identity(2, 2)
    for n in (2, 3):
        basis = r_symmetric_space(r, n)
        assert basis.dimension == schur_weyl_commutant_dim(n)


def test_commutant_dimension_at_site_dim_three():
    # oracle: the commutant of {1, P} on V x V splits over the symmetric
    # and antisymmetric squares, dimension (N(N+1)/2)^2 + (N(N-1)/2)^2
    basis = r_symmetric_space(identity(3, 2), 2)
    assert basis.dimension == 6**2 + 3**2


def test_deformed_commutant_keeps_classical_dimensions(six_vertex_entry):
    # double-centralizer oracle for the q-deformed case: at generic q the
    # braid commutant on (C^2)^n has the same dimension as the swap
    # commutant, since the irreducible multiplicities are undeformed
    for n in (2, 3):
        space = r_symmetric_space(six_vertex_entry.r, n)
        assert space.dimension == schur_weyl_commutant_dim(n)


def test_basis_elements_satisfy_their_system(six_vertex_entry):
    basis = r_symmetric_space(six_vertex_entry.r, 2)
    for op in basis.basis:
        assert r_symmetric_residual(six_vertex_entry.r, op) == 0
    assert basis.is_independent()


def test_solver_is_deterministic(six_vertex_entry):
    a = r_symmetric_space(six_vertex_entry.r, 2)
    b = r_symmetric_space(six_vertex_entry.r, 2)
    assert a.basis == b.basis


def test_intertwiner_space_with_equal_matrices_is_the_commutant(six_vertex_entry):
    r = six_vertex_entry.r
    com = r_symmetric_space(r, 2)
    intw = intertwiner_space(r, r, 2)
    assert intw.dimension == com.dimension
    assert intw.basis == com.basis


def test_intertwiner_space_contains_the_three_leg_part(jordanian_entry):
    r = jordanian_entry.r
    f = jordanian_entry.twist.f
    twisted = apply_twist(r, f)
    space = intertwiner_space(r, twisted, 3)
    g = omega_split_B(f, 3)
    coefficients = membership_coefficients(space, g)
    assert coefficients is not None
    combo = None
    for c, op in zip(coefficients, space.basis):
        term = c * op
        combo = term if combo is None else combo + term
    assert combo == g


def test_three_leg_intertwiner_between_twist_related_matrices(six_vertex_entry):
    # the instrument for comparing braid representations beyond two legs
    r = six_vertex_entry.r
    twisted = apply_twist(r, six_vertex_entry.twist.f)
    space = intertwiner_space(r, twisted, 3)
    assert membership_coefficients(space, six_vertex_entry.twist.g) is not None
    assert invertible_certificate(space, budget=10, seed=0) is not None


def test_solver_basis_builds_its_operators_only_when_read(six_vertex_entry):
    r = six_vertex_entry.r
    twisted = apply_twist(r, six_vertex_entry.twist.f)
    space = intertwiner_space(r, twisted, 3)
    assert space.dimension > 0 and space.is_independent()  # reads the echelon form
    assert membership_coefficients(space, six_vertex_entry.twist.g) is not None
    assert invertible_certificate(space, budget=10, seed=0) is not None
    assert subspace_to_obj(space)["dimension"] == space.dimension
    assert "basis" not in vars(space)
    # the operators, built here from dense rows of the vectors, not by the solver
    side = space.site_dim**space.legs
    eager = SubspaceBasis(space.site_dim, space.legs, space.backend, tuple(
        Operator.from_rows(space.site_dim, space.legs,
                           [[v.get(i * side + j, 0) for j in range(side)] for i in range(side)])
        for v in space.vectors
    ))
    first_reads = [
        lambda b: b.basis == eager.basis,
        lambda b: b == eager,
        lambda b: hash(b) == hash(eager),
        lambda b: repr(b) == repr(eager),
    ]
    for first_read in first_reads:
        fresh = intertwiner_space(r, twisted, 3)
        assert first_read(fresh)
        assert fresh.basis is fresh.basis  # built once, then cached
    ops = space.basis
    assert space == eager and space.basis is ops


@pytest.mark.parametrize("name", [*catalog.names(), "identity(3,2)"])
def test_solver_echelon_matches_the_reduction_of_its_operators(name):
    # a solver basis takes its vectors as its echelon rows, unchecked; its
    # twin built from operators, and the same basis written to a file and
    # read back, are reduced by the tagged pass on [V | I] to the same rows
    r = identity(3, 2) if name == "identity(3,2)" else catalog.get(name).r
    space = r_symmetric_space(r, 3)
    side = space.site_dim**space.legs

    def operator(flat):
        return Operator.from_rows(space.site_dim, space.legs,
                                  [[flat.get(i * side + j, 0) for j in range(side)]
                                   for i in range(side)])

    eager = SubspaceBasis(space.site_dim, space.legs, space.backend,
                          tuple(map(operator, space.vectors)))
    reloaded = subspace_from_obj(subspace_to_obj(space))
    assert reloaded == eager
    for twin in (eager, reloaded):
        assert twin.echelon == space.echelon
        assert twin.is_independent() == space.is_independent()
    weighted: dict[int, int] = {}
    for i, vec in enumerate(space.vectors):
        for k, v in vec.items():
            weighted[k] = weighted.get(k, 0) + (i + 1) * v
    member = operator(weighted)
    expected = tuple(Fraction(i + 1) for i in range(space.dimension))
    units = (operator({k: 1}) for k in range(side * side))
    outsider = next((e for e in units if r_symmetric_residual(r, e)), None)
    if outsider is None:  # the whole operator space
        assert space.dimension == side * side
    for basis in (space, eager, reloaded):
        assert membership_coefficients(basis, member) == expected
        if outsider is not None:
            assert membership_coefficients(basis, outsider) is None
    assert "basis" not in vars(space)


def test_solver_echelon_rows_are_its_vectors_after_the_operators_are_built(six_vertex_entry):
    space = r_symmetric_space(six_vertex_entry.r, 3)
    assert space.basis  # builds the operators first
    den, rows = space.echelon
    assert den == 1 and len(rows) == space.dimension
    assert all(rows[max(v)][0] is v for v in space.vectors)


def test_zero_is_a_member_of_an_empty_basis(six_vertex_entry):
    # zero lies in every span, the empty one included
    empty = intertwiner_space(identity(2, 2), six_vertex_entry.r, 2)
    for basis in (SubspaceBasis(2, 2, RATIONAL, ()), empty):
        assert basis.dimension == 0
        assert membership_coefficients(basis, 0 * identity(2, 2)) == ()
        assert membership_coefficients(basis, identity(2, 2)) is None


def test_membership_rejects_outsiders(six_vertex_entry):
    rng = random.Random(501)
    space = r_symmetric_space(six_vertex_entry.r, 2)
    outsider = rand_invertible(rng, legs=2)
    if r_symmetric_residual(six_vertex_entry.r, outsider) != 0:
        assert membership_coefficients(space, outsider) is None


def test_braid_intertwine_residual_for_any_invertible_f(six_vertex_entry):
    # two-leg case of the conjugation identity: zero for every invertible F
    rng = random.Random(503)
    r = six_vertex_entry.r
    for _ in range(20):
        f = rand_invertible(rng, legs=2)
        report = braid_intertwine_residual(r, apply_twist(r, f), f)
        assert report.verdict


def test_braid_intertwine_residual_for_catalog_pairs(catalog_entries):
    for entry in catalog_entries:
        if entry.twist is None:
            continue
        twisted = apply_twist(entry.r, entry.twist.f)
        report = braid_intertwine_residual(entry.r, twisted, entry.twist.g)
        assert report.verdict
        assert set(report.residuals) == {"position_1", "position_2"}


def test_braid_intertwine_negative_control(six_vertex_entry):
    r = six_vertex_entry.r
    report = braid_intertwine_residual(r, identity(2, 2), identity(2, 3))
    assert not report.verdict


def test_no_certificate_between_inequivalent_braid_forms():
    # braid(I) = P has trace 2, braid(P) = I has trace 4; similarity
    # preserves trace, so no invertible intertwiner can exist
    r, s = identity(2, 2), swap(2)
    assert trace(braid_matrix(r)) != trace(braid_matrix(s))
    space = intertwiner_space(r, s, 2)
    assert space.dimension == 12
    assert invertible_certificate(space, budget=50, seed=7) is None


def test_certificate_on_singleton_identity_basis():
    basis = SubspaceBasis(2, 2, RATIONAL, (identity(2, 2),))
    found = invertible_certificate(basis, budget=1, seed=0)
    assert found is not None
    coefficients, witness = found
    assert coefficients == (Fraction(1),)
    assert witness == identity(2, 2)


def test_certificate_found_quickly_for_twist_spaces(catalog_entries):
    for entry in catalog_entries:
        if entry.twist is None:
            continue
        twisted = apply_twist(entry.r, entry.twist.f)
        space = intertwiner_space(entry.r, twisted, 2)
        found = invertible_certificate(space, budget=5, seed=0)
        assert found is not None, entry.name
        from ybt import determinant

        assert determinant(found[1]) != 0


def test_certificate_never_exists_in_a_nilpotent_span():
    # strictly upper triangular matrices: every combination is nilpotent
    rows = lambda i, j: tuple(
        tuple(Fraction(int(a == i and b == j)) for b in range(4)) for a in range(4)
    )
    units = tuple(
        Operator(2, 2, RATIONAL, rows(i, j)) for i in range(4) for j in range(4) if i < j
    )
    basis = SubspaceBasis(2, 2, RATIONAL, units)
    assert invertible_certificate(basis, budget=60, seed=1) is None


def test_certificate_edge_cases():
    empty = SubspaceBasis(2, 2, RATIONAL, ())
    assert invertible_certificate(empty, budget=5, seed=0) is None
    basis = SubspaceBasis(2, 2, RATIONAL, (identity(2, 2),))
    with pytest.raises(ValueError):
        invertible_certificate(basis, budget=0, seed=0)


@pytest.mark.parametrize("budget", [0, -1])
def test_every_basis_rejects_a_budget_below_one(budget):
    for elements in ((), (identity(2, 2),)):
        with pytest.raises(ValueError):
            invertible_certificate(SubspaceBasis(2, 2, RATIONAL, elements), budget=budget)


def test_size_cap_is_enforced(six_vertex_entry):
    with pytest.raises(SizeCapError):
        r_symmetric_space(six_vertex_entry.r, 7)
    with pytest.raises(SizeCapError):
        intertwiner_space(six_vertex_entry.r, six_vertex_entry.r, 4, size_cap=8)


def test_complex_backend_is_rejected():
    from ybt import COMPLEX64

    r = identity(2, 2, COMPLEX64)
    with pytest.raises(BackendMismatchError):
        r_symmetric_space(r, 2)
    with pytest.raises(BackendMismatchError):
        intertwiner_space(r, r, 2)


def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        r_symmetric_space(identity(2, 3), 2)
    with pytest.raises(ShapeMismatchError):
        r_symmetric_space(identity(2, 2), 0)
    with pytest.raises(ShapeMismatchError):
        intertwiner_space(identity(2, 2), identity(2, 2), 1)


def test_r_symmetric_residual_trivial_on_single_leg(six_vertex_entry):
    assert r_symmetric_residual(six_vertex_entry.r, identity(2, 1)) == 0
