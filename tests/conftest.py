"""Shared test helpers: seeded random operators and catalog fixtures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ybt import Operator, determinant


def rand_fraction(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_operator(rng: random.Random, site_dim: int = 2, legs: int = 1) -> Operator:
    side = site_dim**legs
    rows = [[rand_fraction(rng) for _ in range(side)] for _ in range(side)]
    return Operator.from_rows(site_dim, legs, rows)


def rand_invertible(rng: random.Random, site_dim: int = 2, legs: int = 1) -> Operator:
    while True:
        op = rand_operator(rng, site_dim, legs)
        if determinant(op) != 0:
            return op


def diag_operator(values, site_dim: int = 2, legs: int = 2) -> Operator:
    vals = [Fraction(v) for v in values]
    side = site_dim**legs
    assert len(vals) == side
    rows = [[vals[i] if i == j else Fraction(0) for j in range(side)] for i in range(side)]
    return Operator.from_rows(site_dim, legs, rows)


def jimbo_sl3(q):
    """Jimbo's U_q(sl_3) R: q sum E_ii x E_ii + sum_{i != j} E_ii x E_jj
    + (q - 1/q) sum_{i < j} E_ij x E_ji."""
    rows = [[Fraction(0)] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            rows[3 * i + j][3 * i + j] = q if i == j else Fraction(1)
            if i < j:
                rows[3 * i + j][3 * j + i] = q - 1 / q
    return Operator.from_rows(3, 2, rows)


@pytest.fixture(scope="session")
def six_vertex_entry():
    from ybt import catalog

    return catalog.get("six_vertex")


@pytest.fixture(scope="session")
def jordanian_entry():
    from ybt import catalog

    return catalog.get("jordanian")


@pytest.fixture(scope="session")
def diag_twist_entry():
    from ybt import catalog

    return catalog.get("diag_twist")


@pytest.fixture(scope="session")
def catalog_entries():
    from ybt import catalog

    return [catalog.get(name) for name in catalog.names()]


@pytest.fixture(scope="session")
def twisted_entries(catalog_entries):
    """(entry, twisted R) for every catalog entry carrying a pair."""
    from ybt import apply_twist

    return [
        (entry, apply_twist(entry.r, entry.twist.f))
        for entry in catalog_entries
        if entry.twist is not None
    ]
