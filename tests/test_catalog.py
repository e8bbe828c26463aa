"""Built-in entries: content pins, parameterization, self-validation, data files."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ybt import Operator, apply_twist, identity, swap, ybe_residual
from ybt import catalog
from ybt.catalog import (
    CatalogEntry,
    DEFAULTS,
    data_path,
    entry_from_obj,
    entry_to_obj,
    load_entry,
    rebuild_data_files,
    validate_entry,
)
from ybt.errors import CatalogError
from ybt.formats import pretty_dumps


def test_names_are_sorted_and_complete():
    got = catalog.names()
    assert got == sorted(got)
    assert set(got) >= {"identity", "perm", "six_vertex", "jordanian", "diag_twist"}


def test_identity_entry():
    entry = catalog.get("identity")
    assert entry.r == identity(2, 2)
    assert entry.twist.f == identity(2, 2)
    assert entry.twist.g == identity(2, 3)


def test_perm_entry():
    entry = catalog.get("perm")
    assert entry.r == swap(2)
    assert entry.twist is None


def test_six_vertex_matrix_is_the_pinned_convention():
    q = Fraction(3, 2)
    entry = catalog.get("six_vertex")
    expected = Operator.from_rows(
        2,
        2,
        [
            [q, 0, 0, 0],
            [0, 1, q - 1 / q, 0],
            [0, 0, 1, 0],
            [0, 0, 0, q],
        ],
    )
    assert entry.r == expected
    assert entry.regime == "split_A"
    values = {v for row in entry.r.rows for v in row}
    assert values == {q, Fraction(1), q - 1 / q, Fraction(0)}


def test_jordanian_matrix_is_the_pinned_variant():
    entry = catalog.get("jordanian")
    xi = Fraction(1)
    expected = Operator.from_rows(
        2,
        2,
        [
            [1, 0, xi, 0],
            [0, 1, 0, -xi],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
    )
    assert entry.r == identity(2, 2)
    assert entry.twist.f == expected
    assert entry.regime == "split_B"


def test_non_default_parameters_build_and_validate():
    entry = catalog.get("six_vertex", {"q": "7/3"})
    assert entry.params["q"] == Fraction(7, 3)
    assert ybe_residual(entry.r) == 0
    entry = catalog.get("jordanian", {"xi": 5})
    assert ybe_residual(apply_twist(entry.r, entry.twist.f)) == 0
    entry = catalog.get("diag_twist", {"s": "1/7", "t": "4"})
    assert entry.twist is not None


def test_singular_parameters_are_rejected():
    with pytest.raises(CatalogError):
        catalog.get("six_vertex", {"q": 0})
    with pytest.raises(CatalogError):
        catalog.get("diag_twist", {"s": 0})


def test_unknown_names_and_parameters():
    with pytest.raises(CatalogError):
        catalog.get("eight_vertex")
    with pytest.raises(CatalogError):
        catalog.get("six_vertex", {"xi": 1})


def test_data_files_round_trip_exactly():
    for name in catalog.names():
        loaded = load_entry(data_path(name))
        again = entry_from_obj(entry_to_obj(loaded))
        assert again.r == loaded.r
        assert (again.twist is None) == (loaded.twist is None)
        if loaded.twist is not None:
            assert again.twist.f == loaded.twist.f
            assert again.twist.g == loaded.twist.g
        assert again.params == loaded.params
        assert pretty_dumps(entry_to_obj(again)) == pretty_dumps(entry_to_obj(loaded))


def test_data_files_match_the_constructors(tmp_path):
    rebuild_data_files(tmp_path)
    for name in catalog.names():
        fresh = (tmp_path / f"{name}.json").read_text()
        checked_in = data_path(name).read_text()
        assert fresh == checked_in, f"{name}.json is stale"


def test_validation_catches_a_corrupted_matrix():
    entry = catalog.get("six_vertex")
    rows = [list(row) for row in entry.r.rows]
    rows[0][1] = Fraction(1)
    broken = CatalogEntry(
        entry.name,
        Operator(2, 2, "rational", tuple(tuple(r) for r in rows)),
        entry.twist,
        entry.regime,
        entry.params,
    )
    with pytest.raises(CatalogError) as err:
        validate_entry(broken)
    assert "YBE" in str(err.value)


def test_every_entry_revalidates_from_its_file():
    for name in catalog.names():
        entry = load_entry(data_path(name))
        validate_entry(entry)
        assert entry.params == DEFAULTS[name]
