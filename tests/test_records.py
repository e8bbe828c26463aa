"""Value records: construction, equality, hashing, immutability, pickling, repr."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from ybt import (
    CheckReport,
    Operator,
    SubspaceBasis,
    TwistPair,
    catalog,
    identity,
    identity_pair,
    r_symmetric_space,
)
from ybt.catalog import CatalogEntry
from ybt.errors import ShapeMismatchError


def _operator():
    return Operator.from_rows(2, 1, [[1, Fraction(1, 2)], [0, 3]])


def _pair():
    return identity_pair(2)


def _report():
    return CheckReport.build(
        {"ybe": Fraction(0), "x": Fraction(1, 2)}, "rational", gates=("ybe",), notes=("n1",)
    )


def _entry():
    return catalog.get("six_vertex", {"q": "5/2"})


def _basis():
    other = Operator.from_rows(2, 1, [[0, 0], [1, 0]])
    return SubspaceBasis(2, 1, "rational", (_operator(), other))


def _solved():
    """A solver basis: stored as its kernel vectors, no operator built yet."""
    return r_symmetric_space(identity(2, 2), 2)


def _solved_and_read():
    basis = _solved()
    basis.basis  # builds and caches the operators
    return basis


def _rebuild_basis(x):
    return SubspaceBasis(x.site_dim, x.legs, x.backend, x.basis)


BASIS_FIELDS = ("site_dim", "legs", "backend", "basis")

# each record, a rebuild from its own fields, its fields, and whether it is hashable
CASES = {
    "Operator": (
        _operator,
        lambda x: Operator(x.site_dim, x.legs, x.backend, x.rows),
        ("site_dim", "legs", "backend", "den", "entries"),
        True,
    ),
    "TwistPair": (_pair, lambda x: TwistPair(x.f, x.g), ("f", "g"), True),
    "CheckReport": (
        _report,
        lambda x: CheckReport(dict(x.residuals), x.verdict, x.tolerance, x.gates, x.notes),
        ("residuals", "verdict", "tolerance", "gates", "notes"),
        False,
    ),
    "CatalogEntry": (
        _entry,
        lambda x: CatalogEntry(x.name, x.r, x.twist, x.regime, dict(x.params)),
        ("name", "r", "twist", "regime", "params"),
        False,
    ),
    "SubspaceBasis": (
        _basis,
        lambda x: SubspaceBasis(x.site_dim, x.legs, x.backend, x.basis),
        ("site_dim", "legs", "backend", "basis"),
        True,
    ),
    "SubspaceBasis solved": (_solved, _rebuild_basis, BASIS_FIELDS, True),
    "SubspaceBasis solved, basis read": (_solved_and_read, _rebuild_basis, BASIS_FIELDS, True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, rebuild, fields, hashable = CASES[request.param]
    return make(), rebuild, fields, hashable


def test_equal_to_a_field_by_field_rebuild(case):
    value, rebuild, _, hashable = case
    again = rebuild(value)
    assert again == value and not again != value
    assert again is not value
    if hashable:
        assert hash(again) == hash(value)
    else:  # a dict field makes the record unhashable, as it makes a tuple
        with pytest.raises(TypeError):
            hash(value)


def test_fields_can_be_neither_assigned_nor_deleted(case):
    value, _, fields, _ = case
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_pickle_round_trip_is_equal(case):
    value, _, _, _ = case
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value


def test_other_classes_and_changed_fields_compare_unequal():
    pair = _pair()
    assert pair != (pair.f, pair.g)
    assert pair != TwistPair(pair.f, pair.g + pair.g)
    report = _report()
    assert report != CheckReport(report.residuals, not report.verdict, None, report.gates,
                                 report.notes)


def test_positional_and_keyword_construction():
    pair = _pair()
    assert TwistPair(f=pair.f, g=pair.g) == TwistPair(pair.f, g=pair.g) == pair
    report = CheckReport({"a": 0}, True, None, ("a",))
    assert report.notes == ()  # the default
    assert CheckReport(residuals={"a": 0}, verdict=True, tolerance=None, gates=("a",)) == report
    entry = _entry()
    assert CatalogEntry(
        name=entry.name, r=entry.r, twist=entry.twist, regime=entry.regime, params=entry.params
    ) == entry
    basis = _basis()
    assert SubspaceBasis(
        site_dim=2, legs=1, backend="rational", basis=basis.basis
    ) == basis
    op = _operator()
    assert Operator(site_dim=2, legs=1, backend="rational", rows=op.rows) == op


def test_bad_construction_raises_type_error():
    pair = _pair()
    with pytest.raises(TypeError):
        TwistPair(pair.f)
    with pytest.raises(TypeError):
        TwistPair(pair.f, pair.g, pair.g)
    with pytest.raises(TypeError):
        TwistPair(pair.f, f=pair.f)
    with pytest.raises(TypeError):
        TwistPair(pair.f, h=pair.g)


def test_post_init_runs_and_cached_properties_cache():
    pair = _pair()
    with pytest.raises(ShapeMismatchError):
        TwistPair(f=pair.g, g=pair.f)
    assert pair.phi is pair.phi
    basis = _basis()
    assert basis.vectors is basis.vectors
    with pytest.raises(ShapeMismatchError):
        SubspaceBasis(2, 2, "rational", basis.basis)


# reprs as the frozen dataclasses printed them
OP2 = "Operator(site_dim=2, legs=2, backend='rational', side=4)"
OP3 = "Operator(site_dim=2, legs=3, backend='rational', side=8)"
PAIR = f"TwistPair(f={OP2}, g={OP3})"


def test_repr_is_unchanged():
    assert repr(_pair()) == PAIR
    assert repr(_report()) == (
        "CheckReport(residuals={'ybe': Fraction(0, 1), 'x': Fraction(1, 2)}, "
        "verdict=True, tolerance=None, gates=('ybe',), notes=('n1',))"
    )
    assert repr(CheckReport.build({"ybe": 1e-12}, "complex64")) == (
        "CheckReport(residuals={'ybe': 1e-12}, verdict=True, tolerance=1e-09, "
        "gates=('ybe',), notes=())"
    )
    assert repr(_entry()) == (
        f"CatalogEntry(name='six_vertex', r={OP2}, twist={PAIR}, regime='split_A', "
        "params={'q': Fraction(5, 2)})"
    )
    assert repr(catalog.get("perm")) == (
        f"CatalogEntry(name='perm', r={OP2}, twist=None, regime='none', params={{}})"
    )
    assert repr(SubspaceBasis(2, 1, "rational", ())) == (
        "SubspaceBasis(site_dim=2, legs=1, backend='rational', basis=())"
    )
    op1 = "Operator(site_dim=2, legs=1, backend='rational', side=2)"
    assert repr(_basis()) == (
        f"SubspaceBasis(site_dim=2, legs=1, backend='rational', basis=({op1}, {op1}))"
    )
