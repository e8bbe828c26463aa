"""Serialization round-trips and malformed-input diagnostics."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybt import (
    COMPLEX64,
    RATIONAL,
    Operator,
    SubspaceBasis,
    apply_twist,
    catalog,
    identity,
    identity_pair,
    intertwiner_space,
)
from ybt.errors import FormatError
from ybt.formats import (
    canonical_dumps,
    certificate_to_obj,
    components_from_obj,
    components_to_obj,
    load_json,
    load_operator,
    operator_from_obj,
    operator_to_obj,
    parse_rational,
    pretty_dumps,
    save_operator,
    subspace_from_obj,
    subspace_to_obj,
    twist_pair_from_obj,
    twist_pair_to_obj,
)
from ybt.subspace_solver import r_symmetric_space
from ybt.tensor_core import swap

from conftest import rand_operator


def test_rational_operator_roundtrip_is_exact():
    rng = random.Random(5)
    op = rand_operator(rng, legs=2)
    obj = operator_to_obj(op)
    assert obj["scalar"] == "rational"
    assert all(isinstance(v, str) for row in obj["rows"] for v in row)
    assert operator_from_obj(obj) == op


def test_rational_entries_use_p_over_q_strings():
    op = Operator.from_rows(2, 1, [[Fraction(-3, 4), 2], [0, 1]])
    rows = operator_to_obj(op)["rows"]
    assert rows == [["-3/4", "2"], ["0", "1"]]


def test_complex_operator_roundtrip():
    op = Operator.from_rows(
        2, 1, [[1 + 2j, 0.5], [0, -1j]], backend=COMPLEX64
    )
    obj = operator_to_obj(op)
    assert obj["rows"][0][0] == [1.0, 2.0]
    assert operator_from_obj(obj) == op


def test_file_roundtrip(tmp_path):
    rng = random.Random(6)
    op = rand_operator(rng, legs=2)
    path = tmp_path / "op.json"
    save_operator(op, path)
    assert load_operator(path) == op


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(4) == Fraction(4)
    with pytest.raises(FormatError):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("three halves")
    with pytest.raises(FormatError):
        parse_rational(True)


def test_rational_rows_must_be_strings():
    obj = {"scalar": "rational", "site_dim": 2, "legs": 0, "rows": [[1]]}
    with pytest.raises(FormatError) as err:
        operator_from_obj(obj)
    assert "rows[0][0]" in str(err.value)


def test_bad_shape_and_keys_are_located():
    with pytest.raises(FormatError) as err:
        operator_from_obj({"scalar": "rational", "site_dim": 2, "legs": 1})
    assert "rows" in str(err.value)
    obj = {"scalar": "rational", "site_dim": 2, "legs": 1, "rows": [["1", "0"]]}
    with pytest.raises(FormatError) as err:
        operator_from_obj(obj)
    assert "rows" in str(err.value)
    obj = {"scalar": "galois", "site_dim": 2, "legs": 1, "rows": []}
    with pytest.raises(FormatError) as err:
        operator_from_obj(obj)
    assert "scalar" in str(err.value)


def test_complex_entries_must_be_pairs():
    obj = {"scalar": "complex64", "site_dim": 2, "legs": 0, "rows": [["1"]]}
    with pytest.raises(FormatError):
        operator_from_obj(obj)


def test_load_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scalar": "rational",\n  "oops"\n}')
    with pytest.raises(FormatError) as err:
        load_json(bad)
    message = str(err.value)
    assert "bad.json" in message
    assert ":2:" in message or ":3:" in message  # line of the offending token


def test_twist_pair_roundtrip():
    pair = identity_pair(2)
    obj = twist_pair_to_obj(pair)
    back = twist_pair_from_obj(obj)
    assert back.f == pair.f and back.g == pair.g
    with pytest.raises(FormatError):
        twist_pair_from_obj({"f": operator_to_obj(pair.f)})


def _twisted_intertwiners(name: str, n: int):
    entry = catalog.get(name)
    return intertwiner_space(entry.r, apply_twist(entry.r, entry.twist.f), n)


# solver bases, stored as their kernel vectors, and bases built from operators
SUBSPACES = {
    "identity(3,2) n=3": lambda: r_symmetric_space(identity(3, 2), 3),
    "diag_twist intertwiners n=4": lambda: _twisted_intertwiners("diag_twist", 4),
    "fractional": lambda: SubspaceBasis(2, 1, RATIONAL, (
        Operator.from_rows(2, 1, [[Fraction(-3, 4), 2], [0, Fraction(1, 6)]]),
        Operator.from_rows(2, 1, [[0, 0], [5, Fraction(7, 2)]]),
    )),
    "complex": lambda: SubspaceBasis(2, 1, COMPLEX64, (
        Operator.from_rows(2, 1, [[1 + 2j, 0.5], [0, -1j]], backend=COMPLEX64),
    )),
}


def test_subspace_roundtrip():
    basis = r_symmetric_space(swap(2), 2)
    obj = subspace_to_obj(basis)
    assert obj["dimension"] == basis.dimension
    back = subspace_from_obj(obj)
    assert back.basis == basis.basis
    obj["dimension"] += 1
    with pytest.raises(FormatError):
        subspace_from_obj(obj)


@pytest.mark.parametrize("name", sorted(SUBSPACES))
def test_subspace_file_form_is_written_from_the_vectors(name):
    basis = SUBSPACES[name]()
    solved = "basis" not in vars(basis)
    assert solved == (name not in ("complex", "fractional"))
    obj = subspace_to_obj(basis)
    assert obj["dimension"] == basis.dimension
    # a solver basis is written from its vectors, with no operator built
    assert ("basis" not in vars(basis)) == solved
    # and in the bytes that the operators of every element give
    by_operator = {"dimension": basis.dimension,
                   "basis": [operator_to_obj(op) for op in basis.basis]}
    assert pretty_dumps(obj) == pretty_dumps(by_operator)
    assert subspace_from_obj(obj) == basis


def test_empty_subspace_carries_its_shape_and_reads_back():
    six, perm = catalog.get("six_vertex").r, catalog.get("perm").r
    obj = subspace_to_obj(intertwiner_space(six, perm, 2))
    assert obj == {"basis": [], "dimension": 0, "legs": 2, "scalar": "rational", "site_dim": 2}
    back = subspace_from_obj(json.loads(pretty_dumps(obj)))
    assert (back.dimension, back.site_dim, back.legs, back.backend) == (0, 2, 2, RATIONAL)
    # no element and no shape keys: nothing fixes the shape
    with pytest.raises(FormatError):
        subspace_from_obj({"basis": [], "dimension": 0})
    with pytest.raises(FormatError) as err:
        subspace_from_obj(dict(obj, site_dim=0))
    assert err.value.where == "subspace.site_dim"


@pytest.mark.parametrize("bad", ["1/0", "three halves", 1, ["1", "0"], None])
def test_bad_entry_deep_in_a_subspace_is_located_exactly(bad):
    obj = subspace_to_obj(r_symmetric_space(identity(2, 2), 3))
    assert obj["dimension"] > 3
    obj["basis"][3]["rows"][5][7] = bad
    with pytest.raises(FormatError) as err:
        subspace_from_obj(obj)
    assert err.value.where == "subspace.basis[3].rows[5][7]"
    assert str(err.value).endswith("(at subspace.basis[3].rows[5][7])")


def one_element_space():
    obj = subspace_to_obj(r_symmetric_space(identity(2, 2), 1))
    return dict(obj, basis=obj["basis"][:1], dimension=1)


# each value equals the integer the reader needs, so only a type check refuses it
@pytest.mark.parametrize("read, obj, where", [
    (subspace_from_obj, lambda: dict(one_element_space(), dimension=True), "subspace.dimension"),
    (subspace_from_obj, lambda: dict(one_element_space(), dimension=1.0), "subspace.dimension"),
    (subspace_from_obj,
     lambda: dict(subspace_to_obj(r_symmetric_space(identity(2, 2), 1)), dimension=4.0),
     "subspace.dimension"),
    (subspace_from_obj,
     lambda: {"basis": [], "dimension": 0, "legs": 2, "scalar": "rational", "site_dim": True},
     "subspace.site_dim"),
    (subspace_from_obj,
     lambda: {"basis": [], "dimension": False, "legs": 2, "scalar": "rational", "site_dim": 2},
     "subspace.dimension"),
    (operator_from_obj, lambda: dict(operator_to_obj(identity(1, 2)), site_dim=True),
     "operator.site_dim"),
    (operator_from_obj, lambda: dict(operator_to_obj(identity(2, 1)), legs=True),
     "operator.legs"),
    (operator_from_obj, lambda: dict(operator_to_obj(identity(2, 0)), legs=False),
     "operator.legs"),
    (operator_from_obj, lambda: dict(operator_to_obj(identity(2, 1)), legs=1.0),
     "operator.legs"),
    (components_from_obj,
     lambda: {"components": [{"m": True, "n": 1, "operator": operator_to_obj(identity(2, 2))}]},
     "components.components[0]"),
], ids=["dimension true", "dimension 1.0", "dimension 4.0", "site_dim true", "dimension false",
        "operator site_dim true", "legs true", "legs false", "legs 1.0", "m true"])
def test_readers_refuse_booleans_and_floats_for_integer_keys(read, obj, where):
    with pytest.raises(FormatError) as err:
        read(obj())
    assert err.value.where == where


def test_components_roundtrip():
    rng = random.Random(8)
    comps = {(1, 1): rand_operator(rng, legs=2), (1, 2): rand_operator(rng, legs=3)}
    obj = components_to_obj(comps)
    assert [(e["m"], e["n"]) for e in obj["components"]] == [(1, 1), (1, 2)]
    assert components_from_obj(obj) == comps
    with pytest.raises(FormatError):
        components_from_obj({"components": [{"m": -1, "n": 1, "operator": {}}]})


def test_certificate_serialization():
    obj = certificate_to_obj((Fraction(1), Fraction(-3, 2)))
    assert obj == {"coefficients": ["1", "-3/2"]}


def test_canonical_dumps_is_stable():
    payload = {"b": 1, "a": {"y": [1, 2], "x": "0"}}
    once = canonical_dumps(payload)
    again = canonical_dumps(json.loads(once))
    assert once == again
    assert once.endswith("\n")


# ---------------------------------------------------------------------------
# the rational reader builds the stored form the constructor would
# ---------------------------------------------------------------------------


def constructed(obj) -> Operator:
    """Reference: the constructor on the parsed dense rows."""
    return Operator(obj["site_dim"], obj["legs"], obj["scalar"],
                    [[Fraction(v) for v in row] for row in obj["rows"]])


def same_operator(got: Operator, want: Operator):
    assert got == want and (got.den, got.entries) == (want.den, want.entries)
    assert got._unit == want._unit


def operator_objects(obj):
    """Every operator object inside a parsed catalog file."""
    yield obj["r"]
    if obj["twist"] is not None:
        yield obj["twist"]["f"]
        yield obj["twist"]["g"]


@pytest.mark.parametrize("name", catalog.names())
def test_reader_matches_the_constructor_on_every_catalog_file(name):
    for obj in operator_objects(load_json(catalog.data_path(name))):
        same_operator(operator_from_obj(obj), constructed(obj))


FILE_ENTRIES = st.sampled_from(
    ["0", "0/5", "-0", "1", "2/2", "1/2", "2/4", "-3/6", "7", "-1/3", "5/10", "-12"]
)


@st.composite
def rational_objects(draw):
    site_dim, legs = draw(st.sampled_from([(1, 0), (1, 2), (2, 0), (2, 1), (2, 2),
                                           (3, 1), (2, 3), (3, 2)]))
    side = site_dim**legs
    if draw(st.booleans()):  # an identity, written in any of its spellings
        one, zero = draw(st.sampled_from(["1", "2/2", "3/3"])), draw(st.sampled_from(["0", "0/3"]))
        rows = [[one if i == j else zero for j in range(side)] for i in range(side)]
        if draw(st.booleans()):  # then perhaps spoiled in one place
            rows[draw(st.integers(0, side - 1))][draw(st.integers(0, side - 1))] = draw(FILE_ENTRIES)
    else:
        rows = [[draw(FILE_ENTRIES) for _ in range(side)] for _ in range(side)]
    return {"scalar": "rational", "site_dim": site_dim, "legs": legs, "rows": rows}


@settings(max_examples=80, deadline=None)
@given(rational_objects())
def test_reader_matches_the_constructor_on_random_rows(obj):
    same_operator(operator_from_obj(obj), constructed(obj))


def test_reader_marks_identities_and_reads_a_subspace_file_exactly():
    obj = {"scalar": "rational", "site_dim": 2, "legs": 1, "rows": [["2/2", "0/7"], ["-0", "1"]]}
    assert operator_from_obj(obj)._unit
    basis = r_symmetric_space(identity(2, 2), 3)
    back = subspace_from_obj(subspace_to_obj(basis))
    assert back.basis == basis.basis
    for got, op in zip(back.basis, basis.basis):
        same_operator(got, constructed(operator_to_obj(op)))
