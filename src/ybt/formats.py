"""JSON (de)serialization for operators, pairs, bases and component maps.

The operator file format is bit-exact for rationals: entries are strings
"p/q" or "p".  Complex entries are two-element arrays [re, im] of decimal
numbers.  Rows are row-major over the lexicographic multi-index basis
(i1..in), each index in 1..N, leftmost index slowest.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .errors import FormatError
from .tensor_core import COMPLEX64, RATIONAL, Operator, Scalar, _make, _mark_unit


def parse_rational(raw, where: str = "value") -> Fraction:
    """Parse "p/q" or "p" (also plain ints) into an exact Fraction."""
    if isinstance(raw, bool):
        raise FormatError("expected a rational, got a boolean", where)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational literal {raw!r}: {exc}", where) from None
    raise FormatError(f"expected a rational string, got {type(raw).__name__}", where)


def scalar_from_obj(raw, backend: str, where: str) -> Scalar:
    if backend == RATIONAL:
        if not isinstance(raw, str):
            raise FormatError(
                f"rational entries must be strings, got {type(raw).__name__}", where
            )
        return parse_rational(raw, where)
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in raw)
    ):
        raise FormatError("complex entries must be [re, im] number pairs", where)
    return complex(raw[0], raw[1])


def _file_value(backend: str, values, den: int = 1):
    """Map each stored value (over `den`) to its file form.

    Equal rational values share one string.
    """
    if backend == RATIONAL:
        return {v: str(Fraction(v, den)) for v in values}.__getitem__
    return lambda v: [v.real, v.imag]


def _file_form(site_dim: int, legs: int, backend: str, nonzero) -> dict:
    """The file form of a matrix from its nonzero (row, column, file value) entries.

    Every zero entry of the result is one shared object: the string "0",
    or the complex zero [0.0, 0.0].
    """
    zero = "0" if backend == RATIONAL else [0.0, 0.0]
    side = site_dim**legs
    rows = [[zero] * side for _ in range(side)]
    for i, j, v in nonzero:
        rows[i][j] = v
    return {"scalar": backend, "site_dim": site_dim, "legs": legs, "rows": rows}


def operator_to_obj(op: Operator) -> dict:
    """The file form of `op`, built from its stored entries."""
    value = _file_value(op.backend, {v for row in op.entries for _, v in row}, op.den)
    return _file_form(op.site_dim, op.legs, op.backend, (
        (i, j, value(v)) for i, row in enumerate(op.entries) for j, v in row
    ))


def _is_int(raw) -> bool:
    """Whether a JSON value is an integer; a boolean is not, though Python counts it as one."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _space_from_obj(obj: dict, where: str, *more: str) -> tuple[int, int, str]:
    """The checked ``site_dim``, ``legs`` and ``scalar`` of `obj`, which also needs keys `more`."""
    missing = {"scalar", "site_dim", "legs", *more} - obj.keys()
    if missing:
        raise FormatError(f"missing keys {sorted(missing)}", where)
    backend = obj["scalar"]
    if backend not in (RATIONAL, COMPLEX64):
        raise FormatError(f"unknown scalar backend {backend!r}", f"{where}.scalar")
    site_dim, legs = obj["site_dim"], obj["legs"]
    if not _is_int(site_dim) or site_dim < 1:
        raise FormatError("site_dim must be a positive integer", f"{where}.site_dim")
    if not _is_int(legs) or legs < 0:
        raise FormatError("legs must be a non-negative integer", f"{where}.legs")
    return site_dim, legs, backend


def operator_from_obj(obj, where: str = "operator") -> Operator:
    """Read an operator object, locating the first malformed part.

    A rational operator is built straight into the stored form the
    constructor would give, identities marked as units; a complex one goes
    through the constructor.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"expected an object, got {type(obj).__name__}", where)
    site_dim, legs, backend = _space_from_obj(obj, where, "rows")
    side = site_dim**legs
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != side:
        raise FormatError(f"rows must be a list of {side} rows", f"{where}.rows")
    # each distinct rational entry string is parsed once per operator
    known: dict[str, Fraction] = {}
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != side:
            raise FormatError(f"row must hold {side} entries", f"{where}.rows[{i}]")
        if backend == COMPLEX64:
            parsed.append(_parse_row(row, backend, known, f"{where}.rows[{i}]"))
            continue
        try:
            new = set(row).difference(known)
        except TypeError:  # an entry that is not a string
            new = True
        if new:
            _parse_row(row, backend, known, f"{where}.rows[{i}]")
    if backend == COMPLEX64:
        return Operator(site_dim, legs, backend, parsed)
    # the stored form, read off the distinct values: over the lcm of their
    # reduced denominators no factor is common to all
    den = math.lcm(*(x.denominator for x in known.values()))
    value = {v: x.numerator * (den // x.denominator) for v, x in known.items()}
    zeros = {v for v, x in known.items() if not x}
    entries = tuple(
        tuple([(j, value[v]) for j, v in enumerate(row) if v not in zeros]) for row in rows
    )
    return _mark_unit(_make(site_dim, legs, RATIONAL, den, entries))


def _parse_row(row: list, backend: str, known: dict[str, Fraction], where: str) -> list:
    """Entries of one row, adding new rational strings to `known`.

    The position of an entry is formatted only when the entry is rejected.
    """
    out = []
    for j, v in enumerate(row):
        x = known.get(v) if type(v) is str else None
        if x is None:
            try:
                x = scalar_from_obj(v, backend, "")
            except FormatError as exc:
                raise FormatError(str(exc), f"{where}[{j}]") from None
            if type(v) is str:
                known[v] = x
        out.append(x)
    return out


def twist_pair_to_obj(pair) -> dict:
    return {"f": operator_to_obj(pair.f), "g": operator_to_obj(pair.g)}


def twist_pair_from_obj(obj, where: str = "pair"):
    from .twist_engine import TwistPair  # local import avoids a cycle

    if not isinstance(obj, dict) or {"f", "g"} - obj.keys():
        raise FormatError('expected an object with keys "f" and "g"', where)
    return TwistPair(
        operator_from_obj(obj["f"], f"{where}.f"),
        operator_from_obj(obj["g"], f"{where}.g"),
    )


def subspace_to_obj(basis) -> dict:
    """The file form of `basis`, written from the exact vectors of its elements.

    Each element comes out as `operator_to_obj` writes its operator, so a
    solver basis is written without building its operators.  An empty
    basis has no element to fix its shape, so it is written with the
    ``scalar``, ``site_dim`` and ``legs`` keys of an operator file.
    """
    side = basis.site_dim**basis.legs
    value = _file_value(basis.backend, {v for vec in basis.vectors for v in vec.values()})
    obj = {
        "dimension": basis.dimension,
        "basis": [
            _file_form(basis.site_dim, basis.legs, basis.backend, (
                (*divmod(k, side), value(v)) for k, v in vec.items()
            ))
            for vec in basis.vectors
        ],
    }
    if not basis.dimension:
        obj.update(scalar=basis.backend, site_dim=basis.site_dim, legs=basis.legs)
    return obj


def subspace_from_obj(obj, where: str = "subspace"):
    """Read a subspace object; an empty basis takes its shape from its own keys."""
    from .subspace_solver import SubspaceBasis

    if not isinstance(obj, dict) or {"dimension", "basis"} - obj.keys():
        raise FormatError('expected an object with "dimension" and "basis"', where)
    ops = tuple(
        operator_from_obj(o, f"{where}.basis[{i}]") for i, o in enumerate(obj["basis"])
    )
    if not _is_int(obj["dimension"]):
        raise FormatError("dimension must be an integer", f"{where}.dimension")
    if obj["dimension"] != len(ops):
        raise FormatError(
            f'dimension {obj["dimension"]} does not match basis size {len(ops)}', where
        )
    if not ops:
        return SubspaceBasis(*_space_from_obj(obj, where), ())
    first = ops[0]
    return SubspaceBasis(first.site_dim, first.legs, first.backend, ops)


def components_to_obj(components: dict) -> dict:
    entries = [
        {"m": m, "n": n, "operator": operator_to_obj(op)}
        for (m, n), op in sorted(components.items())
    ]
    return {"components": entries}


def components_from_obj(obj, where: str = "components") -> dict:
    if not isinstance(obj, dict) or "components" not in obj:
        raise FormatError('expected an object with a "components" list', where)
    out = {}
    for i, item in enumerate(obj["components"]):
        here = f"{where}.components[{i}]"
        if not isinstance(item, dict) or {"m", "n", "operator"} - item.keys():
            raise FormatError('expected keys "m", "n", "operator"', here)
        m, n = item["m"], item["n"]
        if not _is_int(m) or not _is_int(n) or m < 0 or n < 0:
            raise FormatError("m and n must be non-negative integers", here)
        out[(m, n)] = operator_from_obj(item["operator"], f"{here}.operator")
    return out


def certificate_to_obj(coefficients) -> dict:
    return {"coefficients": [str(c) for c in coefficients]}


def canonical_dumps(obj) -> str:
    """Deterministic, compact JSON used for machine-readable reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def pretty_dumps(obj) -> str:
    """Deterministic, human-readable JSON used for files on disk."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path) -> object:
    """Read a UTF-8 JSON file, reporting bad bytes by offset and parse failures by line/column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc.reason}", f"{path}:byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}"
        ) from None


def load_operator(path) -> Operator:
    return operator_from_obj(load_json(path), str(path))


def save_operator(op: Operator, path):
    Path(path).write_text(pretty_dumps(operator_to_obj(op)))
