"""Built-in, self-validating example R-matrices and twist data.

Default-parameter entries are loaded from checked-in JSON data files (so
the file format is exercised on every run) and re-validated exactly on
every load; entries with caller-supplied parameters are rebuilt from the
same constructors and validated the same way.  A validation failure is an
error carrying the offending residual, never a silent downgrade.

Entry conventions were pinned by the package's own exact checks:

* ``six_vertex(q)`` uses the upper-triangular placement of the q - 1/q
  entry, which passes the brute-force Yang-Baxter contraction exactly.
* ``jordanian(xi)`` uses F = I + xi*(E x H) with H = diag(1, -1) and E the
  elementary nilpotent; of the two placements this is the one that passes
  the variant-B split conditions and the pair conditions on r = I.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .errors import CatalogError, FormatError, SingularOperatorError
from .factorized import (
    check_split_A,
    check_split_B,
    pair_from_split_A,
    pair_from_split_B,
)
from .formats import (
    operator_from_obj,
    operator_to_obj,
    parse_rational,
    pretty_dumps,
    twist_pair_from_obj,
    twist_pair_to_obj,
    load_json,
)
from .tensor_core import Operator, Record, identity, swap
from .twist_engine import TwistPair, check_pair, identity_pair
from .ybe_check import ybe_residual

DATA_DIR = Path(__file__).parent / "data" / "catalog" / "v1"

REGIMES = ("none", "split_A", "split_B")

DEFAULTS: dict[str, dict[str, Fraction]] = {
    "diag_twist": {"q": Fraction(3, 2), "s": Fraction(2), "t": Fraction(3)},
    "identity": {},
    "jordanian": {"xi": Fraction(1)},
    "perm": {},
    "six_vertex": {"q": Fraction(3, 2)},
}


class CatalogEntry(Record):
    name: str
    r: Operator
    twist: TwistPair | None
    regime: str
    params: dict[str, Fraction]


def names():
    """Sorted, stable list of the built-in entry names."""
    return sorted(DEFAULTS)


def six_vertex_r(q: Fraction) -> Operator:
    if q == 0:
        raise CatalogError("six_vertex needs q != 0")
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [q, zero, zero, zero],
        [zero, one, q - 1 / q, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, q],
    ]
    return Operator.from_rows(2, 2, rows)


def jordanian_f(xi: Fraction) -> Operator:
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [one, zero, xi, zero],
        [zero, one, zero, -xi],
        [zero, zero, one, zero],
        [zero, zero, zero, one],
    ]
    return Operator.from_rows(2, 2, rows)


def diagonal_f(values) -> Operator:
    vals = [Fraction(v) for v in values]
    if any(v == 0 for v in vals):
        raise CatalogError("diagonal twist entries must be non-zero")
    rows = [
        [vals[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)
    ]
    return Operator.from_rows(2, 2, rows)


def _build(name: str, params: dict[str, Fraction]) -> CatalogEntry:
    if name == "identity":
        return CatalogEntry("identity", identity(2, 2), identity_pair(2), "none", {})
    if name == "perm":
        return CatalogEntry("perm", swap(2), None, "none", {})
    if name == "six_vertex":
        q = params["q"]
        r = six_vertex_r(q)
        f = diagonal_f([1, 2, Fraction(1, 2), 1])
        return CatalogEntry(
            "six_vertex", r, pair_from_split_A(f), "split_A", dict(params)
        )
    if name == "diag_twist":
        q, s, t = params["q"], params["s"], params["t"]
        r = six_vertex_r(q)
        f = diagonal_f([1, s, t, 1])
        return CatalogEntry(
            "diag_twist", r, pair_from_split_A(f), "split_A", dict(params)
        )
    if name == "jordanian":
        r = identity(2, 2)
        f = jordanian_f(params["xi"])
        return CatalogEntry(
            "jordanian", r, pair_from_split_B(r, f), "split_B", dict(params)
        )
    raise CatalogError(f"unknown catalog entry {name!r}")


def validate_entry(entry: CatalogEntry):
    """Re-check every invariant of an entry; raise with the failing residual.

    The base YBE residual is computed once: by ``check_pair``, whose report
    carries it, when the entry has a twist.  It is checked first either way.
    """
    report = None if entry.twist is None else check_pair(entry.r, entry.twist)
    res = ybe_residual(entry.r) if report is None else report.residuals["ybe_r"]
    if res != 0:
        raise CatalogError(f"{entry.name}: base matrix fails YBE, residual {res}")
    if report is not None:
        if not report.verdict:
            raise CatalogError(
                f"{entry.name}: twist pair fails its conditions: {report.residuals}"
            )
        twisted = report.residuals["ybe_r_twisted"]
        if twisted != 0:
            raise CatalogError(
                f"{entry.name}: twisted matrix fails YBE, residual {twisted}"
            )
    if entry.regime != "none":
        if entry.twist is None:
            raise CatalogError(f"{entry.name}: a split regime needs a twist pair")
        check = check_split_A if entry.regime == "split_A" else check_split_B
        report = check(entry.r, entry.twist.f)
        if not report.verdict:
            raise CatalogError(
                f"{entry.name}: {entry.regime} conditions fail: {report.residuals}"
            )


def _coerce_params(name: str, params) -> dict[str, Fraction]:
    defaults = DEFAULTS[name]
    merged = dict(defaults)
    for key, raw in (params or {}).items():
        if key not in defaults:
            raise CatalogError(
                f"{name} accepts parameters {sorted(defaults)}, not {key!r}"
            )
        merged[key] = parse_rational(raw, f"params.{key}")
    return merged


def get(name: str, params=None) -> CatalogEntry:
    """Return a fully validated entry; defaults come from the data files."""
    if name not in DEFAULTS:
        raise CatalogError(f"unknown catalog entry {name!r}")
    merged = _coerce_params(name, params)
    try:
        if merged == DEFAULTS[name]:
            entry = load_entry(data_path(name))
        else:
            entry = _build(name, merged)
    except (SingularOperatorError, ZeroDivisionError) as exc:
        raise CatalogError(f"{name}: parameters make a matrix singular ({exc})") from exc
    validate_entry(entry)
    return entry


def data_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


def entry_to_obj(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "params": {k: str(v) for k, v in sorted(entry.params.items())},
        "regime": entry.regime,
        "r": operator_to_obj(entry.r),
        "twist": None if entry.twist is None else twist_pair_to_obj(entry.twist),
    }


def entry_from_obj(obj, where: str = "entry") -> CatalogEntry:
    if not isinstance(obj, dict):
        raise FormatError("catalog entry must be an object", where)
    missing = {"name", "params", "regime", "r", "twist"} - obj.keys()
    if missing:
        raise FormatError(f"missing keys {sorted(missing)}", where)
    if obj["regime"] not in REGIMES:
        raise FormatError(f"unknown regime {obj['regime']!r}", f"{where}.regime")
    params = {
        k: parse_rational(v, f"{where}.params.{k}") for k, v in obj["params"].items()
    }
    twist = (
        None
        if obj["twist"] is None
        else twist_pair_from_obj(obj["twist"], f"{where}.twist")
    )
    return CatalogEntry(
        obj["name"],
        operator_from_obj(obj["r"], f"{where}.r"),
        twist,
        obj["regime"],
        params,
    )


def load_entry(path) -> CatalogEntry:
    return entry_from_obj(load_json(path), str(path))


def rebuild_data_files(directory=None):
    """Regenerate the versioned data files from the entry constructors."""
    directory = Path(directory) if directory is not None else DATA_DIR
    directory.mkdir(parents=True, exist_ok=True)
    for name in names():
        entry = _build(name, DEFAULTS[name])
        validate_entry(entry)
        (directory / f"{name}.json").write_text(pretty_dumps(entry_to_obj(entry)))
