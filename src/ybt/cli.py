"""Command line interface: every check and construction, with JSON reports.

Machine-readable reports go to standard output (deterministic bytes for
identical inputs and seed), a one-line human summary with timing goes to
standard error.  Exit codes: 0 all checks passed, 1 a check failed
(non-zero residual or no certificate), 2 usage or input error, or a
resource failure such as running out of memory.

Anywhere a file path is accepted, ``catalog:<name>?<param>=<value>``
resolves a built-in entry instead: an R slot takes the entry's R-matrix,
an F slot takes its twist's F, a pair slot takes the whole pair.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path

# Only the layers every subcommand uses are imported here.  A handler
# imports catalog, factorized, fusion or subspace_solver when it runs, so a
# process loads only what its subcommand needs.
from .errors import CatalogError, FormatError, ShapeMismatchError, SizeCapError, YbtError
from .formats import (
    canonical_dumps,
    certificate_to_obj,
    components_from_obj,
    load_json,
    load_operator,
    operator_to_obj,
    pretty_dumps,
    subspace_to_obj,
)
from .tensor_core import Operator, RATIONAL
from .twist_engine import (
    CheckReport,
    TwistPair,
    apply_twist,
    aux_identity_residual,
    check_pair,
)
from .ybe_check import ybe_residual


def _residual_json(value):
    return str(value) if isinstance(value, Fraction) else float(value)


def _parse_catalog_ref(ref: str):
    body = ref[len("catalog:"):]
    name, _, query = body.partition("?")
    params = {}
    if query:
        for piece in query.split("&"):
            key, sep, value = piece.partition("=")
            if not key or not sep or not value:
                raise FormatError(f"bad catalog parameter {piece!r}", ref)
            params[key] = value
    return name, params


def _resolve_entry(ref: str):
    from . import catalog

    name, params = _parse_catalog_ref(ref)
    return catalog.get(name, params)


def resolve_r(ref: str) -> Operator:
    if ref.startswith("catalog:"):
        return _resolve_entry(ref).r
    return load_operator(ref)


def resolve_f(ref: str) -> Operator:
    if ref.startswith("catalog:"):
        return resolve_pair(ref).f
    return load_operator(ref)


def resolve_pair(ref: str) -> TwistPair:
    if ref.startswith("catalog:"):
        entry = _resolve_entry(ref)
        if entry.twist is None:
            raise CatalogError(f"catalog entry {entry.name!r} carries no twist")
        return entry.twist
    f_path, sep, g_path = ref.partition(",")
    if not sep:
        raise FormatError(
            'a pair is "<f-file>,<g-file>" or "catalog:<name>"', ref
        )
    return TwistPair(load_operator(f_path), load_operator(g_path))


def _resolve_components(ref: str, m: int, n: int, k: int) -> dict:
    """The components te1_residual(m, n, k) reads; zero indices stay implicit."""
    if ref.startswith("catalog:"):
        from .factorized import omega_split_A, omega_split_B
        from .fusion import f_components_from_omega

        entry = _resolve_entry(ref)
        if entry.regime == "split_A":
            build = omega_split_A
        elif entry.regime == "split_B":
            build = omega_split_B
        else:
            raise CatalogError(
                f"catalog entry {entry.name!r} has no split regime to build "
                "components from"
            )
        if min(m, n, k) < 0:  # before any omega is built: the cap sums the indices
            raise ShapeMismatchError("indices must be non-negative")
        pairs = ((m + n, k), (m, n), (m, n + k), (n, k))
        wanted = sorted({(a, b) for a, b in pairs if a > 0 and b > 0})
        if not wanted:
            wanted = [(1, 1)]  # all identities; F^{1,1} = Omega^2 only fixes site_dim and backend
        legs = sorted({j for a, b in wanted for j in (a, b, a + b) if j >= 2})
        f = entry.twist.f
        omegas = {j: build(f, j) for j in legs}
        return {(a, b): f_components_from_omega(omegas, a, b) for a, b in wanted}
    return components_from_obj(load_json(ref), str(ref))


def _write_or_embed(args, outputs: dict, key: str | None, to_obj, value) -> dict:
    """Write ``to_obj(value)`` to the ``-o`` file, else embed it under ``key``.

    With ``key`` None the object is only ever written, never embedded.
    """
    if args.out:
        Path(args.out).write_text(pretty_dumps(to_obj(value)))
        outputs["path"] = str(args.out)
    elif key is not None:
        outputs[key] = to_obj(value)
    return outputs


def _check_leg_cap(what: str, legs: int, max_legs: int):
    if legs > max_legs:
        raise SizeCapError(f"{what} on {legs} legs is above the cap {max_legs}")


# ---------------------------------------------------------------------------
# handlers: each returns (CheckReport, outputs); dispatch builds the report
# ---------------------------------------------------------------------------

_NO_CHECKS = CheckReport({}, True, None, ())


def _cmd_verify_ybe(args):
    r = resolve_r(args.r)
    return CheckReport.build({"ybe": ybe_residual(r)}, r.backend, args.tol), {}


def _cmd_twist(args):
    r = resolve_r(args.r)
    twisted = apply_twist(r, resolve_f(args.f))
    report = CheckReport.build(
        {"ybe_r_twisted": ybe_residual(twisted)}, r.backend, args.tol, gates=(),
        notes=("the twisted-matrix YBE residual is informational here",),
    )
    return report, _write_or_embed(args, {}, "operator", operator_to_obj, twisted)


def _cmd_check_pair(args):
    r = resolve_r(args.r)
    pair = resolve_pair(args.pair)
    module_report = check_pair(r, pair, args.tol)
    residuals = {**module_report.residuals, "aux": aux_identity_residual(r, pair)}
    report = CheckReport.build(
        residuals, r.backend, args.tol, gates=("cond1", "cond2", "cond3", "aux"),
        notes=(*module_report.notes, "verdict gates on cond1, cond2, cond3, aux"),
    )
    return report, {}


def _cmd_check_split(args):
    from .factorized import check_split_A, check_split_B

    check = check_split_A if args.variant == "A" else check_split_B
    return check(resolve_r(args.r), resolve_f(args.f), args.tol), {}


def _cmd_fuse(args):
    _check_leg_cap("fuse", args.m + args.n, args.max_legs)
    from .fusion import fuse_r

    fused = fuse_r(resolve_r(args.r), args.m, args.n, max_legs=args.max_legs)
    return _NO_CHECKS, _write_or_embed(args, {}, "operator", operator_to_obj, fused)


def _cmd_rsym(args):
    from .subspace_solver import r_symmetric_space

    _check_leg_cap("rsym", args.n, args.max_legs)
    r = resolve_r(args.r)
    basis = r_symmetric_space(r, args.n, size_cap=r.site_dim**args.max_legs)
    outputs = {"dimension": basis.dimension}
    _write_or_embed(args, outputs, "subspace", subspace_to_obj, basis)
    return _NO_CHECKS, outputs


def _cmd_intertwine(args):
    from .subspace_solver import intertwiner_space, invertible_certificate

    _check_leg_cap("intertwine", args.n, args.max_legs)
    if args.budget < 1:  # a usage error, refused before anything is solved
        raise YbtError(f"--budget must be >= 1, got {args.budget}")
    r = resolve_r(args.r)
    s = resolve_r(args.s)
    basis = intertwiner_space(r, s, args.n, size_cap=r.site_dim**args.max_legs)
    found = invertible_certificate(basis, budget=args.budget, seed=args.seed)
    outputs = {"dimension": basis.dimension}
    notes = ()
    if found is None:
        notes = (
            f"no invertible certificate found within budget {args.budget}; "
            "this is not a proof that none exists",
        )
    else:
        outputs["certificate"] = certificate_to_obj(found[0])
    _write_or_embed(args, outputs, None, subspace_to_obj, basis)
    return CheckReport({}, found is not None, None, (), notes), outputs


def _cmd_omega(args):
    from .factorized import omega_split_A, omega_split_B

    _check_leg_cap("omega", args.n, args.max_legs)
    build = omega_split_A if args.variant == "A" else omega_split_B
    omega = build(resolve_f(args.f), args.n)
    return _NO_CHECKS, _write_or_embed(args, {}, "operator", operator_to_obj, omega)


def _cmd_te1(args):
    from .fusion import te1_residual

    needed = args.m + args.n + args.k
    _check_leg_cap("te1", needed, args.max_legs)
    components = _resolve_components(args.components, args.m, args.n, args.k)
    res = te1_residual(components, args.m, args.n, args.k)
    backend = next(iter(components.values())).backend if components else RATIONAL
    return CheckReport.build({"te1": res}, backend, args.tol), {}


def _cmd_catalog_list(args):
    from . import catalog

    return _NO_CHECKS, {"names": catalog.names()}


def _cmd_catalog_get(args):
    from . import catalog

    entry = _resolve_entry("catalog:" + args.name)
    return _NO_CHECKS, _write_or_embed(args, {}, "entry", catalog.entry_to_obj, entry)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=None,
                   help="verdict tolerance, complex backend only (default 1e-9)")
    p.add_argument("--max-legs", type=int, default=6, dest="max_legs",
                   help="refuse computations beyond this many legs (default 6)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (the default; kept for scripts)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the human summary on standard error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybt",
        description="Exact checks and constructions for constant Yang-Baxter "
        "R-matrices, their twists and fusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-ybe", help="Yang-Baxter residual of a two-leg operator")
    p.add_argument("r", help="R-matrix file or catalog:<name>")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_ybe)

    p = sub.add_parser("twist", help="apply F21^-1 R F")
    p.add_argument("r")
    p.add_argument("f")
    p.add_argument("-o", "--out", default=None, help="write the result here")
    _add_common(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("check-pair", help="twist-pair conditions and aux identity")
    p.add_argument("r")
    p.add_argument("--pair", required=True,
                   help='"<f-file>,<g-file>" or catalog:<name>')
    _add_common(p)
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("check-split", help="factorization conditions, variant A or B")
    p.add_argument("r")
    p.add_argument("f")
    p.add_argument("--variant", choices=("A", "B"), required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_split)

    p = sub.add_parser("fuse", help="fused block matrix R^{m,n}")
    p.add_argument("r")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("rsym", help="basis of the R-symmetric space on n legs")
    p.add_argument("r")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_rsym)

    p = sub.add_parser("intertwine",
                       help="braid intertwiner space of two R-matrices plus "
                            "an invertibility certificate search")
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("omega", help="n-leg intertwiner product of a split twist")
    p.add_argument("f")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--variant", choices=("A", "B"), required=True)
    p.add_argument("-o", "--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("te1", help="component twist equation residual")
    p.add_argument("components",
                   help="component-map file or catalog:<name> with a split regime")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_te1)

    p = sub.add_parser("catalog", help="built-in example data")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list", help="names of the built-in entries")
    _add_common(pl)
    pl.set_defaults(func=_cmd_catalog_list)
    pg = csub.add_parser("get", help="fetch and validate one entry")
    pg.add_argument("name", help='entry name, optionally with "?param=value"')
    pg.add_argument("-o", "--out", default=None)
    _add_common(pg)
    pg.set_defaults(func=_cmd_catalog_get)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves its parser unchanged, so one parser per process
    # serves every in-process call
    return build_parser()


# parsed arguments that are not a subcommand's own inputs
_NOT_INPUTS = frozenset(
    ("tol", "max_legs", "json", "quiet", "out", "func", "command", "catalog_command")
)


def _envelope(args, report: CheckReport, outputs: dict) -> dict:
    """The one report shape every subcommand prints."""
    command = args.command
    if command == "catalog":
        command = f"catalog-{args.catalog_command}"
    envelope = {
        "command": command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "residuals": {k: _residual_json(v) for k, v in report.residuals.items()},
        "verdict": report.verdict,
    }
    if outputs:
        envelope["outputs"] = outputs
    if report.notes:
        envelope["notes"] = list(report.notes)
    return envelope


def dispatch(argv=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        report = _envelope(args, *args.func(args))
        elapsed = time.perf_counter() - started
        text = canonical_dumps(report)
    except (OSError, YbtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if not args.quiet:
        state = "ok" if report["verdict"] else "FAILED"
        shown = ", ".join(f"{k}={v}" for k, v in report["residuals"].items())
        tail = f" [{shown}]" if shown else ""
        print(
            f"{report['command']}: {state} in {elapsed:.3f}s{tail}",
            file=sys.stderr,
        )
    return 0 if report["verdict"] else 1


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
