"""Traced mode: spans around the public functions of every ybt layer.

The wrappers are installed from outside the package.  Each public
function of a layer module is wrapped once, and the wrapper is bound under
every name that held the original in any loaded ``ybt`` module, so a call
through ``ybt.ybe_check.embed`` is seen exactly like one through
``ybt.tensor_core.embed``.  The arithmetic dunders of ``Operator``, the
``TwistPair`` constructor hook and ``ArgumentParser.parse_args`` are
wrapped on their classes.

Spans are kept in memory as ``[name, start, end, parent, counter]`` and
written out at the end.  A layer's self time is its span minus the time
its wrapped child spans cover; counters that must read a result entry by
entry run inside a ``trace.counter`` span so their cost lands in no layer.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
import time

LAYERS = (
    "tensor_core",
    "ybe_check",
    "twist_engine",
    "factorized",
    "fusion",
    "subspace_solver",
    "catalog",
    "formats",
    "cli",
)

# Scalar helpers, most called once per matrix entry: wrapping them would
# measure the wrapper, so their time stays in the caller's self time.
SKIP = {
    "tensor_core.as_scalar",
    "formats.parse_rational",
    "formats.format_rational",
    "formats.scalar_to_obj",
    "formats.scalar_from_obj",
    "twist_engine.magnitude_ok",
}

METHODS = (
    ("tensor_core", "Operator", ("__matmul__", "__add__", "__sub__", "__rmul__", "__neg__")),
    ("twist_engine", "TwistPair", ("__post_init__",)),
)

PARSE = "cli.parse_args"


def _max_bits(op) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length())
         for row in op.rows for v in row),
        default=0,
    )


def _solve_counter(basis):
    return ((basis.site_dim**basis.legs) ** 2, basis.dimension)


# Counters read from (result) after the call: cheap ones inline, the
# per-entry scan of an inverse inside its own trace.counter span.
CHEAP = {
    "tensor_core.Operator.__matmul__": lambda out: out.side**2,
    "subspace_solver.r_symmetric_space": _solve_counter,
    "subspace_solver.intertwiner_space": _solve_counter,
    "subspace_solver.invertible_certificate": lambda out: int(out is not None),
    "formats.canonical_dumps": len,
}
COSTLY = {"tensor_core.invert": _max_bits}


class Tracer:
    """Installs the wrappers, records spans, and restores everything on close."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        cheap, costly = CHEAP.get(name), COSTLY.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if cheap is not None:
                span[4] = cheap(out)
            elif costly is not None:
                c0 = clock()
                span[4] = costly(out)
                spans.append(["trace.counter", c0, clock(), parent, None])
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one task, parenting the layer spans."""
        idx = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float):
        """Record work done by the benchmark inside whatever span is open."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def install(self):
        modules = {
            key: mod for key, mod in sys.modules.items()
            if key == "ybt" or key.startswith("ybt.")
        }
        wrapped = {}
        for layer in LAYERS:
            mod = modules.get(f"ybt.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                    and obj not in wrapped
                ):
                    wrapped[obj] = self._wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, obj, wrapped[obj])
        for layer, cls_name, methods in METHODS:
            mod = modules.get(f"ybt.{layer}")
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", orig))
        orig = argparse.ArgumentParser.parse_args
        self._set(argparse.ArgumentParser, "parse_args", orig, self._wrap(PARSE, orig))

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def close(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, counter in self.spans:
                fh.write(json.dumps([name, start, end, parent, counter]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_OP = "tensor_core.Operator."
SELF_TIME = {
    "tensor_core.matmul_s": (_OP + "__matmul__",),
    "tensor_core.embed_s": ("tensor_core.embed",),
    "tensor_core.residual_s": ("tensor_core.residual",),
    "tensor_core.leg_permute_s": ("tensor_core.leg_permute",),
    "tensor_core.kron_s": ("tensor_core.kron",),
    "tensor_core.invert_s": ("tensor_core.invert",),
    "tensor_core.determinant_s": ("tensor_core.determinant",),
    "tensor_core.add_scale_s": tuple(
        _OP + m for m in ("__add__", "__sub__", "__rmul__", "__neg__")),
    "subspace_solver.solve_s": (
        "subspace_solver.r_symmetric_space",
        "subspace_solver.intertwiner_space",
    ),
    "subspace_solver.membership_s": ("subspace_solver.membership_coefficients",),
    "subspace_solver.certificate_s": ("subspace_solver.invertible_certificate",),
    "ybe_check.ybe_residual_s": ("ybe_check.ybe_residual",),
    "ybe_check.mixed_ybe_s": ("ybe_check.mixed_ybe_residual",),
    "ybe_check.braid_matrix_s": ("ybe_check.braid_matrix",),
    "fusion.fuse_r_s": ("fusion.fuse_r",),
    "fusion.f_components_s": ("fusion.f_components_from_omega",),
    "fusion.te1_s": ("fusion.te1_residual",),
    "twist_engine.apply_twist_s": ("twist_engine.apply_twist",),
    "twist_engine.check_pair_s": ("twist_engine.check_pair",),
    "twist_engine.aux_identity_s": ("twist_engine.aux_identity_residual",),
    "twist_engine.pair_init_s": ("twist_engine.TwistPair.__post_init__",),
    "factorized.check_split_s": ("factorized.check_split_A", "factorized.check_split_B"),
    "factorized.omega_split_s": ("factorized.omega_split_A", "factorized.omega_split_B"),
    "catalog.get_s": ("catalog.get",),
    "catalog.validate_s": ("catalog.validate_entry",),
    "formats.load_s": (
        "formats.load_json",
        "formats.load_operator",
        "formats.operator_from_obj",
        "formats.twist_pair_from_obj",
        "formats.subspace_from_obj",
        "formats.components_from_obj",
    ),
    "formats.to_obj_s": (
        "formats.operator_to_obj",
        "formats.twist_pair_to_obj",
        "formats.subspace_to_obj",
        "formats.components_to_obj",
        "formats.certificate_to_obj",
    ),
    "formats.dumps_s": ("formats.canonical_dumps", "formats.pretty_dumps"),
    "cli.parse_s": ("cli.build_parser", PARSE),
}
CALLS = {
    "tensor_core.matmul_calls": _OP + "__matmul__",
    "tensor_core.embed_calls": "tensor_core.embed",
    "tensor_core.invert_calls": "tensor_core.invert",
    "tensor_core.determinant_calls": "tensor_core.determinant",
    "catalog.get_calls": "catalog.get",
}
# metric -> (span names, index into a tuple counter or None)
_SOLVE = SELF_TIME["subspace_solver.solve_s"]
COUNTER_SUM = {
    "tensor_core.matmul_out_entries": ((_OP + "__matmul__",), None),
    "subspace_solver.unknowns": (_SOLVE, 0),
    "subspace_solver.kernel_dim": (_SOLVE, 1),
    "subspace_solver.certificates_found": (("subspace_solver.invertible_certificate",), None),
    "formats.report_bytes": (("formats.canonical_dumps",), None),
}
UNITS = {"_s": "s", "_calls": "count", "_bits": "bits", "_bytes": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans, rounds: int) -> dict:
    """Self times, call counts and counters, each per traced round."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict = {}
    calls: dict = {}
    counters: dict = {}
    attempts = 0
    cli_self = 0.0
    cli_parse = set(SELF_TIME["cli.parse_s"])
    for i, (name, start, end, parent, counter) in enumerate(spans):
        own = end - start - child[i]
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if counter is not None:
            counters.setdefault(name, []).append(counter)
        if name.startswith("cli.") and name not in cli_parse:
            cli_self += own
        if (
            name == "tensor_core.determinant"
            and parent >= 0
            and spans[parent][0] == "subspace_solver.invertible_certificate"
        ):
            attempts += 1
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_time.get(n, 0.0) for n in names) / rounds
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / rounds
    for metric, (names, index) in COUNTER_SUM.items():
        values = [c if index is None else c[index] for n in names for c in counters.get(n, ())]
        out[metric] = sum(values) / rounds
    out["tensor_core.invert_max_bits"] = max(counters.get("tensor_core.invert", ()), default=0)
    out["subspace_solver.certificate_attempts"] = attempts / rounds
    out["cli.dispatch_self_s"] = cli_self / rounds
    return out
