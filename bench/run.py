"""Benchmark for ybt: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload commutant --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``ybt`` from ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record and, when traced, the spans are written under
``bench/out``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 5
PROBES = 5
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def probe(code: str, env: dict) -> float:
    """Wall time of one `python -c code` child, run to its end."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def fresh_ybt(with_cli: bool):
    """Import ybt from scratch, dropping any copy imported before."""
    for key in [k for k in sys.modules if k == "ybt" or k.startswith("ybt.")]:
        del sys.modules[key]
    ybt = importlib.import_module("ybt")
    if with_cli:
        importlib.import_module("ybt.cli")
    return ybt


def run_round(tasks, meter, tracer=None):
    """Run every task once; returns (outputs, {label: marks}, failures)."""
    gc.collect()
    out, marks, failures = {}, {}, []
    for label, fn in tasks:
        start = meter.mark()
        try:
            if tracer is None:
                value = fn(out)
            else:
                with tracer.span("task:" + label):
                    value = fn(out)
        except Exception as exc:  # a failing operation is counted, not fatal
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        marks[label] = (start, meter.mark())
        out[label] = value
    return out, marks, failures


class Rounds:
    """Per-round totals and per-task latencies of one kind of round,
    at reference speed, with the raw round totals beside them."""

    def __init__(self):
        self.totals: list = []
        self.raw_totals: list = []
        self.by_task: dict = {}

    def add(self, meter, marks: dict):
        times = {label: meter.scaled(*m) for label, m in marks.items()}
        self.raw_totals.append(sum(raw for raw, _ in times.values()))
        self.totals.append(sum(scaled for _, scaled in times.values()))
        for label, (_, scaled) in times.items():
            self.by_task.setdefault(label, []).append(scaled)

    @property
    def latencies(self) -> list:
        return [t for times in self.by_task.values() for t in times]


def measure(wl, seconds: float, meter, tracer=None):
    """Whole rounds until `seconds` of task time; round one is checked in full.

    With a tracer, rounds alternate untraced and traced, so both kinds see
    the same machine.  Returns the untraced and traced Rounds, failures and
    problems.
    """
    tasks = wl.tasks()
    plain, traced = Rounds(), Rounds()
    failures, problems = [], []
    first = None
    while (len(plain.totals) < MIN_ROUNDS
           or (tracer is not None and len(traced.totals) < MIN_ROUNDS)
           or sum(plain.raw_totals) + sum(traced.raw_totals) < seconds):
        use_tracer = tracer is not None and len(plain.totals) > len(traced.totals)
        if use_tracer:
            tracer.install()
            meter.tracer = tracer
            try:
                out, marks, failed = run_round(tasks, meter, tracer)
            finally:
                meter.tracer = None
                tracer.close()
        else:
            out, marks, failed = run_round(tasks, meter)
        (traced if use_tracer else plain).add(meter, marks)
        failures += failed
        if first is None:
            problems += wl.check(out)
            first = {k: workloads.summary(v) for k, v in out.items()}
        else:
            for label, value in out.items():
                if label in first and workloads.summary(value) != first[label]:
                    problems.append(f"{label}: a later round differs from round 1")
        del out
    return plain, traced, failures, problems


def git_revision(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ybt" / "__init__.py").is_file():
        print(f"error: no ybt source tree under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    out_dir = ROOT / "bench" / "out"
    (out_dir / "records").mkdir(parents=True, exist_ok=True)
    env = workloads.child_env(ROOT)
    kind = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    # the traced cli run calls ybt.cli.dispatch in-process
    in_process = traced and kind is workloads.Cli

    # Reference lines, not metrics: process start here comes in ~50 ms steps
    # that neither the speed loop nor any robust statistic tried could hold
    # steady.  Interleaved, so that both probes see the same machine.
    probes = {"pass": [], "import ybt.cli": []}
    for _ in range(0 if traced else PROBES):
        for code, times in probes.items():
            times.append(probe(code, env))
    setup, raw_setup = [], []
    with speed.Speedometer() as meter:
        for _ in range(1 if traced else SETUP_PASSES):
            gc.collect()
            start = meter.mark()
            ybt = fresh_ybt(in_process)
            wl = kind(ybt, args.seed, ROOT, in_process=in_process)
            raw, scaled = meter.scaled(start, meter.mark())
            raw_setup.append(raw)
            setup.append(scaled)
        tracer = tracing.Tracer() if traced else None
        plain, rounds, failures, problems = measure(wl, args.seconds, meter, tracer)

    if traced:
        metrics = tracing.layer_metrics(tracer.spans, len(rounds.totals))
        # layer times at reference speed, like the end-to-end times
        factor = sum(rounds.totals) / sum(rounds.raw_totals)
        metrics = {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(rounds.totals) / statistics.median(plain.totals))
        units = {name: tracing.unit_of(name) for name in metrics}
        units["trace.overhead_ratio"] = "ratio"
        (out_dir / "spans").mkdir(exist_ok=True)
        tracer.write(out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if kind is workloads.Cli else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain.totals),
            "task_p50_s": statistics.median(plain.latencies),
            "task_p90_s": statistics.quantiles(plain.latencies, n=10)[-1],
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        units = END_TO_END

    round_count = len(plain.totals) + len(rounds.totals)
    attempted = len(wl.tasks()) * round_count
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "speed_reference_s": speed.REFERENCE_S,
        "speed_samples": len(meter.loop),
        "speed_loop_median_s": statistics.median(meter.loop),
        "probes_s": probes,
        "import_s": statistics.median(probes["import ybt.cli"]) if probes["pass"] else None,
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "untraced_rounds_s": plain.totals,
        "untraced_raw_rounds_s": plain.raw_totals,
        "untraced_task_s": plain.by_task,
        "traced_rounds_s": rounds.totals,
        "traced_raw_rounds_s": rounds.raw_totals,
        "problems": problems,
        "failures": failures,
        **result,
    }
    path = out_dir / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + failures:
        print("problem: " + line)
    if probes["pass"]:
        print(f"reference: bare interpreter floor {statistics.median(probes['pass']):.4f} s, "
              f"import ybt.cli {statistics.median(probes['import ybt.cli']):.4f} s "
              f"(median raw wall time of {PROBES} runs of python -c each)")
    print(f"{args.workload}: {round_count} rounds, {attempted} tasks attempted, "
          f"{len(failures)} failed, correct={not problems}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
