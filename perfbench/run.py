#!/usr/bin/env python3
"""hyperblock benchmark: one workload through the ``hyperblock`` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported from the ``src`` directory of the checkout that
holds this file; nothing is installed.  The workload seed becomes the
CLI's ``--seed``.  One client runs reps back to back (closed loop) until
the next rep would end after ``--seconds``; every rep's outputs are
checked.  No BLAS thread variable is set: the CLI runs with the threading
a user gets.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics of the traced
ones (spans recorded by ``tracehook/sitecustomize.py``) plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median, tail percentile and sample count, and the
machine and BLAS descriptor.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER, layer_metrics, load_spans
from workloads import WORKLOADS, Rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "tracehook"

# name -> unit, in the order they are reported
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine(env: dict) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "machine.py")], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SystemExit(f"cannot import hyperblock from {SRC}:\n{out.stderr.strip()}")
    desc = json.loads(out.stdout)
    if Path(desc["hyperblock"]).resolve() != (SRC / "hyperblock").resolve():
        raise SystemExit(f"hyperblock resolved to {desc['hyperblock']}, not {SRC}")
    return desc


def setup_seconds(env: dict) -> list[float]:
    """Fresh interpreter until ``hyperblock.cli`` is imported, several times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hyperblock.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def trace_env(env: dict, trace_dir: Path) -> dict:
    """``env`` plus the span recorder, writing into ``trace_dir``."""
    return dict(env, HYPERBLOCK_BENCH_TRACE=str(trace_dir),
                PYTHONPATH=os.pathsep.join([str(HOOK), env["PYTHONPATH"]]))


def traced_rep(wl, env: dict, trace_dir: Path) -> Rep:
    trace_dir.mkdir()
    rep = wl.rep(trace_env(env, trace_dir))
    rep.layers = layer_metrics(load_spans(trace_dir))
    return rep


def measure(seconds: float, step) -> list[Rep]:
    """Call ``step`` (which returns reps) until the next call would overrun."""
    reps: list[Rep] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        reps.extend(step())
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return reps


def summary_line(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        line += f", p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} {unit}"
    else:
        line += ", tail n/a (fewer than 11 samples)"
    return line + f", n={n}: " + " ".join(f"{v:.4g}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperblock" / "cli.py").is_file():
        print(f"error: no hyperblock source under {SRC}", file=sys.stderr)
        return 2

    env = cli_env()
    desc = machine(env)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, env)
        setup = [] if args.trace else setup_seconds(env)
        wl.prepare()
        if args.trace:
            traces = itertools.count()
            reps = measure(args.seconds, lambda: [
                wl.rep(), traced_rep(wl, env, work / f"trace-{next(traces)}")])
        else:
            reps = measure(args.seconds, lambda: [wl.rep()])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain = [r for r in reps if r.layers is None]
    traced = [r for r in reps if r.layers is not None]
    checked = wl.untimed + reps
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    errors = [e for r in checked for e in r.errors]

    print("machine " + json.dumps(desc, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced reps, {attempted} trials, {failed} failed")
    series = {
        "run_s": [r.run_s for r in plain],
        "setup_s": setup,
        "cpu_s": [r.cpu_s for r in plain],
        "peak_rss_mb": [r.rss_kb / 1024 for r in plain],
    }
    for r in wl.untimed:
        print(f"untimed rep: {r.run_s:.4g} s wall, {r.cpu_s:.4g} s CPU, "
              f"{r.rss_kb / 1024:.4g} MB peak RSS")
    for name, unit in END_TO_END.items():
        if series[name]:
            print(summary_line(name, series[name], unit))
    quality = [r.misclassified for r in plain if r.misclassified is not None]
    if quality:
        print(summary_line("misclassified_frac", quality, "fraction"))
    print(f"failed_frac: {failed / attempted:.6g} fraction ({failed} of {attempted} trials)")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        layers = {name: statistics.median(r.layers[name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r.run_s for r in traced)
                                      - statistics.median(series["run_s"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = bool(reps) and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
