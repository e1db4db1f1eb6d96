"""The benchmark's workloads: CLI invocations, instance sizes and output checks.

One *rep* is what a user of the CLI runs once for the workload; its time
and resources are summed over the CLI processes it starts.  Every rep is
checked.  Outputs of later reps (traced ones included) must equal those
of the first, so a traced run's outputs are compared with untraced ones.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

CLI_TIMEOUT_S = 150


@dataclass
class Proc:
    """One finished CLI process."""

    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str


def run_cli(args: list[str], env: dict, cwd: Path) -> Proc:
    """Run ``python -m hyperblock.cli <args>`` and collect its resource usage.

    ``os.wait4`` gives the CPU time of the process and of every pool
    worker it reaped, and the largest resident set among them.
    """
    out_path, err_path = cwd / "cli.stdout", cwd / "cli.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hyperblock.cli", *args], cwd=cwd,
                                env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                out_path.read_text(), err_path.read_text())


@dataclass
class Rep:
    """Measurements and check results of one rep."""

    run_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    misclassified: float | None = None
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None  # per-layer metrics of a traced rep

    def add(self, proc: Proc, what: str) -> bool:
        self.run_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.rss_kb = max(self.rss_kb, proc.rss_kb)
        if proc.code != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{what} exited with {proc.code}: {' | '.join(tail)}")
        return proc.code == 0


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """Base: subclasses write their configs in ``prepare`` and run one rep in ``rep``."""

    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, env: dict):
        self.work, self.seed, self.env = work, seed, env
        self.reference: str | None = None
        self.untimed: list[Rep] = []  # counted and checked, but not in the metrics

    def cli(self, *args: str, env: dict | None = None) -> Proc:
        return run_cli([*args, "--seed", str(self.seed)], env or self.env, self.work)

    def write(self, name: str, text: str) -> str:
        (self.work / name).write_text(text)
        return name

    def check_reference(self, rep: Rep, digest: str, what: str) -> None:
        """The first digest seen becomes the reference unless ``prepare`` set one."""
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            rep.errors.append(f"{what}: differs from the reference")

    def prepare(self) -> None:
        pass

    def rep(self, env: dict | None = None) -> Rep:
        raise NotImplementedError


class DetectFromFile(Workload):
    """``sample`` to a file, then ``detect`` with ``input =`` that file."""

    name = "detect_k3_n20k"
    why = ("one large planted instance through sample -> file -> detect; the only "
           "workload that touches fileio and the k>=3 pipeline; serial, no pool")

    orders = "2:80,2;3:40,2"
    min_gamma = 0.9

    def __init__(self, work, seed, env, n=20000):
        super().__init__(work, seed, env)
        self.n = n

    def prepare(self) -> None:
        model = f"n = {self.n}\nk = 3\norders = {self.orders}\n"
        self.sample_cfg = self.write("sample.cfg", model)
        self.detect_cfg = self.write("detect.cfg", model + "input = graph.txt\n")

    def rep(self, env=None) -> Rep:
        rep = Rep(attempted=1)
        ok = rep.add(self.cli("sample", "--config", self.sample_cfg, "--out", "graph.txt",
                              env=env), "sample")
        if ok:
            proc = self.cli("detect", "--config", self.detect_cfg, "--out", "labels.tsv",
                            env=env)
            ok = rep.add(proc, "detect")
        if not ok:
            rep.failed = 1
            return rep
        row = dict(zip(*[ln.split(",") for ln in proc.stdout.strip().splitlines()[-2:]]))
        gamma = float(row["gamma"])
        rep.misclassified = float(row["misclassified_fraction"])
        if gamma < self.min_gamma:
            rep.errors.append(f"gamma {gamma} below {self.min_gamma}")
        self.check_reference(rep, _digest(self.work / "graph.txt", self.work / "labels.tsv"),
                           "instance or labels")
        return rep


class Ladder(Workload):
    """``experiment`` on a k = 2 rate-gap ladder over order 3.

    Timed reps run at ``--jobs 1``.  At ``--jobs 2`` every pool worker runs
    multi-threaded OpenBLAS on the same cores, and one rep's wall time
    then varies by up to 5x between identical reps, too much for a
    bounded metric; so the pool runs once per benchmark run, untimed,
    and its outputs are the reference every timed rep must equal byte
    for byte (the CLI promises identical outputs whatever ``--jobs``).
    """

    name = "ladder_k2_jobs1"
    why = ("many small k=2 trials through runner.pmap: symmetric-eigen top_subspace, "
           "partition_2; timed at --jobs 1, outputs must equal an untimed --jobs 2 run")

    def __init__(self, work, seed, env, n=3000, trials=4):
        super().__init__(work, seed, env)
        self.n, self.trials = n, trials
        self.rungs = (10, 20, 40, 80)

    def prepare(self) -> None:
        self.cfg = self.write("ladder.cfg", (
            f"n = {self.n}\nk = 2\norders = 3:20,10\n"
            f"ladder = {','.join(map(str, self.rungs))}\nbase_b = 10\nladder_order = 3\n"
            f"trials = {self.trials}\n"))
        pool = Rep(attempted=len(self.rungs) * self.trials)
        self.untimed.append(pool)
        if pool.add(self.cli("experiment", "--config", self.cfg, "--jobs", "2",
                             "--out", "pool.csv"), "experiment --jobs 2"):
            self.reference = _digest(self.work / "pool.csv", self.work / "pool.csv.summary")
        else:
            pool.failed = pool.attempted

    def rep(self, env=None) -> Rep:
        rep = Rep(attempted=len(self.rungs) * self.trials)
        proc = self.cli("experiment", "--config", self.cfg, "--jobs", "1",
                        "--out", "ladder.csv", env=env)
        if not rep.add(proc, "experiment"):
            rep.failed = rep.attempted
            return rep
        out = self.work / "ladder.csv"
        self.check_reference(rep, _digest(out, self.work / "ladder.csv.summary"),
                           "--jobs 1 trial CSV and summary vs --jobs 2")
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        rep.misclassified = statistics.median(float(r["misclassified_fraction"]) for r in rows)
        summary = [ln.split("\t") for ln in
                   (self.work / "ladder.csv.summary").read_text().splitlines()]
        weakest, strongest = float(summary[0][1]), float(summary[-1][1])
        if not strongest < 0.25 * weakest:
            rep.errors.append(f"strongest rung median {strongest} is not well below "
                              f"the weakest rung's {weakest}")
        return rep


class Conclab(Workload):
    """``conclab`` over a size grid: many small instances, spectral norms."""

    name = "conclab_n4k"
    why = ("concentration trials over n=500..4000: the only workload that runs "
           "spectral_norm; samples many small instances instead of one large one")

    def __init__(self, work, seed, env, sizes=(500, 1000, 2000, 4000), trials=6):
        super().__init__(work, seed, env)
        self.sizes, self.trials = sizes, trials

    def prepare(self) -> None:
        self.cfg = self.write("conclab.cfg", (
            f"n = {max(self.sizes)}\nk = 2\norders = 2:10,5;3:10,5\n"
            f"sizes = {','.join(map(str, self.sizes))}\ntrials = {self.trials}\n"))

    def rep(self, env=None) -> Rep:
        rep = Rep(attempted=len(self.sizes) * self.trials)
        proc = self.cli("conclab", "--config", self.cfg, "--out", "conclab.csv", env=env)
        if not rep.add(proc, "conclab"):
            rep.failed = rep.attempted
            return rep
        out = self.work / "conclab.csv"
        self.check_reference(rep, _digest(out), "conclab CSV")
        by_n: dict[str, list[float]] = {}
        for r in csv.DictReader(io.StringIO(out.read_text())):
            by_n.setdefault(r["n"], []).append(float(r["reg_ratio"]))
        for n, vals in by_n.items():
            p90 = statistics.quantiles(vals, n=10, method="inclusive")[-1]
            if not p90 < 10.0:
                rep.errors.append(f"p90 of reg_ratio at n={n} is {p90}, not below 10")
        return rep


WORKLOADS = {cls.name: cls for cls in (DetectFromFile, Ladder, Conclab)}
