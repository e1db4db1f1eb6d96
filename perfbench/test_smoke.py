"""Smoke test of the benchmark harness: every workload on tiny instances.

Runs ``run.main`` in-process, untraced and traced, and checks that the
result line names exactly the metrics of ``BENCHMARK.json`` with their
units, and that the output checks passed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

import run
import workloads
from spans import layer_metrics, load_spans

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "detect_k3_n20k": {"n": 600},
    "ladder_k2_jobs1": {"n": 300, "trials": 1},
    "conclab_n4k": {"sizes": (100, 200), "trials": 2},
}


def test_workloads_match_benchmark_json():
    assert ({w["name"]: w["why"] for w in SPEC["workloads"]}
            == {name: cls.why for name, cls in workloads.WORKLOADS.items()})
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_present_with_its_unit(name, trace, monkeypatch, capsys):
    tiny = functools.partial(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(run.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {key: val["unit"] for key, val in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(val["value"], (int, float)) for val in result["metrics"].values())
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert result["attempted"] >= 1


def test_spans_from_pool_workers_are_collected(tmp_path):
    ladder = workloads.Ladder(tmp_path, 3, run.cli_env(), **TINY["ladder_k2_jobs1"])
    ladder.prepare()
    trace = tmp_path / "trace"
    trace.mkdir()
    proc = ladder.cli("experiment", "--config", ladder.cfg, "--jobs", "2", "--out", "t.csv",
                      env=run.trace_env(ladder.env, trace))
    assert proc.code == 0
    spans = load_spans(trace)
    pmap_pid = {s["id"].split(".")[0] for s in spans if s["name"] == "runner.pmap"}
    trial_pids = {s["id"].split(".")[0] for s in spans if s["name"] == "runner.trial"}
    assert len(pmap_pid) == 1 and trial_pids and not trial_pids & pmap_pid
    layers = layer_metrics(spans)
    assert layers["runner.trials"] == 4
    assert layers["sampler.edges"] > 0 and layers["spectral.top_subspace_s"] > 0
    assert 0 < layers["runner.worker_busy_frac"] <= 1
