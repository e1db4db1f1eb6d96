"""Per-layer metrics from the span files of one traced CLI run.

A ``_s`` metric is self time: each span's length minus the part of it
that its child spans cover, summed over the calls of that function.
Spans from pool workers name their ``pmap`` span as parent, so the
union of covered intervals (not their sum) is subtracted: two workers
running at once cover the same stretch of the ``pmap`` span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# name -> unit, in the order they are reported
PER_LAYER = {
    "sampler.sample_hsbm_s": "s",
    "sampler.edges": "count",
    "fileio.read_hypergraph_s": "s",
    "fileio.write_hypergraph_s": "s",
    "fileio.write_labels_s": "s",
    "fileio.bytes": "bytes",
    "spectral.adjacency_s": "s",
    "spectral.adjacency_calls": "count",
    "spectral.bipartite_embed_s": "s",
    "spectral.regularize_s": "s",
    "spectral.kept_fraction": "fraction",
    "spectral.top_subspace_s": "s",
    "spectral.spectral_norm_s": "s",
    "spectral.spectral_norm_calls": "count",
    "pipeline.spectral_partition_k_s": "s",
    "pipeline.blue_weighted_count_s": "s",
    "pipeline.blue_weighted_count_calls": "count",
    "pipeline.correction_k_s": "s",
    "pipeline.merging_s": "s",
    "pipeline.spectral_partition_2_s": "s",
    "pipeline.correction_2_s": "s",
    "metrics.accuracy_report_s": "s",
    "concentration.concentration_trial_s": "s",
    "runner.pmap_s": "s",
    "runner.trials": "count",
    "runner.worker_busy_frac": "fraction",
    "trace.overhead_s": "s",
}


def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, from one run's spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s["end"] - s["start"] - _covered(s["start"], s["end"], children[s["id"]])
        self_s[s["name"]] += own
        calls[s["name"]] += 1
        for key, val in s["counts"].items():
            counts[f"{s['name']}.{key}"] += val

    pmaps = [s for s in spans if s["name"] == "runner.pmap"]
    pool_s = sum(s["counts"]["jobs"] * (s["end"] - s["start"]) for s in pmaps)
    busy_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "runner.trial")
    rows = counts["spectral.mask_matrix.rows"]

    out = {name: self_s[name[:-2]] for name in PER_LAYER if name.endswith("_s")}
    out["spectral.regularize_s"] = self_s["spectral.regularize"] + self_s["spectral.mask_matrix"]
    out.update({
        "sampler.edges": counts["sampler.sample_hsbm.edges"],
        "fileio.bytes": sum(counts[f"fileio.{fn}.bytes"] for fn in
                            ("read_hypergraph", "write_hypergraph", "write_labels")),
        "spectral.adjacency_calls": calls["spectral.adjacency"],
        "spectral.kept_fraction": counts["spectral.mask_matrix.kept"] / rows if rows else 0.0,
        "spectral.spectral_norm_calls": calls["spectral.spectral_norm"],
        "pipeline.blue_weighted_count_calls": calls["pipeline.blue_weighted_count"],
        "runner.trials": counts["runner.pmap.trials"],
        "runner.worker_busy_frac": busy_s / pool_s if pool_s else 0.0,
    })
    del out["trace.overhead_s"]
    return out
