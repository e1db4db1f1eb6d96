"""Span recorder for traced benchmark runs of the hyperblock CLI.

The benchmark puts this directory first on ``PYTHONPATH`` and names an
output directory in ``HYPERBLOCK_BENCH_TRACE``.  Python then imports this
file at start-up, as ``sitecustomize``, in the CLI process and in every
pool worker, whatever the pool's start method.  It imports ``hyperblock``,
wraps the functions listed in ``SPANS`` and rebinds every name in every
loaded ``hyperblock`` module that still refers to an original.  That
covers both kinds of call site: ``from .spectral import top_subspace`` in
``pipeline`` and ``concentration``, and calls inside one module such as
``spectral.bipartite_embed`` calling ``adjacency``.

Each span is ``{id, parent, name, start, end, counts}`` with times from
``time.perf_counter`` (system-wide monotonic on Linux, so spans from
different processes share one clock).  Spans stay in memory; a pool
worker appends its spans to ``spans-<pid>.jsonl`` after each trial, and
the CLI process writes its own at exit.  The source under ``src`` is not
changed.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import time

TRACE_ENV = "HYPERBLOCK_BENCH_TRACE"


def _edges(args, kwargs, result):
    return {"edges": result[0].num_edges()}


def _text_in(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _text_out(args, kwargs, result):
    return {"bytes": len(result)}


def _kept(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    kept = args[1] if len(args) > 1 else kwargs["kept"]
    return {"kept": len(kept), "rows": a.shape[0]}


# traced (module, function) -> None, or f(args, kwargs, result) giving the
# counts to record on the call's span
SPANS = {
    ("sampler", "sample_hsbm"): _edges,
    ("fileio", "read_hypergraph"): _text_in,
    ("fileio", "write_hypergraph"): _text_out,
    ("fileio", "write_labels"): _text_out,
    ("spectral", "adjacency"): None,
    ("spectral", "bipartite_embed"): None,
    ("spectral", "regularize"): None,
    ("spectral", "mask_matrix"): _kept,
    ("spectral", "top_subspace"): None,
    ("spectral", "spectral_norm"): None,
    ("pipeline", "spectral_partition_k"): None,
    ("pipeline", "blue_weighted_count"): None,
    ("pipeline", "correction_k"): None,
    ("pipeline", "merging"): None,
    ("pipeline", "spectral_partition_2"): None,
    ("pipeline", "correction_2"): None,
    ("metrics", "accuracy_report"): None,
    ("concentration", "concentration_trial"): None,
}


class _Recorder:
    """Per-process span buffer; starts empty again in a forked child."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = -1

    def _own(self) -> "_Recorder":
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.ids = itertools.count()
            self.stack: list[str] = []
            self.spans: list[dict] = []
        return self

    def start(self, name: str, parent: str | None = None) -> dict:
        rec = self._own()
        if parent is None and rec.stack:
            parent = rec.stack[-1]
        span = {"id": f"{rec.pid}.{next(rec.ids)}", "parent": parent, "name": name,
                "counts": {}, "start": time.perf_counter()}
        rec.stack.append(span["id"])
        return span

    def finish(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        rec = self._own()
        rec.stack.pop()
        rec.spans.append(span)

    def flush(self) -> None:
        rec = self._own()
        if not rec.spans:
            return
        path = os.path.join(rec.out_dir, f"spans-{rec.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
        rec.spans = []


def _wrap(recorder: _Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.start(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result
        finally:
            recorder.finish(span)
    return traced


class _Trial:
    """One ``pmap`` item as a ``runner.trial`` span under its ``pmap`` span.

    Picklable (a module-level class holding a picklable function), so it
    reaches pool workers; a worker writes its spans out after each item
    because pool workers leave through ``os._exit`` and skip ``atexit``.
    """

    def __init__(self, fn, parent: str, owner_pid: int):
        self.fn = fn
        self.parent = parent
        self.owner_pid = owner_pid

    def __call__(self, item):
        span = _RECORDER.start("runner.trial", parent=self.parent)
        try:
            return self.fn(item)
        finally:
            _RECORDER.finish(span)
            if os.getpid() != self.owner_pid:
                _RECORDER.flush()


def _wrap_pmap(recorder: _Recorder, pmap):
    @functools.wraps(pmap)
    def traced(fn, items, jobs=1, *args, **kwargs):
        items = list(items)
        span = recorder.start("runner.pmap")
        span["counts"] = {"trials": len(items), "jobs": int(jobs)}
        try:
            return pmap(_Trial(fn, span["id"], os.getpid()), items, jobs, *args, **kwargs)
        finally:
            recorder.finish(span)
    return traced


def install(out_dir: str) -> None:
    """Wrap the traced functions and rebind every name that refers to one."""
    global _RECORDER
    _RECORDER = _Recorder(out_dir)
    import hyperblock  # noqa: F401  (loads every submodule the CLI uses)

    replace = {}
    for (mod_name, fn_name), count in SPANS.items():
        mod = importlib.import_module(f"hyperblock.{mod_name}")
        fn = getattr(mod, fn_name)
        replace[id(fn)] = (fn, _wrap(_RECORDER, f"{mod_name}.{fn_name}", fn, count))
    runner = importlib.import_module("hyperblock.runner")
    replace[id(runner.pmap)] = (runner.pmap, _wrap_pmap(_RECORDER, runner.pmap))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hyperblock" and not mod_name.startswith("hyperblock."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    atexit.register(_RECORDER.flush)


_RECORDER: _Recorder | None = None
if os.environ.get(TRACE_ENV):
    install(os.environ[TRACE_ENV])
