"""Trial orchestration: per-trial seeds and optional process pools.

Each trial derives its own seed from (base seed, structured indices)
through ``sampler.trial_seed``, so results are identical however many
workers execute them; rows are always collected in submission order.

Importing this module loads numpy alone.  Each sweep imports the modules
its trials run before ``pmap`` starts a pool, so forked workers inherit
them: ``conclab_records`` loads ``concentration`` (and with it the
spectral solvers), ``experiment_rows`` loads ``pipeline``, ``metrics``
and ``statistics``.  ``pmap`` loads the process pool only for
``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import model, sampler
from .config import ExperimentConfig

if TYPE_CHECKING:
    from .concentration import ConcentrationRecord
    from .metrics import AccuracyReport

__all__ = [
    "pmap",
    "DetectTrial",
    "run_detect_trial",
    "experiment_rows",
    "conclab_records",
    "EXPERIMENT_HEADER",
]

EXPERIMENT_HEADER = "rung,gap,snr,trial,seed,gamma,matched_accuracy,misclassified_fraction"


def pmap(fn, items, jobs: int = 1) -> list:
    """Map preserving order, optionally across processes.

    The pool gets at most one worker per item: under the fork start
    method it starts every worker at the first submit.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class DetectTrial:
    """One sampled-and-partitioned instance specification."""

    params: model.ModelParams
    nu: float
    instance_seed: int
    pipeline_seed: int


def run_detect_trial(spec: DetectTrial) -> AccuracyReport:
    """Sample an instance, run the matching pipeline, and score it."""
    from . import metrics, pipeline

    instance = list(sampler.sample_hsbm(spec.params, spec.instance_seed))
    truth = instance.pop()
    cfg = pipeline.PipelineConfig(nu=spec.nu, seed=spec.pipeline_seed)
    # partition gets the only reference to the instance, so the edges it
    # drops once they are split into red and blue halves are freed
    labels = pipeline.partition(spec.params, instance.pop(), cfg)
    return metrics.accuracy_report(truth, labels)


def experiment_rows(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[str], list[str]]:
    """Run the rate-gap ladder; returns (per-trial CSV rows, summary rows).

    The summary holds one ``snr<TAB>median misclassified fraction`` line
    per rung, sorted by ascending signal-to-noise ratio.
    """
    import statistics

    # imported before pmap starts the pool, so forked workers inherit them
    from . import metrics, pipeline

    specs = []
    meta = []
    for rung, (gap, params) in enumerate(zip(cfg.ladder, cfg.rung_params)):
        subset = model.preprocess_select(params)
        snr = model.snr_subset(params, subset)
        for t in range(cfg.trials):
            specs.append(DetectTrial(params, cfg.nu,
                                     sampler.trial_seed(cfg.seed, rung, t, 0),
                                     sampler.trial_seed(cfg.seed, rung, t, 1)))
            meta.append((rung, gap, snr, t))
    reports = pmap(run_detect_trial, specs, jobs)

    rows = []
    by_rung: dict[int, tuple[float, list[float]]] = {}
    for (rung, gap, snr, t), spec, rep in zip(meta, specs, reports):
        frac = rep.misclassified / cfg.n
        rows.append(",".join([
            str(rung), repr(gap), repr(snr), str(t), str(spec.instance_seed),
            repr(rep.gamma), repr(rep.matched_accuracy), repr(frac),
        ]))
        by_rung.setdefault(rung, (snr, []))[1].append(frac)
    summary = sorted((snr, statistics.median(fr)) for snr, fr in by_rung.values())
    summary_rows = [f"{repr(snr)}\t{repr(med)}" for snr, med in summary]
    return rows, summary_rows


def _conclab_trial(args) -> ConcentrationRecord:
    from . import concentration

    params, seed, tau = args
    return concentration.concentration_trial(params, seed, tau)


def conclab_records(cfg: ExperimentConfig, jobs: int = 1) -> list[ConcentrationRecord]:
    """Concentration sweep over the configured sizes x trial seeds."""
    # imported before pmap starts the pool, so forked workers inherit it
    from . import concentration

    tau = cfg.resolved_tau()
    tasks = []
    for gi, params in enumerate(cfg.size_params or (cfg.params,)):
        for t in range(cfg.trials):
            tasks.append((params, sampler.trial_seed(cfg.seed, gi, t), tau))
    return pmap(_conclab_trial, tasks, jobs)
