"""Command-line interface.

Commands: ``snr | sample | detect | experiment | conclab``, each driven by
a flat key=value config file (see ``hyperblock.config``).  Shared flags:
``--config <path>``, ``--seed <u64>`` (overrides the config seed),
``--jobs <int >= 1>``, ``--out <path>`` (stdout by default, and
``experiment.csv`` for ``experiment``; ``-`` is stdout).  Set
``HYPERBLOCK_LOG`` to a level name (debug, info, ...) for diagnostics on
stderr.

Exit codes: 0 success, 2 invalid argument, 3 I/O failure, 4 partition
failure.

Each command imports what it runs.  Importing this module loads
``model``, ``sampler`` and ``config``, which need numpy alone:

- ``snr`` needs nothing more; ``sample`` adds ``fileio``.
- ``detect`` adds ``fileio`` and ``pipeline``, and ``metrics`` (with
  scipy's csgraph) only when there is a truth to score.
- ``experiment`` adds ``runner``, which loads ``pipeline`` and
  ``metrics``; ``conclab`` adds ``runner`` and ``concentration``, and
  neither ``pipeline`` nor ``metrics``.
- Only ``--jobs`` above 1 loads the process pool.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import model, sampler
from .config import ExperimentConfig, parse_config
from .model import ConvergenceError, PartitionFailure

EXIT_INVALID = 2
EXIT_IO = 3
EXIT_PARTITION = 4

log = logging.getLogger("hyperblock")


def _setup_logging() -> None:
    level_name = os.environ.get("HYPERBLOCK_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str, command: str, seed_override: int | None) -> ExperimentConfig:
    # utf-8-sig drops the byte-order mark some editors save before line 1
    with open(path, "r", encoding="utf-8-sig") as fh:
        cfg = parse_config(fh.read(), command)
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_snr(cfg: ExperimentConfig, args) -> int:
    """Print the signal-to-noise ratio of every order subset, marking the argmax."""
    params = cfg.params
    best = model.preprocess_select(params)
    lines = ["subset\tsnr\tselected"]
    for combo in model.order_subsets(params):
        mark = "*" if combo == best else ""
        lines.append("{%s}\t%s\t%s" % (",".join(map(str, combo)),
                                       repr(model.snr_subset(params, combo)), mark))
    const = model.error_rate_constant(best, cfg.nu, params.k)
    lines.append(f"# error-rate constant at nu={repr(cfg.nu)}: {repr(const)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sample(cfg: ExperimentConfig, args) -> int:
    """Sample one instance and write it in the hypergraph text format."""
    from . import fileio

    params = cfg.params
    h, labels = sampler.sample_hsbm(params, cfg.seed)
    if cfg.colors:
        h = sampler.color_edges(h, sampler.trial_seed(cfg.seed, 1))
    text = fileio.write_hypergraph(h, params.k, labels if cfg.labels else None)
    _emit(text, args.out)
    return 0


def _instance(cfg: ExperimentConfig) -> list:
    """The instance to partition and its true labels, as the list ``[h, truth]``.

    ``h`` is read from ``input`` or sampled inline; ``truth`` is None when
    the file has no labels.  A file whose n or k differs from the config's,
    or that has edges of an order the config gives no rates for, raises
    ValueError.  A list, so that the caller can hand ``h`` over
    with ``pop``.
    """
    params = cfg.params
    if cfg.input is None:
        return list(sampler.sample_hsbm(params, sampler.trial_seed(cfg.seed, 0)))
    from . import fileio

    with open(cfg.input, "rb") as fh:
        h, file_k, truth = fileio.read_hypergraph(fh.read())
    if h.n != params.n or file_k != params.k:
        raise ValueError(
            f"config says n={params.n} k={params.k}, file says n={h.n} k={file_k}")
    unrated = [f"order {m} ({len(rows)} edges)" for m, rows in sorted(h.edges.items())
               if len(rows) and m not in params.orders]
    if unrated:
        raise ValueError("the config gives no rates for edges in the file: " + ", ".join(unrated))
    return [h, truth]


def cmd_detect(cfg: ExperimentConfig, args) -> int:
    """Partition an instance (from file or sampled inline) and write labels."""
    from . import fileio, pipeline

    params = cfg.params
    instance = _instance(cfg)
    truth = instance.pop()
    pcfg = pipeline.PipelineConfig(nu=cfg.nu, seed=sampler.trial_seed(cfg.seed, 1))
    # partition gets the only reference to the instance, so the edges it
    # drops once they are split into red and blue halves are freed
    labels = pipeline.partition(params, instance.pop(), pcfg)
    _emit(fileio.write_labels(labels), args.out)
    if truth is not None:
        from . import metrics

        report = metrics.accuracy_report(truth, labels)
        sys.stdout.write("gamma,matched_accuracy,misclassified_fraction\n")
        sys.stdout.write(",".join([
            repr(report.gamma), repr(report.matched_accuracy),
            repr(report.misclassified / params.n),
        ]) + "\n")
    return 0


def cmd_experiment(cfg: ExperimentConfig, args) -> int:
    """Run the rate-gap ladder and write trial and summary tables."""
    from . import runner

    rows, summary = runner.experiment_rows(cfg, jobs=args.jobs)
    out = args.out or _OUT_DEFAULT["experiment"]
    _emit("\n".join([runner.EXPERIMENT_HEADER] + rows) + "\n", out)
    summary_path = None if out in (None, "-") else out + ".summary"
    _emit("\n".join(summary) + "\n", summary_path)
    return 0


def cmd_conclab(cfg: ExperimentConfig, args) -> int:
    """Run concentration trials and write one CSV row per trial."""
    from . import concentration, runner

    records = runner.conclab_records(cfg, jobs=args.jobs)
    _emit(concentration.records_to_csv(records), args.out)
    return 0


# --out when it is not given, for the commands that do not write to stdout
_OUT_DEFAULT = {"experiment": "experiment.csv"}

_COMMANDS = {
    "snr": cmd_snr,
    "sample": cmd_sample,
    "detect": cmd_detect,
    "experiment": cmd_experiment,
    "conclab": cmd_conclab,
}


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _jobs(text: str) -> int:
    """``--jobs`` value: an integer of at least 1."""
    jobs = _int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _seed(text: str) -> int:
    """``--seed`` value: an integer in [0, 2**64), as the config's seed key."""
    seed = _int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(
            f"must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperblock",
        description="Community detection on sparse non-uniform hypergraph block models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        p.add_argument("--jobs", type=_jobs, default=1, help="worker processes for trials")
        p.add_argument("--out", default=None, help="output path, - for stdout (default %s)"
                       % _OUT_DEFAULT.get(name, "stdout"))
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command, args.seed)
        return _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PartitionFailure as exc:
        print(f"partition failure: {exc}", file=sys.stderr)
        for key, val in exc.diagnostics.items():
            print(f"  {key} = {val}", file=sys.stderr)
        return EXIT_PARTITION
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_PARTITION


if __name__ == "__main__":
    sys.exit(main())
