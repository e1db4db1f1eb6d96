"""Flat key=value experiment configuration.

Syntax: one ``key = value`` per line, ``#`` starts a comment.  Unknown
keys are rejected.  The ``orders`` value lists per-order rate pairs as
``m:a,b`` separated by semicolons, e.g. ``orders = 2:80,2;3:40,2``.

Keys by command:

    common      n, k, orders, nu, seed
    snr         nothing extra
    sample      labels, colors
    detect      input (path; sample inline when absent)
    experiment  ladder (e.g. 10,20,40,80), base_b, ladder_order, trials
    conclab     sizes (e.g. 500,1000), tau, trials

n, k and orders are required, and so is ladder for experiment.  An
absent key takes the default declared on ``ExperimentConfig``; an absent
tau resolves to 20 * max order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import REGULARIZATION_FACTOR, ModelParams, _check_nu

__all__ = ["ExperimentConfig", "parse_config", "CONFIG_KEYS"]

_COMMON = {"n", "k", "orders", "nu", "seed"}

CONFIG_KEYS = {
    "snr": _COMMON,
    "sample": _COMMON | {"labels", "colors"},
    "detect": _COMMON | {"input"},
    "experiment": _COMMON | {"ladder", "base_b", "ladder_order", "trials"},
    "conclab": _COMMON | {"sizes", "tau", "trials"},
}


@dataclass
class ExperimentConfig:
    """Validated configuration for one CLI command."""

    command: str
    n: int
    k: int
    orders: dict[int, tuple[float, float]]
    nu: float = 0.75
    seed: int = 0
    labels: bool = True
    colors: bool = False
    input: str | None = None
    ladder: tuple[float, ...] = ()
    base_b: float = 0.0
    ladder_order: int = 2
    trials: int = 1
    sizes: tuple[int, ...] = ()
    tau: float | None = None

    # the models parse_config builds, each distinct one once: the config's
    # own, one per sizes entry and one per ladder rung
    params: ModelParams | None = None
    size_params: tuple[ModelParams, ...] = ()
    rung_params: tuple[ModelParams, ...] = ()

    def resolved_tau(self) -> float:
        if self.tau is not None:
            return self.tau
        return float(REGULARIZATION_FACTOR * max(self.orders))


def _parse_orders(value: str) -> dict[int, tuple[float, float]]:
    orders = {}
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        m_s, colon, rates = part.partition(":")
        a_s, comma, b_s = rates.partition(",")
        if not (colon and comma) or ":" in rates or "," in m_s + b_s:
            raise ValueError(f"entry {part!r} is not of the form m:a,b")
        m = int(m_s)
        if m in orders:
            raise ValueError(f"duplicate order {m} in orders")
        orders[m] = (float(a_s), float(b_s))
    if not orders:
        raise ValueError("orders must list at least one m:a,b entry")
    return orders


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _comma_list(conv):
    """Parser of a nonempty comma-separated list of conv values."""
    def parse(value: str) -> tuple:
        items = [t.strip() for t in value.split(",")]
        if "" in items:
            raise ValueError("expected a comma-separated list with no empty entries")
        return tuple(conv(t) for t in items)
    return parse


# value parser per key; the defaults of absent keys live on ExperimentConfig
_CONVERT = {
    "n": int,
    "k": int,
    "orders": _parse_orders,
    "nu": float,
    "seed": int,
    "labels": _parse_bool,
    "colors": _parse_bool,
    "input": str,
    "ladder": _comma_list(float),
    "base_b": float,
    "ladder_order": int,
    "trials": int,
    "sizes": _comma_list(int),
    "tau": float,
}


def parse_config(text: str, command: str) -> ExperimentConfig:
    """Parse and validate the config text for the given command."""
    if command not in CONFIG_KEYS:
        raise ValueError(f"unknown command {command!r}")
    allowed = CONFIG_KEYS[command]
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in allowed:
            raise ValueError(f"line {lineno}: unknown key {key!r} for command {command}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    for req in ("n", "k", "orders"):
        if req not in values:
            raise ValueError(f"missing required key {req!r}")

    def get(key):
        try:
            return _CONVERT[key](values[key])
        except ValueError as exc:
            raise ValueError(f"{key} = {values[key]!r}: {exc}") from None

    cfg = ExperimentConfig(command=command, **{key: get(key) for key in values})
    _check_nu(cfg.nu)
    if cfg.seed < 0 or cfg.seed >= 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if cfg.tau is not None and not cfg.tau >= 0:  # also rejects nan
        raise ValueError(f"tau must be a nonnegative number, got {cfg.tau}")
    if command == "experiment" and not cfg.ladder:
        raise ValueError("experiment needs a ladder of rate gaps")
    # build each distinct model once, which validates it and logs its clamps once
    built: dict = {}

    def build(n: int, orders: dict, where: str) -> ModelParams:
        key = (n, tuple(sorted(orders.items())))
        if key not in built:
            try:
                built[key] = ModelParams(n, cfg.k, dict(orders))
            except ValueError as exc:
                raise ValueError(f"{where}{exc}") from None
        return built[key]

    cfg.params = build(cfg.n, cfg.orders, "")
    cfg.size_params = tuple(build(n, cfg.orders, f"sizes entry {n}: ") for n in cfg.sizes)
    cfg.rung_params = tuple(
        build(cfg.n, {**cfg.orders, cfg.ladder_order: (cfg.base_b + gap, cfg.base_b)},
              f"ladder entry {gap}: ")
        for gap in cfg.ladder)
    return cfg
