"""Checkers the tests use as oracles; the package itself never calls them."""

import numpy as np

from hyperblock.sampler import BLUE, RED, _has_repeats, _sort_rows


def validate(h) -> None:
    """Check a hypergraph's tuple ordering, id range, per-order uniqueness and colors.

    The sampler's rows are valid by construction and the reader checks its
    own rows, so this is the independent check of both.
    """
    for m, arr in h.edges.items():
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"order {m}: edge array must be (*, {m})")
        if len(arr):
            if arr.min() < 0 or arr.max() >= h.n:
                raise ValueError(f"order {m}: vertex id out of range")
            if not (np.diff(arr, axis=1) > 0).all():
                raise ValueError(f"order {m}: tuples must be strictly ascending")
            if _has_repeats(_sort_rows(arr)):
                raise ValueError(f"order {m}: duplicate edge tuples")
        if h.colors is not None:
            if m not in h.colors or len(h.colors[m]) != len(arr):
                raise ValueError(f"order {m}: colors out of sync with edges")
            if not np.isin(h.colors[m], (RED, BLUE)).all():
                raise ValueError(f"order {m}: colors must be RED ({RED}) or BLUE ({BLUE})")
