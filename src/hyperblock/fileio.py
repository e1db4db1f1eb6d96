"""Text serialization: hypergraph files, label files, CSV helpers.

Hypergraph format (line oriented, diff-able):

    HSBM <n> <k> <M>
    LABELS <b_0> ... <b_{n-1}>          (optional)
    <m> <v_1> ... <v_m> [R|B]           (one line per edge, 0-indexed,
                                         vertices strictly ascending)

Label files are ``vertex_id<TAB>block`` lines.  Floats in CSV output are
serialized with repr so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .sampler import BLUE, RED, Hypergraph

__all__ = [
    "write_hypergraph",
    "read_hypergraph",
    "write_labels",
    "read_labels",
]

_COLOR_CHAR = {RED: "R", BLUE: "B"}
_CHAR_COLOR = {"R": RED, "B": BLUE}


def write_hypergraph(h: Hypergraph, k: int, labels: np.ndarray | None = None) -> str:
    """Serialize to the text format; edges ordered by (m, tuple)."""
    m_max = max(h.edges) if h.edges else 2
    lines = [f"HSBM {h.n} {k} {m_max}"]
    if labels is not None:
        lines.append("LABELS " + " ".join(str(int(b)) for b in labels))
    for m in sorted(h.edges):
        arr = h.edges[m]
        colors = h.colors[m] if h.is_colored else None
        for i, row in enumerate(arr):
            cells = [str(m)] + [str(int(v)) for v in row]
            if colors is not None:
                cells.append(_COLOR_CHAR[int(colors[i])])
            lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> tuple[Hypergraph, int, np.ndarray | None]:
    """Parse the text format; returns (hypergraph, k, labels-or-None)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("HSBM "):
        raise ValueError("missing HSBM header line")
    _, n_s, k_s, _m_s = lines[0].split()
    n, k = int(n_s), int(k_s)
    labels = None
    body = lines[1:]
    if body and body[0].startswith("LABELS "):
        labels = np.array([int(tok) for tok in body[0].split()[1:]], dtype=np.int64)
        if len(labels) != n:
            raise ValueError(f"LABELS line has {len(labels)} entries, expected {n}")
        outside = labels[(labels < 0) | (labels >= k)]
        if len(outside):
            raise ValueError(f"LABELS line has value {outside[0]} outside [0, {k})")
        body = body[1:]
    edges: dict[int, list[list[int]]] = {}
    colors: dict[int, list[int]] = {}
    any_color = False
    any_plain = False
    for ln in body:
        toks = ln.split()
        m = int(toks[0])
        if m < 2:
            raise ValueError(f"edge order must be at least 2: {ln!r}")
        rest = toks[1:]
        color = None
        if rest and rest[-1] in _CHAR_COLOR:
            color = _CHAR_COLOR[rest[-1]]
            rest = rest[:-1]
            any_color = True
        else:
            any_plain = True
        if len(rest) != m:
            raise ValueError(f"edge line has {len(rest)} vertices, expected {m}: {ln!r}")
        verts = [int(t) for t in rest]
        if any(v < 0 or v >= n for v in verts):
            raise ValueError(f"vertex id out of range in {ln!r}")
        if any(verts[i] >= verts[i + 1] for i in range(m - 1)):
            raise ValueError(f"vertices must be strictly ascending in {ln!r}")
        edges.setdefault(m, []).append(verts)
        colors.setdefault(m, []).append(RED if color is None else color)
    if any_color and any_plain:
        raise ValueError("edge colors must be given on every line or none")
    earr = {m: np.array(rows, dtype=np.int64).reshape(len(rows), m)
            for m, rows in edges.items()}
    carr = None
    if any_color:
        carr = {m: np.array(colors[m], dtype=np.uint8) for m in earr}
    h = Hypergraph(n, earr, carr)
    h.validate()
    return h, k, labels


def write_labels(labels: np.ndarray) -> str:
    return "".join(f"{i}\t{int(b)}\n" for i, b in enumerate(labels))


def read_labels(text: str) -> np.ndarray:
    pairs = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        v, b = ln.split("\t")
        pairs.append((int(v), int(b)))
    if not pairs:
        return np.empty(0, dtype=np.int64)
    out = np.full(max(v for v, _ in pairs) + 1, -1, dtype=np.int64)
    for v, b in pairs:
        out[v] = b
    return out
