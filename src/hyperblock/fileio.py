"""Text serialization: hypergraph files, label files, CSV helpers.

Hypergraph format (line oriented, diff-able):

    HSBM <n> <k> <M>                    (integers, n >= 1, k >= 1, M >= 2)
    LABELS <b_0> ... <b_{n-1}>          (optional)
    <m> <v_1> ... <v_m> [R|B]           (one line per edge, 0-indexed,
                                         vertices strictly ascending,
                                         2 <= m <= M)

Edge lines may come in any order; the reader puts each order's rows in
canonical (lexicographic) order, so a file's line order never changes
the hypergraph it describes.  The writer emits that order.

Label files are ``vertex_id<TAB>block`` lines, one per vertex id from 0
to n-1 in any order, with blocks >= -1 (unassigned).  Floats in CSV
output are serialized with repr so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .sampler import BLUE, RED, UNASSIGNED, Hypergraph, _row_order

__all__ = [
    "write_hypergraph",
    "read_hypergraph",
    "write_labels",
    "read_labels",
]

_COLOR_CHAR = {RED: "R", BLUE: "B"}
_BLOCK = 1 << 14  # edge lines tokenized at a time


def write_hypergraph(h: Hypergraph, k: int, labels: np.ndarray | None = None) -> str:
    """Serialize to the text format; edges ordered by (m, tuple)."""
    m_max = max(h.edges) if h.edges else 2
    parts = [f"HSBM {h.n} {k} {m_max}\n"]
    if labels is not None:
        ids = np.asarray(labels).astype(np.int64).tolist()
        parts.append("LABELS " + " ".join(map(str, ids)) + "\n")
    # each cell carries the separator that follows it, so one join writes an order
    top = max((int(arr.max()) + 1 for arr in h.edges.values() if len(arr)), default=0)
    spaced = np.array([f"{v} " for v in range(top)], dtype=object)
    ended = np.array([f"{v}\n" for v in range(top)], dtype=object)
    color_ended = np.array([f"{_COLOR_CHAR[c]}\n" for c in (RED, BLUE)], dtype=object)
    for m in sorted(h.edges):
        arr = h.edges[m]
        cells = np.empty((len(arr), m + 1 + h.is_colored), dtype=object)
        cells[:, 0] = f"{m} "
        cells[:, 1:m + 1] = spaced[arr]
        if h.is_colored:
            cells[:, -1] = color_ended[h.colors[m]]
        else:
            cells[:, -1] = ended[arr[:, -1]]
        parts.append("".join(cells.ravel().tolist()))
    return "".join(parts)


def _ints(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 value of each str in an object array, and whether ``int`` accepts it.

    Rejected tokens read as 0.  Values beyond int64 are clipped to
    +-2**62, which keeps them outside every id range and vertex count.
    """
    try:
        # numpy converts each str through int(), so it accepts what int() does
        return tokens.astype(np.int64), np.ones(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(tokens), dtype=np.int64)
    ok = np.zeros(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        try:
            values[i] = max(-2**62, min(2**62, int(tok)))
            ok[i] = True
        except ValueError:
            pass
    return values, ok


def _tokenize(lines: list[str]) -> tuple[np.ndarray, ...]:
    """Token counts, colors and numeric tokens of a block of edge lines.

    Per line: its token count, and its color (-1 unless the last of two or
    more tokens is R or B).  Per remaining token: its value and whether
    ``int`` accepts it, as ``_ints`` gives them.
    """
    width = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    tokens = np.array(" ".join(lines).split(), dtype=object)
    last = np.cumsum(width) - 1
    color = np.select([tokens[last] == _COLOR_CHAR[c] for c in (RED, BLUE)], [RED, BLUE], -1)
    color[width < 2] = -1
    numeric = np.ones(len(tokens), dtype=bool)
    numeric[last[color >= 0]] = False
    return (width, color) + _ints(tokens[numeric])


def _parse_header(line: str) -> tuple[int, int, int]:
    """n, k and M of the ``HSBM <n> <k> <M>`` header line.

    Requires three integers with n >= 1, k >= 1 and M >= 2; a failing
    header raises ValueError naming the line.
    """
    if not line.startswith("HSBM "):
        raise ValueError("missing HSBM header line")
    toks = line.split()[1:]
    try:
        n, k, m_max = map(int, toks)
    except ValueError:
        raise ValueError(f"header must be 'HSBM <n> <k> <M>' with integer n, k, M: "
                         f"{line!r}") from None
    if n < 1 or k < 1 or m_max < 2:
        raise ValueError(f"header needs n >= 1, k >= 1 and M >= 2: {line!r}")
    return n, k, m_max


def _parse_edges(body: list[str], n: int, m_max: int) -> tuple[dict, dict | None]:
    """Per-order edge arrays (rows sorted) and colors (or None) of the edge lines.

    Every line is checked for an integer order, order >= 2, the vertex
    count, integer ids, ids in [0, n), strict ascent and order <= m_max,
    in that order.  The first failing line in file order raises its first
    failing check.
    """
    if not body:
        return {}, None
    # blocks of lines bound the str objects alive at once, and with them the
    # heap the process keeps after parsing
    width, color, values, ok = (np.concatenate(part) for part in zip(*(
        _tokenize(body[lo:lo + _BLOCK]) for lo in range(0, len(body), _BLOCK))))
    colored = color >= 0

    count = width - colored  # numeric tokens per line: the order, then the ids
    first = np.cumsum(count) - count
    m = values[first]
    is_id = np.ones(len(values), dtype=bool)
    is_id[first] = False
    outside = ok & is_id & ((values < 0) | (values >= n))
    descent = np.zeros(len(values), dtype=bool)
    descent[1:] = is_id[1:] & is_id[:-1] & (values[1:] <= values[:-1])

    def per_line(mask):
        return np.logical_or.reduceat(mask, first)

    # (failing lines, message) in the order each line is checked; a None
    # message stands for int()'s own error on the line's first rejected token
    checks = [
        (~ok[first], None),
        (m < 2, "edge order must be at least 2: {ln!r}"),
        (count - 1 != m, "edge line has {ids} vertices, expected {m}: {ln!r}"),
        (per_line(~ok & is_id), None),
        (per_line(outside), "vertex id out of range in {ln!r}"),
        (per_line(descent), "vertices must be strictly ascending in {ln!r}"),
        (m > m_max, "edge order {m} above the header's M = {top}: {ln!r}"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(msg for mask, msg in checks if mask[i])
        toks = body[i].split()[:count[i]]  # the numeric ones: order, then ids
        if message is None:
            lo = int(first[i])
            int(toks[int(np.argmin(ok[lo:lo + len(toks)]))])  # raises
        raise ValueError(message.format(ln=body[i], ids=len(toks) - 1, m=int(toks[0]),
                                        top=m_max))
    if colored.any() and not colored.all():
        raise ValueError("edge colors must be given on every line or none")

    orders, first_line = np.unique(m, return_index=True)
    edges, colors = {}, {}
    for order in orders[np.argsort(first_line)].tolist():
        lines = np.flatnonzero(m == order)
        rows = values[first[lines, None] + np.arange(1, order + 1)]
        perm = _row_order(rows)
        edges[order] = rows[perm]
        colors[order] = color[lines[perm]].astype(np.uint8)
    return edges, (colors if colored.any() else None)


def read_hypergraph(text: str) -> tuple[Hypergraph, int, np.ndarray | None]:
    """Parse the text format; returns (hypergraph, k, labels-or-None).

    Malformed input raises ValueError naming the first bad line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, k, m_max = _parse_header(lines[0] if lines else "")
    labels = None
    body = lines[1:]
    if body and body[0].startswith("LABELS "):
        toks = body[0].split()[1:]
        labels, ok = _ints(np.array(toks, dtype=object))
        if not ok.all():
            int(toks[int(np.argmin(ok))])  # raises int()'s own error
        if len(labels) != n:
            raise ValueError(f"LABELS line has {len(labels)} entries, expected {n}")
        outside = np.flatnonzero((labels < 0) | (labels >= k))
        if len(outside):
            value = int(toks[outside[0]])  # as written, even beyond int64
            raise ValueError(f"LABELS line has value {value} outside [0, {k})")
        body = body[1:]
    h = Hypergraph(n, *_parse_edges(body, n, m_max))
    h.validate()
    return h, k, labels


def write_labels(labels: np.ndarray) -> str:
    return "".join(f"{i}\t{int(b)}\n" for i, b in enumerate(labels))


def read_labels(text: str) -> np.ndarray:
    """Blocks indexed by vertex id, from ``vertex_id<TAB>block`` lines.

    Blank lines are skipped; the others may come in any order.  Their ids
    must be 0 .. N-1, each once, for N such lines, and every block must
    lie in [-1, 2**63), -1 meaning unassigned.  A failing line raises
    ValueError naming its line number.
    """
    rows = [(num, ln) for num, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    out = np.empty(len(rows), dtype=np.int64)
    first_line = {}
    for num, ln in rows:
        try:
            v, b = map(int, ln.split("\t"))
        except ValueError:
            raise ValueError(f"line {num}: expected 'vertex_id<TAB>block' integers, "
                             f"got {ln!r}") from None
        if v < 0:
            raise ValueError(f"line {num}: negative vertex id {v}")
        if v >= len(rows):
            raise ValueError(f"line {num}: vertex id {v} leaves a gap; {len(rows)} "
                             f"lines must give ids 0..{len(rows) - 1}")
        if v in first_line:
            raise ValueError(f"line {num}: vertex id {v} repeats line {first_line[v]}")
        if not UNASSIGNED <= b < 2**63:
            raise ValueError(f"line {num}: block {b} outside [{UNASSIGNED}, 2**63)")
        first_line[v] = num
        out[v] = b
    return out
