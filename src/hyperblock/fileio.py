"""Text serialization: hypergraph files, label files, CSV helpers.

Hypergraph format (line oriented, diff-able):

    HSBM <n> <k> <M>                    (integers, n >= 1, k >= 1, M >= 2)
    LABELS <b_0> ... <b_{n-1}>          (optional)
    <m> <v_1> ... <v_m> [R|B]           (one line per edge, 0-indexed,
                                         vertices strictly ascending,
                                         2 <= m <= M)

Edge lines may come in any order; the reader puts each order's rows in
canonical (lexicographic) order, so a file's line order never changes
the hypergraph it describes.  The writer emits the orders ascending and
each order's rows as its array holds them, which is that order for the
sampler's and the reader's arrays.  The reader's
edge arrays are int32 when the header's n < 2**31 and int64 otherwise,
the rule ``sample_hsbm`` follows too.

The reader takes str or UTF-8 bytes and tokenizes the bytes.  Lines end
at the ASCII line breaks of str.splitlines (LF, CR, VT, FF and \x1c-\x1e,
so a CRLF pair leaves a blank line), tokens are separated by the rest of
the ASCII whitespace of str.split (space, tab and \x1f), and blank lines
are skipped.  The header is the first line, and the LABELS line the next
one when it starts with "LABELS ".  An edge line's last token is its
color when the line has two or more tokens and that token is R or B;
every other token is a number, as int() reads it.  A run of at most 18
ASCII digits is read with array operations, and only other tokens are
decoded.  Non-ASCII whitespace separates nothing: it is part of the
token it touches, so a line that splits tokens with it is malformed.

Label files are ``vertex_id<TAB>block`` lines, one per vertex id from 0
to n-1 in any order, with blocks >= -1 (unassigned).  Floats in CSV
output are serialized with repr so reruns are byte-identical.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .sampler import BLUE, RED, UNASSIGNED, Hypergraph, _has_repeats, _id_dtype, _row_order

__all__ = [
    "write_hypergraph",
    "read_hypergraph",
    "write_labels",
    "read_labels",
]

_COLOR_CHAR = {RED: "R", BLUE: "B"}
_SCAN_BYTES = 1 << 18  # edge-line bytes scanned, checked and parsed at a time
_LABEL_LINES = 1 << 10  # label lines joined at a time
_EDGE_LINES = 1 << 15  # edge lines joined at a time
_MAX_DIGITS = 18  # every run of up to 18 digits fits int64
_LINE_BREAKS = b"\n\r\v\f\x1c\x1d\x1e"  # the ASCII line breaks of str.splitlines
_SEPARATORS = b" \t\x1f"  # the rest of the ASCII whitespace of str.split
_LINE_BREAK = re.compile(b"[%s]" % re.escape(_LINE_BREAKS))
_TOKEN = re.compile("[^%s]+" % re.escape(_SEPARATORS.decode()))  # of a decoded line

# byte classes of _scan_block; digit, letter and other bytes make up tokens
_SEPARATOR, _BREAK, _DIGIT, _LETTER, _OTHER = range(5)
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[list(_SEPARATORS)] = _SEPARATOR
_BYTE_KIND[list(_LINE_BREAKS)] = _BREAK
_BYTE_KIND[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_KIND[[ord(c) for c in _COLOR_CHAR.values()]] = _LETTER


def _integer_labels(labels) -> np.ndarray:
    """Labels as an array, refused with ValueError unless its dtype is integer.

    A cast would write float labels truncated and bools as 0/1.
    """
    ids = np.asarray(labels)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {ids.dtype}")
    return ids


def _check_edges(h: Hypergraph) -> None:
    """Raise ValueError for an order whose edges would not be read back as they are.

    Each order with edges is checked for an (E, m) array with m >= 2, ids
    in [0, n) by their min and max, strictly ascending rows a column pair
    at a time, and distinct rows once sorted; in a colored hypergraph, for
    one RED or BLUE color per edge, which the writer would otherwise
    broadcast or fail on.
    """
    for m, arr in sorted(h.edges.items()):
        if not len(arr):
            continue
        if m < 2 or arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"order {m}: edge array of shape {arr.shape}; an order m >= 2 "
                             f"needs shape (E, m)")
        if arr.min() < 0 or arr.max() >= h.n:
            raise ValueError(f"order {m}: vertex id out of range [0, {h.n})")
        if any((arr[:, p] >= arr[:, p + 1]).any() for p in range(m - 1)):
            raise ValueError(f"order {m}: vertices must be strictly ascending in every edge")
        perm = _row_order(arr)
        if _has_repeats(arr if perm is None else arr[perm]):
            raise ValueError(f"order {m}: duplicate edge tuples")
        if h.is_colored and (np.shape(h.colors.get(m)) != (len(arr),)
                             or not np.isin(h.colors[m], (RED, BLUE)).all()):
            raise ValueError(f"order {m}: a colored hypergraph needs one RED or BLUE per edge")


def write_hypergraph(h: Hypergraph, k: int, labels: np.ndarray | None = None) -> str:
    """Serialize to the text format: orders ascending, each order's rows as given.

    Each order's lines are joined a block at a time, so only one block's
    cells live next to the text: the peak stays below three times the text.
    What ``read_hypergraph`` would reject raises ValueError first: a
    header whose n or k is not an integer of at least 1, labels that are
    not n integers in [0, k), and edges that ``_check_edges`` refuses.
    """
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (h.n, k)):
        raise ValueError(f"the header needs integers n and k, got n = {h.n!r}, k = {k!r}")
    if h.n < 1 or k < 1:
        raise ValueError(f"the header needs n >= 1 and k >= 1, got n = {h.n}, k = {k}")
    _check_edges(h)
    parts = [f"HSBM {h.n} {k} {max(h.edges, default=2)}\n"]
    if labels is not None:
        ids = _integer_labels(labels).astype(np.int64)
        if ids.shape != (h.n,):
            raise ValueError(f"labels have shape {ids.shape}, expected ({h.n},)")
        outside = ids[(ids < 0) | (ids >= k)]
        if len(outside):
            raise ValueError(f"label {outside[0]} outside [0, {k})")
        parts.append("LABELS " + " ".join(map(str, ids.tolist())) + "\n")
    # each cell carries the separator that follows it, so one join writes a block
    edges = h.edges
    values = range(max((int(arr.max()) + 1 for arr in edges.values() if len(arr)), default=0))
    if len(values) > sum(arr.size for arr in edges.values()):
        # fewer ids written than the largest id: strings for those, indexed by rank
        values = np.unique(np.concatenate([arr.ravel() for arr in edges.values()]))
        edges = {m: np.searchsorted(values, arr) for m, arr in edges.items()}
    spaced = np.array([f"{v} " for v in values], dtype=object)
    ended = np.array([f"{v}\n" for v in values], dtype=object)
    color_ended = np.array([f"{_COLOR_CHAR[c]}\n" for c in (RED, BLUE)], dtype=object)
    for m, arr in sorted(edges.items()):
        for lo in range(0, len(arr), _EDGE_LINES):
            rows = arr[lo:lo + _EDGE_LINES]
            cells = np.empty((len(rows), m + 1 + h.is_colored), dtype=object)
            cells[:, 0] = f"{m} "
            cells[:, 1:m + 1] = spaced[rows]
            cells[:, -1] = (color_ended[h.colors[m][lo:lo + _EDGE_LINES]] if h.is_colored
                            else ended[rows[:, -1]])
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


def _digit_values(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Values of the tokens of ``buf`` at ``start``, each a run of at most _MAX_DIGITS digits.

    int32 when every token has at most 9 digits, else int64.
    """
    digit = buf - np.uint8(ord("0"))
    values = np.empty(len(start), dtype=np.int32 if length.max(initial=0) <= 9 else np.int64)
    for size in np.flatnonzero(np.bincount(length)).tolist():
        at = np.flatnonzero(length == size)
        first = start[at]
        value = digit[first].astype(values.dtype)
        for offset in range(1, size):
            value *= 10
            value += digit[first + offset]
        values[at] = value
    return values


def _scan_block(buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """Token counts, colors, numeric token values and their ``ok`` of the lines in a uint8 buffer.

    The buffer holds whole lines.  Per line with tokens: its token count,
    and its color as int8 (-1 unless the last of two or more tokens is R
    or B).  Per remaining token: its value and whether ``int`` accepts it,
    as ``_ints`` gives them.  A run of at most _MAX_DIGITS ASCII digits is
    read with array operations; only the other, odd, tokens are decoded.
    """
    kind = np.take(_BYTE_KIND, buf)
    is_token = np.zeros(len(buf) + 2, dtype=bool)
    is_token[1:-1] = kind >= _DIGIT
    start = np.flatnonzero(is_token[1:-1] > is_token[:-2])
    length = np.flatnonzero(is_token[1:-1] > is_token[2:]) + 1 - start
    # a line's first token is the first one after a line break, or the first of all
    head = np.zeros(len(start) + 1, dtype=bool)
    head[np.searchsorted(start, np.flatnonzero(kind == _BREAK))] = True
    head[0] = True
    head = np.flatnonzero(head[:-1])
    width = np.diff(head, append=len(start))
    tail = head + width - 1
    letter = (kind[start] == _LETTER) & (length == 1)
    colored = letter[tail] & (width >= 2)
    color = np.where(colored, np.where(buf[start[tail]] == ord("R"), RED, BLUE), -1)
    numeric = np.ones(len(start), dtype=bool)
    numeric[tail[colored]] = False
    start, length = start[numeric], length[numeric]
    odd = length > _MAX_DIGITS
    if np.count_nonzero(kind >= _LETTER) > np.count_nonzero(colored):
        # some token other than a color holds a byte other than a digit
        inside = np.concatenate(([0], np.cumsum(kind >= _LETTER)))
        odd |= inside[start + length] > inside[start]
    ok = np.ones(len(start), dtype=bool)
    if not odd.any():
        return width, color.astype(np.int8), _digit_values(buf, start, length), ok
    values = np.zeros(len(start), dtype=np.int64)
    values[~odd] = _digit_values(buf, start[~odd], length[~odd])
    raw = buf.tobytes()
    # odd tokens hold no space, so one decode and split gives them back
    text = _text(b" ".join(raw[lo:lo + size] for lo, size in
                           zip(start[odd].tolist(), length[odd].tolist())))
    values[odd], ok[odd] = _ints(np.array(text.split(" "), dtype=object))
    return width, color.astype(np.int8), values, ok


def _scan_blocks(data: bytes, lo: int):
    """The ``(lo, hi)`` bounds of blocks of whole lines of about _SCAN_BYTES in ``data[lo:]``.

    The blocks bound the reader's temporaries.
    """
    while len(data) - lo > _SCAN_BYTES:
        # after the block's last \n (or \r, in a file of CR line ends), or
        # after the long line it is in
        hi = (data.rfind(b"\n", lo, lo + _SCAN_BYTES) + 1
              or data.rfind(b"\r", lo, lo + _SCAN_BYTES) + 1
              or data.find(b"\n", lo + _SCAN_BYTES) + 1 or len(data))
        yield lo, hi
        lo = hi
    yield lo, len(data)


def _text(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogatepass")


def _next_line(data: bytes, lo: int) -> tuple[str, int]:
    """The first non-blank line at or after offset lo, and the offset after it.

    ("", len(data)) when there is none.
    """
    while lo < len(data):
        brk = _LINE_BREAK.search(data, lo)
        hi = brk.start() if brk else len(data)
        if data[lo:hi].strip(_SEPARATORS):
            return _text(data[lo:hi]), min(hi + 1, len(data))
        lo = hi + 1
    return "", len(data)


def _parse_header(line: str) -> tuple[int, int, int]:
    """n, k and M of the ``HSBM <n> <k> <M>`` header line.

    Requires three integers with n >= 1, k >= 1 and M >= 2; a failing
    header raises ValueError naming the line.
    """
    if not line.startswith("HSBM "):
        raise ValueError("missing HSBM header line")
    toks = _TOKEN.findall(line)[1:]
    try:
        n, k, m_max = map(int, toks)
    except ValueError:
        raise ValueError(f"header must be 'HSBM <n> <k> <M>' with integer n, k, M: "
                         f"{line!r}") from None
    if n < 1 or k < 1 or m_max < 2:
        raise ValueError(f"header needs n >= 1, k >= 1 and M >= 2: {line!r}")
    return n, k, m_max


def _parse_labels(line: str, n: int, k: int) -> np.ndarray:
    """The n blocks of a ``LABELS`` line, each in [0, k)."""
    toks = _TOKEN.findall(line)[1:]
    labels, ok = _ints(np.array(toks, dtype=object))
    if not ok.all():
        int(toks[int(np.argmin(ok))])  # raises int()'s own error
    if len(labels) != n:
        raise ValueError(f"LABELS line has {len(labels)} entries, expected {n}")
    outside = np.flatnonzero((labels < 0) | (labels >= k))
    if len(outside):
        value = int(toks[outside[0]])  # as written, even beyond int64
        raise ValueError(f"LABELS line has value {value} outside [0, {k})")
    return labels


def _check_lines(values: np.ndarray, ok: np.ndarray, count: np.ndarray, first: np.ndarray,
                 line: Callable[[int], str], n: int, m_max: int) -> None:
    """Raise ValueError for the first edge line that fails a check.

    Each line's ``count`` numeric tokens start at ``values[first]``: its
    order, then its ids.  Every line is checked for an integer order,
    order >= 2, the vertex count, integer ids, ids in [0, n), strict
    ascent and order <= m_max, in that order.  The first failing line in
    file order raises its first failing check, quoting ``line(i)``, the
    i-th non-blank edge line.
    """
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
        ln = line(i)
        toks = _TOKEN.findall(ln)[:count[i]]  # the numeric ones: order, then ids
        if message is None:
            lo = int(first[i])
            int(toks[int(np.argmin(ok[lo:lo + len(toks)]))])  # raises
        raise ValueError(message.format(ln=ln, ids=len(toks) - 1, m=int(toks[0]),
                                        top=m_max))


def _parse_edges(data: bytes, lo: int, line: Callable[[int], str], n: int,
                 m_max: int) -> tuple[dict, dict | None]:
    """Per-order edge arrays (rows sorted) and colors (or None) of the edge lines in ``data[lo:]``.

    Each scan block's lines are checked and turned into rows before the
    next block is read; ``line(i)`` is the i-th edge line, and
    ``_check_lines`` names the first malformed one.  Only the rows of an
    order are put together, once; they must be distinct.  Orders keep the
    order in which they first appear in the file.
    """
    dtype = _id_dtype(n)
    parts: dict[int, list] = {}  # order -> (rows, colors) of each block
    lines_before = colored_lines = 0
    for block_lo, block_hi in _scan_blocks(data, lo):
        width, color, values, ok = _scan_block(np.frombuffer(data, np.uint8, block_hi - block_lo,
                                                             block_lo))
        if not len(width):
            continue
        colored = color >= 0
        count = width - colored  # numeric tokens per line: the order, then the ids
        first = np.cumsum(count) - count
        _check_lines(values, ok, count, first, lambda i, at=lines_before: line(at + i), n, m_max)
        lines_before += len(width)
        colored_lines += int(np.count_nonzero(colored))
        m = values[first]
        orders, first_line = np.unique(m, return_index=True)
        for order in orders[np.argsort(first_line)].tolist():
            lines = np.flatnonzero(m == order)
            rows = np.empty((len(lines), order), dtype=dtype)
            for col in range(order):  # a column at a time bounds the index temporaries
                rows[:, col] = values[first[lines] + 1 + col]
            parts.setdefault(order, []).append((rows, color[lines]))
        # the block's arrays would otherwise live beside the next block's
        del width, color, colored, values, ok, count, first, m, lines, rows
    if 0 < colored_lines < lines_before:
        raise ValueError("edge colors must be given on every line or none")

    edges, colors = {}, {}
    for order, blocks in parts.items():
        rows = np.concatenate([rows for rows, _ in blocks])
        color = np.concatenate([color for _, color in blocks]).astype(np.uint8)
        blocks.clear()  # free the blocks' rows before the sort
        perm = _row_order(rows)
        if perm is not None:
            rows, color = rows[perm], color[perm]
        if _has_repeats(rows):
            raise ValueError(f"order {order}: duplicate edge tuples")
        edges[order], colors[order] = rows, color
    return edges, (colors if colored_lines else None)


def read_hypergraph(text: str | bytes) -> tuple[Hypergraph, int, np.ndarray | None]:
    """Parse the text format from str or UTF-8 bytes; returns (hypergraph, k, labels-or-None).

    Lines end at the ASCII line breaks of ``str.splitlines``, and tokens
    are separated by the rest of the ASCII whitespace of ``str.split``;
    blank lines are skipped.  The header is the first line, and the LABELS
    line the next one when it starts with ``LABELS``.  Numbers are what
    ``int`` accepts; non-ASCII whitespace separates nothing.  Malformed
    input raises ValueError naming the first bad line, and bytes that are
    not UTF-8 raise UnicodeDecodeError.  Edge arrays are int32 when
    n < 2**31, else int64.
    """
    if isinstance(text, str):
        data = text.encode("utf-8", "surrogatepass")
    else:
        data = text
        if not data.isascii():
            data.decode("utf-8")  # raises for a file that is not UTF-8
    header, lo = _next_line(data, 0)
    labels_line, after = _next_line(data, lo)
    if labels_line.startswith("LABELS "):
        lo = after
    else:
        labels_line = None

    def line(i):  # split only once a check fails
        return _text([ln for ln in _LINE_BREAK.split(data[lo:]) if ln.strip(_SEPARATORS)][i])
    n, k, m_max = _parse_header(header)
    labels = None if labels_line is None else _parse_labels(labels_line, n, k)
    return Hypergraph(n, *_parse_edges(data, lo, line, n, m_max)), k, labels


def write_labels(labels: np.ndarray) -> str:
    """``vertex_id<TAB>block`` lines, one per vertex in id order.

    The lines are joined a chunk at a time, so only one chunk's per-line
    strings live next to the joined text: the peak stays near twice the text.
    Labels whose dtype is not integer raise ValueError.
    """
    labels = _integer_labels(labels)
    return "".join("".join(f"{i}\t{int(b)}\n"
                           for i, b in enumerate(labels[lo:lo + _LABEL_LINES], lo))
                   for lo in range(0, len(labels), _LABEL_LINES))


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
