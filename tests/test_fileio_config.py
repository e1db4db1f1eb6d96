"""Serialization round-trips and config schema validation."""

import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from hyperblock import fileio
from hyperblock.config import parse_config
from hyperblock.fileio import (
    _parse_header,
    read_hypergraph,
    read_labels,
    write_hypergraph,
    write_labels,
)
from hyperblock.model import ModelParams
from hyperblock.sampler import BLUE, RED, Hypergraph, color_edges, sample_hsbm

from oracles import validate


def read_hypergraph_per_line(text):
    """Line-by-line reader kept as an oracle: same checks and messages, file order kept."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, k, m_max = _parse_header(lines[0] if lines else "")
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
    edges, colors = {}, {}
    any_color = any_plain = False
    for ln in body:
        toks = ln.split()
        m = int(toks[0])
        if m < 2:
            raise ValueError(f"edge order must be at least 2: {ln!r}")
        rest = toks[1:]
        color = None
        if rest and rest[-1] in ("R", "B"):
            color = RED if rest[-1] == "R" else BLUE
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
        if m > m_max:
            raise ValueError(f"edge order {m} above the header's M = {m_max}: {ln!r}")
        edges.setdefault(m, []).append(verts)
        colors.setdefault(m, []).append(RED if color is None else color)
    if any_color and any_plain:
        raise ValueError("edge colors must be given on every line or none")
    earr = {m: np.array(rows, dtype=np.int64).reshape(len(rows), m)
            for m, rows in edges.items()}
    carr = {m: np.array(colors[m], dtype=np.uint8) for m in earr} if any_color else None
    h = Hypergraph(n, earr, carr)
    validate(h)
    return h, k, labels


def id_dtype(n):
    """The edge dtype the reader gives an n-vertex hypergraph."""
    return np.int32 if n < 2**31 else np.int64


def assert_same_hypergraph(h, h_ref):
    """Equal vertex count, orders and colors, with h_ref's rows in any order."""
    assert h.n == h_ref.n and list(h.edges) == list(h_ref.edges)
    assert h.is_colored == h_ref.is_colored
    for m, rows in h_ref.edges.items():
        perm = np.lexsort(rows.T[::-1])
        assert h.edges[m].dtype == id_dtype(h.n) and h.edges[m].shape == rows.shape
        assert (h.edges[m] == rows[perm]).all()
        if h.is_colored:
            assert h.colors[m].dtype == np.uint8
            assert (h.colors[m] == h_ref.colors[m][perm]).all()


def shuffle_edge_lines(text, seed):
    lines = text.splitlines(keepends=True)
    head = 2 if len(lines) > 1 and lines[1].startswith("LABELS ") else 1
    edges = lines[head:]
    random.Random(seed).shuffle(edges)
    return "".join(lines[:head] + edges)


class TestHypergraphFormat:
    def test_round_trip_uncolored(self):
        p = ModelParams(40, 2, {2: (8, 3), 3: (6, 2)})
        h, labels = sample_hsbm(p, 11)
        text = write_hypergraph(h, 2, labels)
        h2, k2, labels2 = read_hypergraph(text)
        assert k2 == 2 and (labels2 == labels).all()
        for m in h.edges:
            assert (h.edges[m] == h2.edges[m]).all()
        assert write_hypergraph(h2, k2, labels2) == text

    def test_round_trip_colored(self):
        p = ModelParams(30, 2, {2: (8, 3)})
        h, labels = sample_hsbm(p, 2)
        hc = color_edges(h, 3)
        text = write_hypergraph(hc, 2, labels)
        h2, _, _ = read_hypergraph(text)
        assert h2.is_colored
        assert (h2.colors[2] == hc.colors[2]).all()

    def test_header_only(self):
        h, _ = sample_hsbm(ModelParams(10, 2, {2: (0, 0)}), 0)
        text = write_hypergraph(h, 2, None)
        assert text == "HSBM 10 2 2\n"
        h2, k, labels = read_hypergraph(text)
        assert h2.num_edges() == 0 and k == 2 and labels is None

    def test_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            read_hypergraph("nonsense\n")
        with pytest.raises(ValueError):
            read_hypergraph("HSBM 4 2 2\n2 3 1\n")  # not ascending
        with pytest.raises(ValueError):
            read_hypergraph("HSBM 4 2 2\n2 0 9\n")  # out of range
        with pytest.raises(ValueError):
            read_hypergraph("HSBM 4 2 2\n2 0 1 R\n2 2 3\n")  # mixed coloring

    @pytest.mark.parametrize("text, named", [
        ("HSBM 6 2 2\nLABELS 0 0 0 5 7 1\n2 1 3\n", "LABELS line has value 5"),
        ("HSBM 6 2 2\nLABELS 0 0 -1 1 1 1\n", "LABELS line has value -1"),
        ("HSBM 3 2 2\nLABELS 0 99999999999999999999 1\n",
         "LABELS line has value 99999999999999999999 outside"),
        ("HSBM 3 2 2\nLABELS 0 1 -99999999999999999999\n",
         "LABELS line has value -99999999999999999999 outside"),
        ("HSBM 6 2 2\n1 3\n", "'1 3'"),
        ("HSBM 6 2 2\n0\n", "'0'"),
    ])
    def test_rejects_labels_outside_k_and_orders_below_2(self, text, named):
        with pytest.raises(ValueError, match=named):
            read_hypergraph(text)

    @pytest.mark.parametrize("text, named", [
        ("HSBM -4 0 2\n", "n >= 1, k >= 1 and M >= 2: 'HSBM -4 0 2'"),
        ("HSBM 0 2 2\n", "n >= 1, k >= 1 and M >= 2: 'HSBM 0 2 2'"),
        ("HSBM 10 0 2\n", "n >= 1, k >= 1 and M >= 2: 'HSBM 10 0 2'"),
        ("HSBM 10 3 1\n", "n >= 1, k >= 1 and M >= 2: 'HSBM 10 3 1'"),
        ("HSBM 10 3 x\n", "integer n, k, M: 'HSBM 10 3 x'"),
        ("HSBM 10 3 2.0\n", "integer n, k, M: 'HSBM 10 3 2.0'"),
        ("HSBM 10 3\n", "integer n, k, M: 'HSBM 10 3'"),
        ("HSBM 10 3 2 2\n", "integer n, k, M: 'HSBM 10 3 2 2'"),
        ("HSBM\n", "missing HSBM header line"),
        ("HSBM 6 2 2\n2 0 1\n4 0 1 2 3\n3 0 1 2\n",
         "edge order 4 above the header's M = 2: '4 0 1 2 3'"),
        ("HSBM 6 2 3\n4 0 1 2 3 R\n", "edge order 4 above the header's M = 3: '4 0 1 2 3 R'"),
        # order above M is the last check on a line
        ("HSBM 6 2 2\n3 0 1 9\n", "vertex id out of range in '3 0 1 9'"),
    ])
    def test_rejects_bad_headers_and_orders_above_m(self, text, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            read_hypergraph(text)

    @pytest.mark.parametrize("n, k, labels, named", [
        (4, 2, [0, 1, 0], "labels have shape (3,), expected (4,)"),
        (4, 2, [[0, 1], [0, 1]], "labels have shape (2, 2), expected (4,)"),
        (4, 2, [0, 1, 5, 0], "label 5 outside [0, 2)"),
        (4, 2, [0, -1, 1, 0], "label -1 outside [0, 2)"),
        (4, 0, None, "n >= 1 and k >= 1, got n = 4, k = 0"),
        (0, 2, None, "n >= 1 and k >= 1, got n = 0, k = 2"),
    ])
    def test_writer_rejects_what_the_reader_rejects(self, n, k, labels, named):
        # each of these was written before, and read_hypergraph refused the text
        h = Hypergraph(n, {2: np.array([[0, 1]])} if n else {})
        with pytest.raises(ValueError, match=re.escape(named)):
            write_hypergraph(h, k, labels)

    @pytest.mark.parametrize("edges, k, named", [
        ({2: [[0, 5]]}, 2, "order 2: vertex id out of range [0, 3)"),
        ({2: [[-1, 2]]}, 2, "order 2: vertex id out of range [0, 3)"),
        ({2: [[1, 0]]}, 2, "order 2: vertices must be strictly ascending"),
        ({3: [[0, 2, 2]]}, 2, "order 3: vertices must be strictly ascending"),
        ({2: [[1, 2], [0, 2], [1, 2]]}, 2, "order 2: duplicate edge tuples"),
        ({2: [[0, 1, 2]]}, 2, "order 2: edge array of shape (1, 3)"),
        ({3: [[0, 1]]}, 2, "order 3: edge array of shape (1, 2)"),
        ({2: [[0, 1]]}, 2.0, "integers n and k, got n = 3, k = 2.0"),
        ({2: [[0, 1]]}, True, "integers n and k, got n = 3, k = True"),
    ])
    def test_writer_rejects_edges_the_reader_rejects(self, edges, k, named):
        # each of these was written before, and read_hypergraph refused the text
        h = Hypergraph(3, {m: np.array(rows) for m, rows in edges.items()})
        with pytest.raises(ValueError, match=re.escape(named)):
            write_hypergraph(h, k)
        text = f"HSBM 3 {k} {max(edges)}\n" + "".join(
            f"{m} {' '.join(map(str, row))}\n" for m, rows in edges.items() for row in rows)
        with pytest.raises(ValueError):
            read_hypergraph(text)

    @pytest.mark.parametrize("colors", [{2: [RED]}, {2: [RED, 7]}, {2: [RED, BLUE, RED]}, {}])
    def test_writer_rejects_colors_that_do_not_fit_the_edges(self, colors):
        # a short array was broadcast, giving every line the first color
        h = Hypergraph(3, {2: np.array([[0, 1], [1, 2]])},
                       {m: np.array(c, dtype=np.uint8) for m, c in colors.items()})
        with pytest.raises(ValueError, match="order 2: a colored hypergraph needs one RED or "
                                             "BLUE per edge"):
            write_hypergraph(h, 2)

    def test_writer_takes_unsorted_rows_and_empty_orders(self):
        # the reader sorts distinct rows itself, and an order without edges writes nothing
        h = Hypergraph(3, {2: np.array([[1, 2], [0, 1]]), 3: np.empty((0, 2), dtype=np.int64)})
        text = write_hypergraph(h, np.int64(2))
        assert text == "HSBM 3 2 3\n2 1 2\n2 0 1\n"
        assert read_hypergraph(text)[0].edges[2].tolist() == [[0, 1], [1, 2]]

    def test_m_above_every_order_accepted(self):
        h, k, _ = read_hypergraph("HSBM 6 1 4\n2 0 1\n")
        assert h.n == 6 and k == 1 and h.edges[2].tolist() == [[0, 1]]

    def test_shuffled_lines_give_the_same_hypergraph(self):
        h, labels = sample_hsbm(ModelParams(600, 3, {2: (40, 4), 3: (30, 3)}), 3)
        for hh in (h, color_edges(h, 5)):
            text = write_hypergraph(hh, 3, labels)
            h_read, _, _ = read_hypergraph(text)
            h_shuffled, _, _ = read_hypergraph(shuffle_edge_lines(text, 1))
            assert_same_hypergraph(h_read, hh)
            assert_same_hypergraph(h_shuffled, hh)

    @pytest.mark.parametrize("lines", [1, 7, 10**6])
    def test_edge_blocks_join_to_the_same_text(self, monkeypatch, lines):
        # block sizes that split every order anywhere, or not at all
        h, labels = sample_hsbm(ModelParams(600, 3, {2: (40, 4), 3: (30, 3)}), 3)
        want = [write_hypergraph(hh, 3, labels) for hh in (h, color_edges(h, 5))]
        monkeypatch.setattr(fileio, "_EDGE_LINES", lines)
        assert [write_hypergraph(hh, 3, labels) for hh in (h, color_edges(h, 5))] == want

    def test_write_hypergraph_memory_below_three_times_the_text(self):
        # one block of cells lives next to the text, not an E x (m + 1) object
        # array of them with its list copy (18.6 MiB on this instance)
        h = sample_hsbm(ModelParams(20000, 3, {2: (80, 2), 3: (40, 2)}), 1)[0]
        tracemalloc.start()
        try:
            text = write_hypergraph(h, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.5 * 2**20 and peak < 3 * len(text)

    def test_labels_round_trip(self):
        labels = np.array([0, 2, 1, 1, 0])
        assert (read_labels(write_labels(labels)) == labels).all()

    @pytest.mark.parametrize("n", [0, 1, fileio._LABEL_LINES, fileio._LABEL_LINES + 1, 5000])
    def test_write_labels_equals_per_line_text(self, n):
        labels = np.random.default_rng(n).integers(-1, 12, size=n)
        text = write_labels(labels)
        assert isinstance(text, str)
        assert text == "".join(f"{i}\t{int(b)}\n" for i, b in enumerate(labels))

    def test_write_labels_memory_near_twice_the_text(self):
        # chunks of lines are joined, so the per-line strings of one chunk
        # are alive at a time, not one Python string per vertex
        labels = np.random.default_rng(1).integers(0, 3, size=20000)
        tracemalloc.start()
        try:
            text = write_labels(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    def test_labels_any_line_order_and_unassigned(self):
        assert read_labels("2\t1\n\n0\t-1\n1\t0\n").tolist() == [-1, 0, 1]
        assert read_labels("").tolist() == []

    @pytest.mark.parametrize("text, named", [
        ("0\t1\n5\t-7\n", "line 2: vertex id 5 leaves a gap"),
        ("-1\t0\n", "line 1: negative vertex id -1"),
        ("0 1\n", "line 1: expected 'vertex_id<TAB>block' integers, got '0 1'"),
        ("0\t1\t2\n", "line 1: expected"),
        ("0\tx\n", "line 1: expected"),
        ("0\t1\n\n0\t1\n", "line 3: vertex id 0 repeats line 1"),
        ("1\t0\n0\t-2\n", "line 2: block -2 outside [-1, 2**63)"),
        ("0\t99999999999999999999\n", "line 1: block 99999999999999999999 outside"),
    ])
    def test_labels_rejects_malformed_lines(self, text, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            read_labels(text)


def _sampled_texts():
    h, labels = sample_hsbm(ModelParams(300, 3, {2: (12, 3), 3: (8, 2), 4: (4, 1)}), 4)
    empty, _ = sample_hsbm(ModelParams(30, 3, {2: (0, 0)}), 0)
    return {
        "uncolored with labels": write_hypergraph(h, 3, labels),
        "colored without labels": write_hypergraph(color_edges(h, 9), 3, None),
        "header only": write_hypergraph(empty, 3, None),
        "labels only": write_hypergraph(empty, 3, np.arange(30) % 3),
    }


def _edge_lines(text, fn):
    """Apply fn to each edge line (the header and LABELS lines stay as written)."""
    return "".join(ln if ln.startswith(("HSBM ", "LABELS ")) else fn(ln)
                   for ln in text.splitlines(keepends=True))


_LAYOUTS = {
    "as written": lambda t: t,
    "tabs": lambda t: _edge_lines(t, lambda ln: ln.replace(" ", "\t")),
    "runs of spaces": lambda t: _edge_lines(t, lambda ln: ln.replace(" ", "   ")),
    "leading and trailing spaces": lambda t: _edge_lines(t, lambda ln: " \t" + ln[:-1] + "  \n"),
    "blank lines": lambda t: t.replace("\n", "\n\n \t\n"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no final newline": lambda t: t[:-1],
    "shuffled edge lines": lambda t: shuffle_edge_lines(t, 7),
}


def assert_reads_like_oracle(text):
    """The reader, given text as str and as UTF-8 bytes, returns what the
    per-line oracle returns, or raises its message."""
    try:
        h_ref, k_ref, labels_ref = read_hypergraph_per_line(text)
    except ValueError as exc:
        for given in (text, text.encode()):
            with pytest.raises(ValueError) as got:
                read_hypergraph(given)
            assert str(got.value) == str(exc)
        return
    for given in (text, text.encode()):
        h, k, labels = read_hypergraph(given)
        assert k == k_ref
        assert (labels is None) == (labels_ref is None)
        if labels is not None:
            assert labels.dtype == np.int64 and (labels == labels_ref).all()
        assert_same_hypergraph(h, h_ref)


class TestReaderMatchesPerLineOracle:
    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("kind", list(_sampled_texts()))
    def test_valid_files(self, kind, layout):
        text = _LAYOUTS[layout](_sampled_texts()[kind])
        read_hypergraph_per_line(text)  # every layout of a valid file parses
        assert_reads_like_oracle(text)

    def test_files_longer_than_one_parse_block(self):
        n, block = 400, 1 << 14
        lines = [f"2 {i} {j}" for i in range(n) for j in range(i + 1, n)][:2 * block + 100]
        random.Random(2).shuffle(lines)
        text = f"HSBM {n} 2 2\n" + "\n".join(lines) + "\n"
        h, _, _ = read_hypergraph(text)
        assert_same_hypergraph(h, read_hypergraph_per_line(text)[0])
        colored = [ln + " " + "RB"[i % 2] for i, ln in enumerate(lines)]
        variants = [
            f"HSBM {n} 2 2\n" + "\n".join(colored) + "\n",
            f"HSBM {n} 2 2\n" + "\n".join(colored[:-1] + lines[-1:]) + "\n",
        ]
        for at, bad in [(block + 5, "2 7 3"), (2 * block + 50, "2 0 x"), (block - 1, "3 0 1")]:
            edited = lines.copy()
            edited[at] = bad
            edited[-1] = "2 0 999"
            variants.append(f"HSBM {n} 2 2\n" + "\n".join(edited) + "\n")
        for text in variants:
            try:
                expected = read_hypergraph_per_line(text)[0]
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_hypergraph(text)
                assert str(got.value) == str(exc)
            else:
                assert_same_hypergraph(read_hypergraph(text)[0], expected)

    def test_integer_spellings_int_accepts(self):
        text = "HSBM 12 2 2\n2 +0 0_1\n2 \u0661 \u0663\n2 007 11\n"
        h, _, _ = read_hypergraph(text)
        assert_same_hypergraph(h, read_hypergraph_per_line(text)[0])
        assert h.edges[2].tolist() == [[0, 1], [1, 3], [7, 11]]

    @pytest.mark.parametrize("text", [
        "",
        "nonsense\n",
        " HSBM 4 2 2\n",
        "HSBM 4 2\n",
        "HSBM x 2 2\n",
        "HSBM -4 0 2\n",
        "HSBM 10 3 x\n",
        "HSBM 10 3 1\n",
        "HSBM 6 2 2\n2 0 1\n4 0 1 2 3\n",
        "HSBM 6 2 2\n3 0 1 2\n2 0 9\n",
        "HSBM 6 2 2\n3 0 1 9\n",
        "HSBM 6 2 2\nLABELS 0 1\n",
        "HSBM 3 2 2\nLABELS 0 x 1\n",
        "HSBM 3 2 2\nLABELS 0 2 1\n2 0 1\n",
        "HSBM 4 2 2\n2 3 1\n",
        "HSBM 4 2 2\n2 0 9\n",
        "HSBM 4 2 2\n2 1 1\n",
        "HSBM 4 2 2\n2 -1 1\n",
        "HSBM 4 2 2\n2 0 1 R\n2 2 3\n",
        "HSBM 4 2 2\n2 0 1\n2 2 3 B\n",
        "HSBM 6 2 2\n1 3\n",
        "HSBM 6 2 2\n0\n",
        "HSBM 6 2 2\n-3 0 1 2\n",
        "HSBM 6 2 2\nx 1 2\n",
        "HSBM 6 2 2\nR\n",
        "HSBM 6 2 2\n2.0 1 2\n",
        "HSBM 6 2 2\n2 1 y\n",
        "HSBM 6 2 2\n2 1 2 3\n",
        "HSBM 6 2 2\n3 1 2\n",
        "HSBM 6 2 2\n2 R\n",
        "HSBM 6 2 2\n2 1 R B\n",
        "HSBM 6 2 2\n2 1 2 G\n",
        "HSBM 6 2 2\nLABELS 0 0 0 1 1 1\n2 0 1\nLABELS 0 0 0 1 1 1\n",
        "HSBM 6 2 2\n2 9 x\n",
        "HSBM 6 2 2\n2 5 9 R\n",
        "HSBM 6 2 2\n1 x\n",
        "HSBM 6 2 2\n3 x\n",
        "HSBM 6 2 2\n2 0 99999999999999999999\n",
        "HSBM 6 2 2\n99999999999999999999 0 1\n",
        "HSBM 6 2 2\n-99999999999999999999 0\n",
        # the first bad line is named, whatever kind of error later lines have
        "HSBM 6 2 2\n2 0 1\n2 3 2\n2 0 9\n",
        "HSBM 6 2 2\n2 0 9\n2 x 1\n",
        "HSBM 6 2 2\n3 0 1\n2 x 1\n",
        "HSBM 6 2 2\n2 0 1\n2 x 1\n1 0\n",
        "HSBM 6 2 2\n2 0 1 R\n2 2 3\n2 3 1 R\n",
        "HSBM 6 2 2\n2 0 1\t \n\n2 4\t3\r\n",
        # duplicates are reported for the first order in file order that has them
        "HSBM 6 2 3\n3 0 1 2\n2 0 1\n2 0 1\n3 0 1 2\n",
        "HSBM 6 2 3\n2 4 5 B\n3 0 1 2 R\n2 4 5 R\n",
    ])
    def test_malformed_files_raise_the_same_message(self, text):
        with pytest.raises(ValueError):
            read_hypergraph_per_line(text)
        assert_reads_like_oracle(text)


def _writer_texts():
    h, labels = sample_hsbm(ModelParams(300, 3, {2: (12, 3), 3: (8, 2), 4: (4, 1)}), 4)
    hc = color_edges(h, 9)
    empty, _ = sample_hsbm(ModelParams(30, 3, {2: (0, 0)}), 0)
    return {
        "uncolored with labels": write_hypergraph(h, 3, labels),
        "uncolored without labels": write_hypergraph(h, 3, None),
        "colored with labels": write_hypergraph(hc, 3, labels),
        "colored without labels": write_hypergraph(hc, 3, None),
        "edgeless": write_hypergraph(empty, 3, None),
        "edgeless with labels": write_hypergraph(empty, 3, np.arange(30) % 3),
    }


class TestByteScan:
    @pytest.mark.parametrize("kind", list(_writer_texts()))
    def test_writer_output_is_read_from_bytes(self, kind):
        text = _writer_texts()[kind]
        assert_reads_like_oracle(text)
        assert_reads_like_oracle(shuffle_edge_lines(text, 3))
        h, _, _ = read_hypergraph(text.encode())
        assert write_hypergraph(h, 3, read_hypergraph(text)[2]) == text

    @pytest.mark.parametrize("text", [
        "HSBM 6 2 2\n2\t0 1\n2 1 3\n",
        "HSBM 6 2 2\n2 0 1\r\n2 1 3\n",
        "HSBM 6 2 2\n2 0 1\n2 1 3\r",
        "HSBM 6 2 2\r2 0 1\r2 1 3\r",
        "HSBM 6 2 2\v2 0 1\v\v2 1 3\n",
        "HSBM 6 2 2\f2 0 1\f2 1 3",
        "HSBM 6 2 2\x1c2 0 1\x1d2 1 3\x1e",
        "HSBM 6 2 2\nLABELS 0 0 0 1 1 1\x1c2 0 1\n",
        "HSBM 6 2 2\n2\x1f0\x1f1\n2 1\x1f\t3 \x1fR\n",
        "HSBM 6 2 2\n2 0 1\x1f\n\x1f\n",
        "HSBM 6 2 2\n2 +0 1\n",
        "HSBM 12 2 2\n2 0 1_1\n",
        "HSBM 6 2 2\n2 \u0660 \u0663\n",
        "HSBM 6 2 2\n2 0 0000000000000000001\n",  # 19 digits, value 1
        "HSBM 6 2 2\n2 0000000000000000000 0000000000000000005\n",
        "HSBM 6 2 2\n2 0 9999999999999999999\n",
        "HSBM 6 2 2\n2 0 000000000000000001\n",  # 18 digits, value 1
        "HSBM 6 2 2\n2 0 999999999999999999\n",
        "HSBM 6 2 2\n2 0 1 G\n",
        "HSBM 6 2 2\n2 0 1\n2 x 3\n",
        "HSBM 6 2 2\n2 0 R 1\n",
        "HSBM 6 2 2\n2 0 1 R\n2 1 R 3 B\n",
        "HSBM 6 2 2\n2 0 1 RB\n",
        "HSBM 6 2 2\n2 0 1 R5\n",
        "HSBM 6 2 2\n2 0 1R\n",
        "HSBM 6 2 2\nR\n",
        "HSBM 6 2 2\n2 0 1 R\n2 1 3 R\n2 1 3 B\n",
        "HSBM 6 2 2\n2 0 1 R\n2 1 3\n",
        "HSBM 6 2 2\n2 R\n",
        "HSBM 6 2 2\n\nLABELS 0 0 0 1 1 1\n2 0 1\n",
        "HSBM 6 2 2\r\n\r\nLABELS 0 0 0 1 1 1\r\n2 0 1\r\n",
        " HSBM 6 2 2\n2 0 1\n",
        "HSBM\t6 2 2\n2 0 1\n",
        "HSBM 6 2 2\nLABELS 0 0 0\t1 1 1\n2 0 1\n",
        "HSBM 6 2 2\n  \n2  0   1 \n\n\n 2 1 3",
        "HSBM 6 2 2\n",
        "HSBM 6 2 2",
    ])
    def test_other_layouts_read_like_oracle(self, text):
        assert_reads_like_oracle(text)

    @pytest.mark.parametrize("scan_bytes", [4, 64, 1000])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_line_after_several_scan_blocks(self, monkeypatch, scan_bytes, newline):
        monkeypatch.setattr(fileio, "_SCAN_BYTES", scan_bytes)
        text = _writer_texts()["colored with labels"].replace("\n", newline)
        assert_reads_like_oracle(text)
        lines = text.splitlines(keepends=True)
        at = len(lines) - 5  # past several blocks
        for bad in ["2 7 3 R", "2 0 400 B", "2 0 x R", "2\t0 1 R", "2 0 1"]:
            assert_reads_like_oracle("".join(lines[:at] + [bad + newline] + lines[at:]))

    @pytest.mark.parametrize("text, line", [
        *((f"HSBM 6 2 2\n2 1 2\n{line}\n2 3 4\n", line) for line in [
            "2 0\xa01", "2\u30000 1", "2 0\u20281", "2 0 1\x852 1 3", "2 0\xa0x 1", "2 0 x\xa01",
            "\xa0"]),
        ("HSBM 6\xa02 2\n2 0 1\n", "HSBM 6\xa02 2"),
        ("HSBM 6 2\u20282\n2 0 1\n", "HSBM 6 2\u20282"),
        ("HSBM 6 2 2\nLABELS 0 0 0\u30001 1 1\n", "LABELS 0 0 0\u30001 1 1"),
    ])
    def test_non_ascii_whitespace_splits_nothing(self, text, line):
        for given in (text, text.encode()):
            with pytest.raises(ValueError) as got:
                read_hypergraph(given)
            assert type(got.value) is ValueError
            # the line itself, or int()'s error on its token holding the character
            assert any(repr(part) in str(got.value) for part in [line, *line.split(" ")]
                       if not part.isascii())

    def test_crlf_and_tab_files_cost_what_lf_files_do(self, monkeypatch):
        """Other layouts of a writer file of several scan blocks read like it, in
        about its memory: a str tokenizer would double the peak."""
        h, labels = sample_hsbm(ModelParams(3000, 3, {2: (40, 4), 3: (30, 3)}), 1)
        lf = write_hypergraph(h, 3, labels).encode()
        monkeypatch.setattr(fileio, "_SCAN_BYTES", len(lf) // 4)
        tab = lf.rstrip().rfind(b" ")  # the last separator of the last line
        copies = [lf.replace(b"\n", b"\r\n"), lf[:tab] + b"\t" + lf[tab + 1:]]

        def peak(data):
            tracemalloc.start()
            try:
                got = read_hypergraph(data)
                return got, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (h_lf, k, labels_lf), lf_peak = peak(lf)
        for data in copies:
            (h_read, k_read, labels_read), read_peak = peak(data)
            assert k_read == k and (labels_read == labels_lf).all()
            assert_same_hypergraph(h_read, h_lf)
            assert read_peak <= 1.5 * lf_peak


class TestBlockwiseReader:
    """Each scan block is checked and parsed before the next is read."""

    def test_peak_below_three_times_the_file(self):
        h, labels = sample_hsbm(ModelParams(20000, 3, {2: (80, 2), 3: (40, 2)}), 1)
        data = write_hypergraph(h, 3, labels).encode()
        del h
        tracemalloc.start()
        try:
            got, _, _ = read_hypergraph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.n == 20000 and got.num_edges() > 10**5
        # whole-file token arrays and masks would peak at about 7x the file
        assert peak < 3 * len(data)

    @staticmethod
    def lines(count=60):
        return [f"2 {i} {i + 1}" for i in range(count)]

    def test_duplicates_split_across_blocks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_SCAN_BYTES", 64)
        body = ["3 0 1 2", *self.lines(), "2 3 4"]  # the last line repeats the fifth
        text = "HSBM 70 2 3\n" + "\n".join(body) + "\n"
        with pytest.raises(ValueError, match="^order 2: duplicate edge tuples$"):
            read_hypergraph(text)
        # order 3 appears first in the file, so its duplicate is named first
        text = text + "3 0 1 2\n"
        with pytest.raises(ValueError, match="^order 3: duplicate edge tuples$"):
            read_hypergraph(text)
        assert_reads_like_oracle(text)

    @pytest.mark.parametrize("scan_bytes", [16, 64, 200])
    def test_first_bad_line_of_a_later_block_is_named(self, monkeypatch, scan_bytes):
        monkeypatch.setattr(fileio, "_SCAN_BYTES", scan_bytes)
        body = self.lines()
        body[40], body[50] = "2 x 1", "2 9 8"
        text = "HSBM 70 2 2\n" + "\n".join(body) + "\n"
        # int()'s error quotes the token read back from the line at that position
        with pytest.raises(ValueError, match=re.escape("invalid literal for int() with base "
                                                       "10: 'x'")):
            read_hypergraph(text)
        body[40] = "2 41 42"
        with pytest.raises(ValueError, match=re.escape("strictly ascending in '2 9 8'")):
            read_hypergraph("HSBM 70 2 2\n" + "\n".join(body) + "\n")


class TestVertexIdDtype:
    """int32 rows while every id fits, int64 beyond; nothing of size n is built."""

    def test_largest_int32_n_reads_int32_rows(self):
        h, _, _ = read_hypergraph(f"HSBM {2**31 - 1} 2 2\n2 0 {2**31 - 2}\n")
        assert h.edges[2].dtype == np.int32 and h.edges[2].tolist() == [[0, 2**31 - 2]]

    def test_n_beyond_int32_reads_int64_rows(self):
        h, _, _ = read_hypergraph("HSBM 3000000000 2 2\n2 0 2999999999\n")
        assert h.edges[2].dtype == np.int64 and h.edges[2].tolist() == [[0, 2999999999]]


def write_hypergraph_per_line(h, k):
    """Edge lines written one row at a time, kept as the writer's oracle."""
    lines = [f"HSBM {h.n} {k} {max(h.edges, default=2)}\n"]
    for m in sorted(h.edges):
        for i, row in enumerate(h.edges[m].tolist()):
            color = f" {'R' if h.colors[m][i] == RED else 'B'}" if h.is_colored else ""
            lines.append(f"{m} {' '.join(map(str, row))}{color}\n")
    return "".join(lines)


class TestWriterCostFollowsTheEdges:
    """The writer makes id strings for the ids it writes, not for every id
    below the largest, when those are fewer."""

    def test_one_wide_edge_writes_in_milliseconds(self):
        h = Hypergraph(10**6, {2: np.array([[0, 10**6 - 1]], dtype=np.int32)})
        start = time.perf_counter()
        text = write_hypergraph(h, 2)
        # a string per id below 10**6 took 0.4 s
        assert time.perf_counter() - start < 0.1
        assert text == "HSBM 1000000 2 2\n2 0 999999\n"

    def test_largest_int32_n_allocates_nothing_of_size_n(self):
        n = 2**31 - 1
        h = Hypergraph(n, {2: np.array([[0, n - 1]], dtype=np.int32),
                           3: np.array([[5, 7, n - 1]], dtype=np.int32)},
                       {2: np.array([BLUE], dtype=np.uint8), 3: np.array([RED], dtype=np.uint8)})
        tracemalloc.start()
        try:
            text = write_hypergraph(h, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert text == f"HSBM {n} 2 3\n2 0 {n - 1} B\n3 5 7 {n - 1} R\n"
        got, _, _ = read_hypergraph(text)
        assert all(np.array_equal(got.edges[m], h.edges[m]) for m in h.edges)

    @pytest.mark.parametrize("n, rates", [(100000, {2: (0.002, 0.002), 3: (0.001, 0.001)}),
                                          (300, {2: (20, 5), 3: (10, 3)})])
    @pytest.mark.parametrize("colored", [False, True])
    def test_sparse_and_dense_ids_match_the_oracle(self, n, rates, colored):
        h, _ = sample_hsbm(ModelParams(n, 2, rates), 5)
        cells = sum(rows.size for rows in h.edges.values())
        assert 0 < cells and (cells < n) == (n == 100000)
        if colored:
            h = color_edges(h, 6)
        assert write_hypergraph(h, 2) == write_hypergraph_per_line(h, 2)


class TestConfig:
    GOOD = "n = 60\nk = 2\norders = 2:6,3;3:4,1\nnu = 0.8\nseed = 7\n"

    def test_parses_common_fields(self):
        cfg = parse_config(self.GOOD, "snr")
        assert cfg.n == 60 and cfg.k == 2
        assert cfg.orders == {2: (6.0, 3.0), 3: (4.0, 1.0)}
        assert cfg.nu == 0.8 and cfg.seed == 7

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nn = 20\nk = 2\norders = 2:4,1  # inline\n", "snr")
        assert cfg.orders == {2: (4.0, 1.0)}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(self.GOOD + "wat = 1\n", "snr")

    def test_command_specific_keys(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(self.GOOD + "ladder = 1,2\n", "sample")
        cfg = parse_config(self.GOOD + "ladder = 1,2\nbase_b = 3\ntrials = 2\n",
                           "experiment")
        assert cfg.ladder == (1.0, 2.0) and cfg.base_b == 3.0 and cfg.trials == 2

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("n = 10\nk = 2\n", "snr")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(self.GOOD + "n = 61\n", "snr")

    def test_bad_nu(self):
        with pytest.raises(ValueError, match="nu"):
            parse_config("n = 20\nk = 2\norders = 2:4,1\nnu = 0.4\n", "snr")

    def test_model_preconditions_checked(self):
        with pytest.raises(ValueError):
            parse_config("n = 20\nk = 2\norders = 2:1,4\n", "snr")  # a < b

    def test_keeps_each_distinct_model_once(self):
        cfg = parse_config("n = 80\nk = 2\norders = 2:6,3;3:4,1\nsizes = 60,80,60\n", "conclab")
        assert cfg.params == ModelParams(80, 2, {2: (6.0, 3.0), 3: (4.0, 1.0)})
        assert [p.n for p in cfg.size_params] == [60, 80, 60]
        assert cfg.size_params[0] is cfg.size_params[2] and cfg.size_params[1] is cfg.params
        cfg = parse_config("n = 80\nk = 2\norders = 2:6,3;3:4,1\nladder = 3,1,3\nbase_b = 3\n",
                           "experiment")
        assert [p.orders[2] for p in cfg.rung_params] == [(6.0, 3.0), (4.0, 3.0), (6.0, 3.0)]
        assert cfg.rung_params[0] is cfg.rung_params[2] is cfg.params
        assert cfg.rung_params[1].orders[3] == (4.0, 1.0)

    def test_conclab_defaults(self):
        cfg = parse_config("n = 100\nk = 2\norders = 2:6,3;3:4,1\n", "conclab")
        assert cfg.resolved_tau() == 60.0 and repr(cfg.resolved_tau()) == "60.0"
        cfg = parse_config("n = 100\nk = 2\norders = 2:6,3\ntau = 2.5\n", "conclab")
        assert cfg.resolved_tau() == 2.5

    @pytest.mark.parametrize("command, extra, named", [
        ("conclab", "sizes =\n", "sizes = ''"),
        ("conclab", "sizes = 60,,80\n", "sizes = '60,,80'"),
        ("conclab", "sizes = 60,x\n", "sizes = '60,x'"),
        ("conclab", "trials = x\n", "trials = 'x'"),
        ("conclab", "tau = big\n", "tau = 'big'"),
        ("experiment", "ladder =\n", "ladder = ''"),
        ("experiment", "ladder = 1,2\nbase_b = -\n", "base_b = '-'"),
        ("snr", "seed = 1.5\n", "seed = '1.5'"),
        ("sample", "labels = maybe\n", "labels = 'maybe'"),
    ])
    def test_bad_value_names_its_key(self, command, extra, named):
        with pytest.raises(ValueError, match=named):
            parse_config("n = 20\nk = 2\norders = 2:4,1\n" + extra, command)

    @pytest.mark.parametrize("ladder, named", [
        ("10,-15", "ladder entry -15.0: order 3: need a_m >= b_m >= 0"),
        ("-12,5", "ladder entry -12.0: order 3: need a_m >= b_m >= 0"),
    ])
    def test_ladder_checked_at_parse_time(self, ladder, named):
        with pytest.raises(ValueError, match=named):
            parse_config(f"n = 80\nk = 2\norders = 2:6,3\nladder = {ladder}\n"
                         "base_b = 10\nladder_order = 3\n", "experiment")

    @pytest.mark.parametrize("command, text, named", [
        ("snr", "orders = 2:inf,5\n", "order 2: rates must be finite"),
        ("experiment", "orders = 2:6,3\nladder = 10,inf\nbase_b = 10\nladder_order = 3\n",
         "ladder entry inf: order 3: rates must be finite"),
        ("experiment", "orders = 2:6,3\nladder = 10\nbase_b = inf\nladder_order = 3\n",
         "ladder entry 10.0: order 3: rates must be finite"),
        ("conclab", "orders = 2:6,3\ntau = nan\n", "tau must be a nonnegative number, got nan"),
        ("conclab", "orders = 2:6,3\ntau = -1\n", "tau must be a nonnegative number, got -1.0"),
    ])
    def test_non_numbers_rejected_at_parse_time(self, command, text, named):
        with pytest.raises(ValueError, match=named):
            parse_config("n = 80\nk = 2\n" + text, command)

    def test_infinite_tau_keeps_every_vertex(self):
        cfg = parse_config("n = 80\nk = 2\norders = 2:6,3\ntau = inf\n", "conclab")
        assert cfg.resolved_tau() == float("inf")

    @pytest.mark.parametrize("sizes, named", [
        ("0,-5", "sizes entry 0: n must be positive"),
        ("60,1", "sizes entry 1: n must be at least k"),
        ("60,2", "sizes entry 2: edge order 3 exceeds n = 2"),
    ])
    def test_sizes_checked_at_parse_time(self, sizes, named):
        with pytest.raises(ValueError, match=named):
            parse_config(f"n = 80\nk = 2\norders = 2:6,3;3:4,1\nsizes = {sizes}\n",
                         "conclab")
