"""Serialization round-trips and config schema validation."""

import numpy as np
import pytest

from hyperblock.config import parse_config
from hyperblock.fileio import read_hypergraph, read_labels, write_hypergraph, write_labels
from hyperblock.model import ModelParams
from hyperblock.sampler import color_edges, sample_hsbm


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
        ("HSBM 6 2 2\n1 3\n", "'1 3'"),
        ("HSBM 6 2 2\n0\n", "'0'"),
    ])
    def test_rejects_labels_outside_k_and_orders_below_2(self, text, named):
        with pytest.raises(ValueError, match=named):
            read_hypergraph(text)

    def test_labels_round_trip(self):
        labels = np.array([0, 2, 1, 1, 0])
        assert (read_labels(write_labels(labels)) == labels).all()


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

    def test_conclab_defaults(self):
        cfg = parse_config("n = 100\nk = 2\norders = 2:6,3;3:4,1\n", "conclab")
        assert cfg.resolved_tau() == 60.0
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

    @pytest.mark.parametrize("sizes, named", [
        ("0,-5", "sizes entry 0: n must be positive"),
        ("60,1", "sizes entry 1: n must be at least k"),
        ("60,2", "sizes entry 2: edge order 3 exceeds n = 2"),
    ])
    def test_sizes_checked_at_parse_time(self, sizes, named):
        with pytest.raises(ValueError, match=named):
            parse_config(f"n = 80\nk = 2\norders = 2:6,3;3:4,1\nsizes = {sizes}\n",
                         "conclab")
