"""CLI behavior: outputs, reproducibility, exit codes."""

import hashlib
import json
import logging
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hyperblock import fileio, pipeline, runner, sampler
from hyperblock.cli import main
from hyperblock.fileio import read_hypergraph, read_labels
from hyperblock.model import ModelParams
from hyperblock.spectral import ConvergenceError

SRC = Path(__file__).resolve().parent.parent / "src"


def write(path, text):
    path.write_text(text)
    return str(path)


def logged_warnings(caplog):
    """How often each WARNING (or worse) message was logged."""
    return Counter(r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING)


def clamp_message(rate, cap):
    return (f"order 2: rate {float(rate)} above comb(n, m-1) = {float(cap)}, clamped to it "
            "(probability 1)")


BASE = "n = 200\nk = 2\norders = 2:30,3\nseed = 5\n"


class TestSnrCommand:
    def test_marks_argmax(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 2\norders = 2:1,1;3:8,0\n")
        assert main(["snr", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.endswith("*")]
        assert lines == [ln for ln in out.splitlines() if ln.startswith("{3}")]

    def test_single_order_rows(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 2\norders = 2:5,1\n")
        assert main(["snr", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert sum(1 for ln in out.splitlines() if ln.startswith("{")) == 1

    def test_table_pinned(self, tmp_path, capsys):
        # every order subset by size, then lexicographically; the argmax {2,3} marked
        cfg = write(tmp_path / "c.cfg", "n = 60\nk = 3\norders = 2:4,1;3:8,1;4:9,2\nnu = 0.8\n")
        assert main(["snr", "--config", cfg]) == 0
        assert capsys.readouterr().out == (
            "subset\tsnr\tselected\n"
            "{2}\t0.5\t\n"
            "{3}\t0.6805555555555556\t\n"
            "{4}\t0.08925318761384333\t\n"
            "{2,3}\t1.1755555555555555\t*\n"
            "{2,4}\t0.360056258790436\t\n"
            "{3,4}\t0.5268817204301074\t\n"
            "{2,3,4}\t0.9009009009009008\t\n"
            "# error-rate constant at nu=0.8: 0.00017578125000000005\n")

    def test_all_zero_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 2\norders = 2:0,0\n")
        assert main(["snr", "--config", cfg]) == 2

    @pytest.mark.parametrize("orders", ["2:10", "2", "2:10,5,1", "2:3:4,5"])
    def test_malformed_orders_entry_named_exit_2(self, tmp_path, capsys, orders):
        cfg = write(tmp_path / "c.cfg", f"n = 40\nk = 2\norders = {orders}\n")
        assert main(["snr", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"entry {orders!r} is not of the form m:a,b" in err
        assert "unpack" not in err


class TestModelBoundary:
    """ModelParams decides the model: clamped rates, and orders past the float range."""

    @pytest.mark.parametrize("command, model, named", [
        ("snr", "n = 1000\nk = 3\norders = 2:5,1;700:3,1\n", "order 700: k^(m-1)"),
        ("snr", "n = 520\nk = 3\norders = 515:5,1\n", "order 515: 2^(2m+3)"),
        ("sample", "n = 10000\nk = 2\norders = 2:1,0;200:1,0\n", "order 200: comb(n, m-1)"),
        ("detect", "n = 10000\nk = 2\norders = 2:1,0;200:1,0\n", "order 200: comb(n, m-1)"),
        ("snr", "n = 2000\nk = 5\norders = 229:1e308,0\n", "the degree scale"),
        ("snr", "n = 2000\nk = 5\norders = 229:4e304,0\n", "the regularization threshold"),
    ])
    def test_order_beyond_float_range_exit_2(self, tmp_path, capsys, command, model, named):
        cfg = write(tmp_path / "c.cfg", model)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    @pytest.mark.parametrize("rate", [60, 90])
    def test_clamped_config_matches_the_cap(self, tmp_path, capsys, caplog, rate):
        outputs = {}
        for a in (rate, 40):
            cfg = write(tmp_path / f"{a}.cfg", f"n = 40\nk = 2\norders = 2:{a},1\nseed = 3\n")
            for command in ("snr", "sample", "detect", "conclab"):
                assert main([command, "--config", cfg]) == 0
                outputs[a, command] = capsys.readouterr().out
        for command in ("snr", "sample", "detect", "conclab"):
            assert outputs[rate, command] == outputs[40, command]
        assert {r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING} == {
            f"order 2: rate {float(rate)} above comb(n, m-1) = 40.0, clamped to it (probability 1)"}
        # the same bytes as before the clamp moved out of the sampler
        digest = hashlib.sha256(outputs[40, "sample"].encode()).hexdigest()
        assert digest == "5aef562d08d774bf49d4df4500133c6efa1d29b44dfa9d0e1748b7117cd5af4c"

    def test_clamped_rates_snr_table_pinned(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 2\norders = 2:1e308,0;3:1e308,0\n")
        assert main(["snr", "--config", cfg]) == 0
        assert capsys.readouterr().out == (
            "subset\tsnr\tselected\n"
            "{2}\t20.0\t\n"
            "{3}\t390.0\t\n"
            "{2,3}\t410.0\t*\n"
            "# error-rate constant at nu=0.75: 0.0078125\n")


    @pytest.mark.parametrize("command, extra, clamped", [
        ("snr", "", [60]),
        ("sample", "", [60]),
        ("detect", "", [60]),
        # three sizes entries, one distinct model, the config's own
        ("conclab", "sizes = 40,40\ntrials = 1\n", [60]),
        # the config's own model, and the two equal rungs at gap 50
        ("experiment", "ladder = 50,50,10\ntrials = 1\n", [60, 50]),
    ])
    def test_one_warning_per_clamped_order_per_model(self, tmp_path, caplog, command, extra,
                                                     clamped):
        cfg = write(tmp_path / "c.cfg", f"n = 40\nk = 2\norders = 2:60,1\nseed = 3\n{extra}")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert logged_warnings(caplog) == Counter(clamp_message(a, 40) for a in clamped)

    def test_each_distinct_size_warns_once(self, tmp_path, caplog):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 2\norders = 2:60,1\nsizes = 30,40,30\n")
        assert main(["conclab", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert logged_warnings(caplog) == Counter([clamp_message(60, 30), clamp_message(60, 40)])


class TestSampleCommand:
    def test_empty_model_header_only(self, tmp_path):
        cfg = write(tmp_path / "c.cfg",
                    "n = 20\nk = 2\norders = 2:0,0\nlabels = false\n")
        out = tmp_path / "h.txt"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == "HSBM 20 2 2\n"

    def test_round_trip(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "h.txt"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        h, k, labels = read_hypergraph(out.read_text())
        assert h.n == 200 and k == 2 and labels is not None
        assert h.num_edges() > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["sample", "--config", cfg, "--out", str(a)])
        main(["sample", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.txt"
        main(["sample", "--config", cfg, "--seed", "99", "--out", str(c)])
        assert a.read_bytes() != c.read_bytes()


    # sha256 of the sampled file; any change to the sampler or color streams,
    # or to the writer's bytes, changes these
    PIN = "n = 600\nk = 3\norders = 2:40,4;3:30,3\n"
    PINNED = {
        ("", 1): "33f20955cdda90390ba4b527e6a992a6174fb37c12b25095d9775eb4009409e6",
        ("", 2): "df610d815cc62c373d5748d87591eeaff896ccf0c8220d710c54fde89860d633",
        ("", 3): "a583669e5611e667fc02f4617863709ad4a49f1401b6e158ec45948cd1117175",
        ("colors = true\nlabels = false\n", 1):
            "ff025ec89db5c86717e78484a04cd863539bd0900c9cd4dd95ec5f148479bdd0",
        ("colors = true\nlabels = false\n", 2):
            "feeda089cd8680952e8202860a3ed5d134bc41425d7be08d2228e6c245ace19c",
        ("colors = true\nlabels = false\n", 3):
            "804149d79ccb4654a1ec8c1db42dc93a2cc1202ccd723f95871acc5a7268c817",
    }

    @pytest.mark.parametrize("extra, seed", list(PINNED))
    def test_pinned_sample_bytes(self, tmp_path, extra, seed):
        cfg = write(tmp_path / "c.cfg", self.PIN + extra)
        out = tmp_path / "h.txt"
        assert main(["sample", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[extra, seed]

    def test_pinned_sample_bytes_at_n_20000(self, tmp_path):
        # the detect benchmark's instance: 320625 edges over many rank blocks
        cfg = write(tmp_path / "c.cfg", "n = 20000\nk = 3\norders = 2:80,2;3:40,2\n")
        out = tmp_path / "h.txt"
        assert main(["sample", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "66e0b926dd65363c2e8428d938b1fba1e960a57dd9c9a1a7e8771f3e94c8efa7")


class TestDetectCommand:
    # sha256 of the labels file and the accuracy row of detect on an inline
    # sample; a change to any pipeline stage that moves a label changes these
    PINNED = {
        ("n = 600\nk = 3\norders = 2:40,4;3:30,3\n", 1): (
            "ae759ca50083c6b9f28118d6cb23cd39b8a87fe9757e13bbda71025cabd28405",
            "0.545,0.7333333333333333,0.26666666666666666"),
        ("n = 600\nk = 3\norders = 2:40,4;3:30,3\n", 2): (
            "f26795d2d594451c549697757a66f27c0eeb439c8137ba44f410227762646e5b",
            "0.355,0.72,0.28"),
        ("n = 600\nk = 3\norders = 2:40,4;3:30,3\n", 3): (
            "1475d2c223d93bdbc8b6dfb2d771684f850fb08e828703f020481ff8271a6756",
            "0.72,0.8066666666666666,0.19333333333333333"),
        (BASE, 5): (
            "e431448523c5740a66446ed8e5fb08b5a7f8f9261c593f9a6626ae68b6102cf9",
            "1.0,1.0,0.0"),
        # weak signal: many Y vertices qualify for two sets in merging (269
        # of 1542 at seed 1), which then falls back to their argmax
        ("n = 3000\nk = 3\norders = 2:30,5;3:20,5\n", 1): (
            "31e1cf37997c2053513b51cb8685a27a6be1953b8b6e4dcc530228cf6f3b1076",
            "0.171,0.36633333333333334,0.6336666666666667"),
        ("n = 3000\nk = 3\norders = 2:30,5;3:20,5\n", 2): (
            "647d86c6c077b97414bfaf0918e03f98b9ffe34073393e8a59e48e02a446aa08",
            "0.184,0.43566666666666665,0.5643333333333334"),
    }

    @pytest.mark.parametrize("model, seed", list(PINNED))
    def test_pinned_detect_labels(self, tmp_path, capsys, model, seed):
        cfg = write(tmp_path / "c.cfg", model)
        out = tmp_path / "labels.tsv"
        assert main(["detect", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        digest, row = self.PINNED[model, seed]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out.splitlines()[1] == row

    # sha256 of the labels file and the accuracy row of detect on a colored
    # file: partition keeps the file's colors, and selection drops an order
    # that carries no signal (order 4, resp. 3) together with its colors
    PINNED_COLORED = {
        "n = 600\nk = 3\norders = 2:40,4;3:30,3;4:2,2\n": (
            "c246afa22552c69ec04c582f12d77a36b9267bf5c8313b546283e4e07f124ab1",
            "0.49,0.6683333333333333,0.33166666666666667"),
        "n = 400\nk = 2\norders = 2:16,3;3:2,2\n": (
            "7fcdbade2f376e644844fe73c9404e2bef34976f4768b21b5ffc25d45387b8f5",
            "0.82,0.8425,0.1575"),
    }

    @pytest.mark.parametrize("model", list(PINNED_COLORED))
    def test_pinned_detect_labels_on_colored_file(self, tmp_path, capsys, model):
        hfile = tmp_path / "h.txt"
        assert main(["sample", "--config", write(tmp_path / "s.cfg", model + "colors = true\n"),
                     "--seed", "1", "--out", str(hfile)]) == 0
        h, _, _ = read_hypergraph(hfile.read_bytes())
        assert h.is_colored and len(h.edges) == model.count(":")  # every order sampled
        cfg = write(tmp_path / "d.cfg", model + f"input = {hfile}\n")
        out = tmp_path / "labels.tsv"
        assert main(["detect", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        digest, row = self.PINNED_COLORED[model]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_detect_from_file_with_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", BASE)
        hfile = tmp_path / "h.txt"
        main(["sample", "--config", cfg, "--out", str(hfile)])
        dcfg = write(tmp_path / "d.cfg", BASE + f"input = {hfile}\n")
        lfile = tmp_path / "labels.tsv"
        assert main(["detect", "--config", dcfg, "--out", str(lfile)]) == 0
        labels = read_labels(lfile.read_text())
        assert len(labels) == 200 and set(np.unique(labels)) <= {0, 1}
        out = capsys.readouterr().out
        assert out.startswith("gamma,matched_accuracy,misclassified_fraction\n")

    def test_edge_line_order_does_not_change_labels(self, tmp_path, capsys):
        model = "n = 600\nk = 3\norders = 2:40,4;3:30,3\nseed = 3\n"
        hfile = tmp_path / "h.txt"
        assert main(["sample", "--config", write(tmp_path / "s.cfg", model),
                     "--out", str(hfile)]) == 0
        lines = hfile.read_text().splitlines(keepends=True)
        edges = lines[2:]
        random.Random(0).shuffle(edges)
        shuffled = write(tmp_path / "shuffled.txt", "".join(lines[:2] + edges))
        outputs = []
        for path in (hfile, shuffled):
            cfg = write(tmp_path / "d.cfg", model + f"input = {path}\n")
            lfile = tmp_path / "labels.tsv"
            assert main(["detect", "--config", cfg, "--out", str(lfile)]) == 0
            outputs.append((lfile.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_inline_sampling_deterministic(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["detect", "--config", cfg, "--out", str(a)])
        main(["detect", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_k1_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "n = 40\nk = 1\norders = 2:5,1\n")
        assert main(["detect", "--config", cfg, "--out", "-"]) == 2

    def test_partition_failure_exit_4(self, tmp_path, capsys):
        # signal present in the rates, but the sampled instance has no edges
        cfg = write(tmp_path / "c.cfg", "n = 100\nk = 2\norders = 2:0.001,0\nseed = 1\n")
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "l.tsv")]) == 4
        assert "partition failure" in capsys.readouterr().err

    def test_convergence_error_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("ARPACK error -1: No convergence")
        monkeypatch.setattr(pipeline, "top_subspace", no_convergence)
        cfg = write(tmp_path / "c.cfg", BASE)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "l.tsv")]) == 4
        assert capsys.readouterr().err == (
            "solver did not converge: ARPACK error -1: No convergence\n")

    def test_file_mismatch_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        hfile = tmp_path / "h.txt"
        main(["sample", "--config", cfg, "--out", str(hfile)])
        bad = write(tmp_path / "bad.cfg",
                    "n = 100\nk = 2\norders = 2:30,3\n" + f"input = {hfile}\n")
        assert main(["detect", "--config", bad, "--out", "-"]) == 2

    def test_labels_outside_k_exit_2(self, tmp_path, capsys):
        hfile = write(tmp_path / "h.txt", "HSBM 6 2 2\nLABELS 0 0 0 5 7 1\n2 1 3\n")
        cfg = write(tmp_path / "c.cfg", f"n = 6\nk = 2\norders = 2:3,1\ninput = {hfile}\n")
        assert main(["detect", "--config", cfg, "--out", "-"]) == 2
        assert "LABELS line has value 5 outside [0, 2)" in capsys.readouterr().err

    def test_labels_beyond_int64_exit_2(self, tmp_path, capsys):
        hfile = write(tmp_path / "h.txt", "HSBM 3 2 2\nLABELS 0 99999999999999999999 1\n")
        cfg = write(tmp_path / "c.cfg", f"n = 3\nk = 2\norders = 2:1,1\ninput = {hfile}\n")
        assert main(["detect", "--config", cfg, "--out", "-"]) == 2
        assert "LABELS line has value 99999999999999999999 outside [0, 2)" in capsys.readouterr().err

    def test_missing_input_exit_3(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE + "input = /nonexistent/h.txt\n")
        assert main(["detect", "--config", cfg, "--out", "-"]) == 3

    @pytest.mark.parametrize("raw", [
        b"HSBM 6 2 2\n2 0 1\n2 3 \xff\n",  # in an edge line
        b"HSBM 6 2 2\xe9\n2 0 1\n",  # in the header
        b"HSBM 6 2 2\nLABELS 0 0 0 1 1 \xc3\n",  # a truncated sequence
    ])
    def test_input_not_utf8_exit_2(self, tmp_path, capsys, raw):
        hfile = tmp_path / "h.txt"
        hfile.write_bytes(raw)
        cfg = write(tmp_path / "c.cfg", f"n = 6\nk = 2\norders = 2:3,1\ninput = {hfile}\n")
        assert main(["detect", "--config", cfg, "--out", "-"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: 'utf-8' codec can't decode byte")

    def test_detect_never_imports_scipy_optimize(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "n = 600\nk = 3\norders = 2:40,4;3:30,3\nseed = 3\n")
        hfile = tmp_path / "h.txt"
        assert main(["sample", "--config", cfg, "--out", str(hfile)]) == 0
        dcfg = write(tmp_path / "d.cfg", f"n = 600\nk = 3\norders = 2:40,4;3:30,3\n"
                                         f"input = {hfile}\n")
        code = ("import sys\nfrom hyperblock.cli import main\n"
                f"assert main(['detect', '--config', {dcfg!r}, '--out', 'l.tsv']) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        lines = _run_clean(["-c", code], tmp_path).stdout.splitlines()
        assert lines[0].startswith("gamma,") and lines[-1] == "[]"  # scored, nothing loaded


    @pytest.mark.parametrize("from_file", [True, False])
    def test_instance_freed_before_spectral_stage(self, tmp_path, monkeypatch, from_file):
        # detect hands the read or sampled instance to partition, which drops
        # it once it is split into red and blue halves: none of its edge
        # arrays is alive when the spectral stage runs
        model = "n = 600\nk = 3\norders = 2:40,4;3:30,3\nseed = 3\n"
        if from_file:
            hfile = tmp_path / "h.txt"
            assert main(["sample", "--config", write(tmp_path / "s.cfg", model),
                         "--out", str(hfile)]) == 0
            model += f"input = {hfile}\n"
        module, name = (fileio, "read_hypergraph") if from_file else (sampler, "sample_hsbm")
        make, stage = getattr(module, name), pipeline.spectral_partition_k
        refs, alive = [], []

        def watched(*args):
            instance = make(*args)
            refs.extend(weakref.ref(arr) for arr in instance[0].edges.values())
            return instance

        def spy(*args):
            alive.append([ref() is not None for ref in refs])
            return stage(*args)
        monkeypatch.setattr(module, name, watched)
        monkeypatch.setattr(pipeline, "spectral_partition_k", spy)
        cfg = write(tmp_path / "d.cfg", model)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "l.tsv")]) == 0
        assert len(refs) == 2 and alive == [[False, False]]


class TestExperimentCommand:
    CFG = ("n = 300\nk = 2\norders = 2:0,0\nladder = 20,40\nbase_b = 3\n"
           "ladder_order = 2\ntrials = 2\nseed = 3\n")

    def test_row_count_and_summary(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", self.CFG)
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 rungs x 2 trials
        summary = (tmp_path / "exp.csv.summary").read_text().splitlines()
        assert len(summary) == 2
        snrs = [float(ln.split("\t")[0]) for ln in summary]
        assert snrs == sorted(snrs)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment", "--config", cfg, "--jobs", "1", "--out", str(a)]) == 0
        assert main(["experiment", "--config", cfg, "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary").read_bytes() == (tmp_path / "b.csv.summary").read_bytes()

    # sha256 of the trial CSV and the summary on a small k = 2 ladder; a
    # change to the trial seeds or to any k = 2 pipeline stage changes these
    PIN = ("n = 300\nk = 2\norders = 3:20,10\nladder = 10,40\nbase_b = 10\n"
           "ladder_order = 3\ntrials = 2\n")
    PINNED = {
        1: ("f27bc3499062209b48060b56a18dc7250c4eb698c0144b8efd5af38ccf54b4dc",
            "fd7b2eb637f30d43d8284f04084e31a89e5064ca3104ce0201ec4cc17b6c45da"),
        2: ("5b6026d47de0134ccc032491cd96e2388d91c422bebb4c2eced287852a48ef7a",
            "9c8da3116300aeb607914fd2dc68fdeba3505b2c9bdea9d12ed54d4122c1e964"),
    }

    @pytest.mark.parametrize("seed", list(PINNED))
    def test_pinned_experiment_bytes(self, tmp_path, seed):
        cfg = write(tmp_path / "c.cfg", self.PIN)
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (out, tmp_path / "exp.csv.summary"))
        assert digests == self.PINNED[seed]

    def test_experiment_trial_frees_the_instance(self, monkeypatch):
        # an experiment trial hands its sampled instance to partition as
        # detect does: no edge array of it is alive in the spectral stage
        make, stage = sampler.sample_hsbm, pipeline.spectral_partition_k
        refs, alive = [], []

        def watched(*args):
            instance = make(*args)
            refs.extend(weakref.ref(arr) for arr in instance[0].edges.values())
            return instance

        def spy(*args):
            alive.append([ref() is not None for ref in refs])
            return stage(*args)
        monkeypatch.setattr(sampler, "sample_hsbm", watched)
        monkeypatch.setattr(pipeline, "spectral_partition_k", spy)
        params = ModelParams(600, 3, {2: (40, 4), 3: (30, 3)})
        runner.run_detect_trial(runner.DetectTrial(params, 0.75, 3, 4))
        assert len(refs) == 2 and alive == [[False, False]]


class TestConclabCommand:
    CFG = "n = 80\nk = 2\norders = 2:6,3;3:4,1\nsizes = 60,80\ntrials = 2\nseed = 2\n"

    def test_rows_and_determinism(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["conclab", "--config", cfg, "--jobs", "1", "--out", str(a)]) == 0
        assert main(["conclab", "--config", cfg, "--jobs", "2", "--out", str(b)]) == 0
        rows = a.read_text().splitlines()
        assert rows[0].startswith("n,k,d,tau,seed,")
        assert len(rows) == 1 + 4
        assert a.read_bytes() == b.read_bytes()

    # sha256 of the CSV on a small size grid; a change to the trial seeds,
    # the sampler or the norm solver changes these
    PIN = "n = 400\nk = 2\norders = 2:10,5;3:10,5\nsizes = 200,400\ntrials = 2\n"
    PINNED = {
        1: "9fe88c5f737cd1ea5f5175f776ec42d306162e90550a9dcbff83080d9f682c94",
        2: "735031706638520697b10079be972d6c3f5f1c592f15f54bb4e4da72f1298636",
    }

    @pytest.mark.parametrize("seed", list(PINNED))
    def test_pinned_conclab_bytes(self, tmp_path, seed):
        cfg = write(tmp_path / "c.cfg", self.PIN)
        out = tmp_path / "c.csv"
        assert main(["conclab", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[seed]

    def test_pinned_trimmed_conclab_bytes(self, tmp_path):
        # at tau = 1 every trial zeroes some rows, so each regularized norm
        # is solved on the operator that masks its vectors
        cfg = write(tmp_path / "c.cfg", self.PIN + "tau = 1\n")
        out = tmp_path / "c.csv"
        assert main(["conclab", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert all(float(r.split(",")[7]) < 1.0 for r in out.read_text().splitlines()[1:])
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "3ebe3f42036365f5a8d59ec591ffab7b04d945180db14ddb8874667be7005554")

    def test_pinned_heavily_trimmed_conclab_bytes(self, tmp_path):
        # at tau = 0.5 every trial zeroes 40-48 % of its rows; the digest was
        # recorded when the regularized norm read a masked copy of the
        # adjacency, so it also pins masking the vectors to the same bits
        cfg = write(tmp_path / "c.cfg", "n = 2000\nk = 2\norders = 3:30,10\n"
                    "sizes = 1000,2000\ntrials = 5\ntau = 0.5\n")
        out = tmp_path / "c.csv"
        assert main(["conclab", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert all(0.5 < float(r.split(",")[7]) < 0.61 for r in out.read_text().splitlines()[1:])
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "7695ff63c4b8cc176f0a89f4ce1ace2e0c5c5ddbd81a84f9a35cedb6d259c970")

    def test_debug_log_line_per_trial_same_bytes(self, tmp_path):
        # at tau = 1 two trials trim rows and two keep every vertex
        cfg = write(tmp_path / "c.cfg", self.CFG + "tau = 1\n")
        quiet, logged = tmp_path / "quiet.csv", tmp_path / "logged.csv"
        _run_clean(["-m", "hyperblock.cli", "conclab", "--config", cfg, "--out", str(quiet)],
                   tmp_path)
        err = _run_clean(["-m", "hyperblock.cli", "conclab", "--config", cfg,
                          "--out", str(logged)], tmp_path, HYPERBLOCK_LOG="debug").stderr
        assert logged.read_bytes() == quiet.read_bytes()
        lines = [ln for ln in err.splitlines() if "concentration trial:" in ln]
        rows = [r.split(",") for r in quiet.read_text().splitlines()[1:]]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            n, seed = row[0], row[4]
            kept = round(float(row[7]) * int(n))
            assert f"n={n} seed={seed} kept={kept} " in line
            assert line.endswith("reused from raw" if kept == int(n) else "solved")
        assert {line.endswith("solved") for line in lines} == {True, False}

    def test_tau_zero_keeps_no_edges(self, tmp_path):
        # tau = 0 keeps only isolated vertices, so the regularized operator
        # is zero (the second trial keeps no vertex at all)
        cfg = write(tmp_path / "c.cfg",
                    "n = 500\nk = 2\norders = 2:10,5\nsizes = 500\ntau = 0\ntrials = 2\n")
        out = tmp_path / "c.csv"
        assert main(["conclab", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [(r[6], r[7]) for r in rows] == [("0.0", "0.002"), ("0.0", "0.0")]


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        cfg = write(tmp_path / "c.cfg", TestExperimentCommand.CFG)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", cfg, "--jobs", jobs, "--out", "-"])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs, workers", [(500, 3), (2, 2)])
    def test_pool_never_larger_than_items(self, monkeypatch, jobs, workers):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor; runs in process, starts nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        assert runner.pmap(abs, [-1, -2, 3], jobs=jobs) == [1, 2, 3]
        assert sizes == [workers]


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-5", str(2**64), "x"])
    def test_outside_u64_exit_2(self, tmp_path, capsys, seed):
        cfg = write(tmp_path / "c.cfg", BASE)
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", cfg, "--seed", seed, "--out", "-"])
        assert exc.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_u64_bounds_accepted(self, tmp_path, seed):
        cfg = write(tmp_path / "c.cfg", BASE)
        assert main(["sample", "--config", cfg, "--seed", seed,
                     "--out", str(tmp_path / "h.txt")]) == 0


def _run_clean(args, cwd, **extra):
    """Run Python with ``src`` on the path, no ``*_NUM_THREADS`` but ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(extra, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=300)


def _scipy_modules_after(code, cwd):
    """The scipy modules loaded once ``code`` has run in a clean process."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return _run_clean(["-c", code], cwd).stdout.splitlines()[-1]


class TestImportSurface:
    """A command loads only what it runs; scipy only where a stage needs it."""

    @pytest.mark.parametrize("command", ["sample", "snr"])
    def test_numpy_only_commands_never_import_scipy(self, tmp_path, command):
        cfg = write(tmp_path / "c.cfg", BASE)
        code = ("from hyperblock.cli import main\n"
                f"assert main([{command!r}, '--config', {cfg!r}, '--out', 'o.txt']) == 0")
        assert _scipy_modules_after(code, tmp_path) == "[]"
        assert (tmp_path / "o.txt").stat().st_size > 0

    def test_bare_import_loads_no_scipy_and_sets_one_thread(self, tmp_path):
        code = ("import os, sys, hyperblock\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], 'scipy' in sys.modules)")
        assert _run_clean(["-c", code], tmp_path).stdout == "1 False\n"

    def test_first_use_of_a_name_loads_its_module(self, tmp_path):
        # the check above can see scipy: a name from pipeline loads it
        assert _scipy_modules_after("import hyperblock\nhyperblock.partition",
                                    tmp_path) != "[]"


class TestThreadDefault:
    def thread_env_after(self, tmp_path, imports, **extra):
        code = (f"import json, os\n{imports}\n"
                "print(json.dumps({k: v for k, v in os.environ.items() "
                "if k.endswith('_NUM_THREADS')}))")
        return json.loads(_run_clean(["-c", code], tmp_path, **extra).stdout)

    def test_import_sets_one_openblas_thread(self, tmp_path):
        env = self.thread_env_after(tmp_path, "import hyperblock")
        assert env == {"OPENBLAS_NUM_THREADS": "1"}

    def test_user_thread_variable_kept(self, tmp_path):
        env = self.thread_env_after(tmp_path, "import hyperblock", OMP_NUM_THREADS="2")
        assert env == {"OMP_NUM_THREADS": "2"}

    def test_numpy_loaded_first_leaves_environment(self, tmp_path):
        assert self.thread_env_after(tmp_path, "import numpy, hyperblock") == {}

    def test_experiment_bytes_independent_of_blas_threads(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", TestExperimentCommand.CFG)
        outputs = []
        for name, extra in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"{name}.csv"
            _run_clean(["-m", "hyperblock.cli", "experiment", "--config", cfg,
                        "--out", str(out)], tmp_path, **extra)
            outputs.append((out.read_bytes(), Path(f"{out}.summary").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_conclab_bytes_independent_of_blas_threads(self, tmp_path):
        # the benchmark's conclab config (sizes 500 to 4000) at seed 1
        cfg = write(tmp_path / "c.cfg", "n = 4000\nk = 2\norders = 2:10,5;3:10,5\n"
                    "sizes = 500,1000,2000,4000\ntrials = 6\n")
        digests = set()
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.csv"
            _run_clean(["-m", "hyperblock.cli", "conclab", "--config", cfg, "--seed", "1",
                        "--out", str(out)], tmp_path, OPENBLAS_NUM_THREADS=threads)
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests == {"8eafe79e075aef2f04186fb77a6347e6da4b3f6026131b330e80d3b2b1f4cd92"}
