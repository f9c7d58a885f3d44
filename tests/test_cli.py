"""End-to-end command surface: files, digests, exit codes, reproducibility."""

import contextlib
import dataclasses
import io
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsearch.cli import main, read_csv, write_csv
from attnsearch.config import ExperimentConfig
from attnsearch.search import SupernetEvaluator
from attnsearch.supernet import ConnectionScheme, count_params, flop_increment_pct

TINY = {
    "seed": 4,
    "backbone": {"stages": [[2, 4], [2, 6]], "input_shape": [1, 6, 6], "classes": 3,
                 "sam": "se", "reduction": 2},
    "dataset": {"classes": 3, "per_class": 12, "noise": 0.3},
    "supernet": {"steps": 12, "batch_size": 4, "learning_rate": 0.02,
                 "weight_decay": 0.001, "lr_drop_step": None},
    "search": {"iterations": 8},
    "study": {"ratios": [0.25, 0.5], "samples_per_ratio": 4},
    "theory": {"d": 4, "epsilon": 1.0, "delta": 0.2, "trials": 150, "probes": 20,
               "dof_convention": "corrected"},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "exp.json"
    cfg = dict(TINY)
    cfg["output_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestPretrainAndSearch:
    def test_pipeline_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run("pretrain", "--config", tiny_config) == 0
        ckpt = out / "supernet.ckpt"
        assert ckpt.exists()
        assert run("search", "--config", tiny_config, "--checkpoint", ckpt) == 0
        digest, rows = read_csv(out / "trace.csv")
        assert len(digest) == 64
        assert len(rows) == 8
        assert list(rows[0]) == ["iteration", "scheme", "sparse", "g_val",
                                 "g_rnd", "reward", "p_bar"]
        schemes = json.loads((out / "schemes.json").read_text())
        assert schemes["config_digest"] == digest
        assert 1 <= len(schemes["best"]) <= 3
        pbar_digest, pbar_rows = read_csv(out / "pbar.csv")
        assert pbar_digest == digest and len(pbar_rows) == 8
        timing = json.loads((out / "search_timing.json").read_text())
        assert timing["iterations"] == len(rows) == 8
        assert timing["distinct_schemes"] == len({r["scheme"] for r in rows})
        assert 1 <= timing["distinct_schemes"] <= timing["iterations"]

    def test_search_refuses_foreign_checkpoint(self, tiny_config, tmp_path):
        other_cfg = dict(TINY, seed=99, output_dir=str(tmp_path / "other"))
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other_cfg))
        assert run("pretrain", "--config", other_path) == 0
        rc = run("search", "--config", tiny_config,
                 "--checkpoint", tmp_path / "other" / "supernet.ckpt")
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        blobs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            assert run("pretrain", "--config", tiny_config, "--output-dir", d) == 0
            assert run("search", "--config", tiny_config, "--output-dir", d,
                       "--checkpoint", d / "supernet.ckpt") == 0
            blobs[tag] = {name: (d / name).read_bytes()
                          for name in ("supernet.ckpt", "trace.csv", "pbar.csv",
                                       "schemes.json")}
        assert blobs["a"] == blobs["b"]

    def test_search_with_no_iterations_writes_nothing(self, tmp_path, capsys):
        cfg = dict(TINY, output_dir=str(tmp_path / "zero"), search={"iterations": 0})
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        # refused at load, before the checkpoint is opened
        assert run("search", "--config", path, "--checkpoint", tmp_path / "none.ckpt") == 1
        assert capsys.readouterr().err == \
            "error: config field 'search.iterations' must be >= 1, got 0\n"
        assert not (tmp_path / "zero").exists()

    def test_search_refuses_an_unpretrained_checkpoint(self, tmp_path, capsys):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg["supernet"] = dict(TINY["supernet"], steps=0)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "p" / "supernet.ckpt"
        assert run("pretrain", "--config", path, "--output-dir", tmp_path / "p") == 0
        capsys.readouterr()
        assert run("search", "--config", path, "--checkpoint", ckpt) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: the backbone was never pre-trained (supernet.steps 0); "
            "search needs a pre-trained proxy\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", ["truncate", "trailing"])
    def test_search_refuses_damaged_checkpoint(self, tiny_config, tmp_path, capsys, damage):
        ckpt = tmp_path / "p" / "supernet.ckpt"
        assert run("pretrain", "--config", tiny_config, "--output-dir", tmp_path / "p") == 0
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:len(blob) // 2] if damage == "truncate" else blob + b"junk")
        capsys.readouterr()
        assert run("search", "--config", tiny_config, "--checkpoint", ckpt) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg["supernet"] = dict(TINY["supernet"], steps=0)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert run("pretrain", "--config", path) == 0
        from attnsearch.checkpoint import load_checkpoint
        from attnsearch.config import ExperimentConfig
        conf = ExperimentConfig.from_file(path)
        loaded = conf.build_supernet()
        load_checkpoint(tmp_path / "o" / "supernet.ckpt", loaded, conf.digest())
        fresh = conf.build_supernet()
        for (n1, p1), (n2, p2) in zip(loaded.named_parameters(),
                                      fresh.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.value, p2.value)


class TestEnumerateAndStudy:
    def test_enumerate_emits_all_rows(self, tmp_path):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg["backbone"] = {"stages": [[1, 4], [1, 6]], "input_shape": [1, 6, 6],
                           "classes": 3, "sam": "se", "reduction": 2}
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(cfg))
        assert run("enumerate", "--config", path) == 0
        _, rows = read_csv(tmp_path / "o" / "ranking.csv")
        assert len(rows) == 4
        assert {r["scheme"] for r in rows} == {"00", "01", "10", "11"}

    def test_study_rows_and_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run("study", "--config", tiny_config) == 0
        digest, rows = read_csv(out / "study_rows.csv")
        assert all(r["scheme"].count("1") == int(r["ones"]) for r in rows)
        summary = json.loads((out / "study_summary.json").read_text())
        assert summary["config_digest"] == digest
        assert set(summary["per_ratio"]) == {"0.25", "0.5"}
        for stats in summary["per_ratio"].values():
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_study_rows_carry_cost_columns(self, tmp_path):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"), study={"ratios": [0.5],
                                                                "samples_per_ratio": 4})
        cfg["backbone"] = {"stages": [[4, 8], [4, 8]], "input_shape": [1, 6, 6],
                           "classes": 3, "sam": "se", "reduction": 4}
        path = tmp_path / "cost.json"
        path.write_text(json.dumps(cfg))
        assert run("study", "--config", path) == 0
        backbone = ExperimentConfig.from_file(path).backbone
        _, rows = read_csv(tmp_path / "o" / "study_rows.csv")
        assert len(rows) == 4
        for r in rows:
            scheme = ConnectionScheme.from_string(r["scheme"])
            # C=8, r=4: 8*2*2 + 2 + 8 = 42 parameters per connected block
            assert int(r["extra_params"]) == 4 * 42 == count_params(backbone, scheme)[1]
            assert float(r["flop_increment_pct"]) == flop_increment_pct(backbone, scheme) > 0

    def test_report_recomputes_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run("study", "--config", tiny_config) == 0
        assert run("report", "--rows", out / "study_rows.csv",
                   "--config", tiny_config, "--out", out / "rep.json") == 0
        rep = json.loads((out / "rep.json").read_text())
        summary = json.loads((out / "study_summary.json").read_text())
        assert rep["per_ratio"] == summary["per_ratio"]

    def test_report_rejects_wrong_config(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run("study", "--config", tiny_config) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(TINY, seed=123)))
        assert run("report", "--rows", out / "study_rows.csv",
                   "--config", other) == 1

    @pytest.mark.parametrize("missing", ["ratio", "accuracy"])
    def test_report_refuses_rows_without_a_summary_column(self, tmp_path, capsys, missing):
        rows = tmp_path / "rows.csv"
        row = {"scheme": "0110", "ones": 2, "ratio": 0.5, "accuracy": 0.75}
        columns = [c for c in row if c != missing]
        write_csv(rows, "d" * 64, columns, [[row[c] for c in columns]])
        assert run("report", "--rows", rows) == 1
        assert capsys.readouterr().err == f"error: {rows}: no {missing!r} column\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    def test_report_refuses_a_file_without_rows(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        write_csv(rows, "d" * 64, ["scheme", "ones", "ratio", "accuracy"], [])
        assert run("report", "--rows", rows) == 1
        assert capsys.readouterr().err == f"error: {rows}: no rows to report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    @pytest.mark.parametrize("last, message", [
        ("0011,2", "expected 6 fields, got 2"),
        ("0011,2,0.5,0.75,84,3.1,7", "expected 6 fields, got 7"),
        ("0011,2,half,0.75,84,3.1", "could not convert string to float: 'half'"),
        ("0011,2,0.5,abc,84,3.1", "could not convert string to float: 'abc'"),
    ], ids=["truncated", "extra-field", "text-ratio", "text-accuracy"])
    def test_report_names_the_line_of_a_bad_row(self, tmp_path, capsys, last, message):
        rows = tmp_path / "rows.csv"
        columns = ["scheme", "ones", "ratio", "accuracy", "extra_params", "flop_increment_pct"]
        write_csv(rows, "d" * 64, columns, [["0110", 2, 0.5, 0.75, 84, 3.1]] * 2)
        with open(rows, "a", encoding="utf-8") as fh:
            fh.write(last)  # the last line, cut before its newline
        assert run("report", "--rows", rows) == 1
        assert capsys.readouterr().err == f"error: {rows}:5: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


class TestBaselines:
    def test_hsp(self, tiny_config, tmp_path):
        assert run("baseline", "hsp", "--config", tiny_config,
                   "--period", 2, "--offset", 0) == 0
        payload = json.loads((tmp_path / "out" / "baseline_hsp.json").read_text())
        assert payload["scheme"] == "1010"

    def test_ga(self, tiny_config, tmp_path):
        assert run("baseline", "ga", "--config", tiny_config,
                   "--population", 8, "--generations", 4) == 0
        payload = json.loads((tmp_path / "out" / "baseline_ga.json").read_text())
        assert len(payload["scheme"]) == 4

    @pytest.mark.parametrize("generations", [0, -3])
    def test_ga_refuses_fewer_than_one_generation(self, tiny_config, tmp_path, capsys,
                                                  generations):
        assert run("baseline", "ga", "--config", tiny_config,
                   "--generations", generations) == 1
        err = capsys.readouterr().err
        assert err == f"error: generations must be at least 1, got {generations}\n"
        assert not (tmp_path / "out").exists()

    def test_ga_scores_each_distinct_scheme_once(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run("pretrain", "--config", tiny_config) == 0
        calls = {}
        score = SupernetEvaluator.__call__

        def counted(self, scheme):
            calls[scheme.to_string()] = calls.get(scheme.to_string(), 0) + 1
            return score(self, scheme)

        monkeypatch.setattr(SupernetEvaluator, "__call__", counted)
        assert run("baseline", "ga", "--config", tiny_config, "--backend", "supernet",
                   "--checkpoint", out / "supernet.ckpt",
                   "--population", 8, "--generations", 4) == 0
        payload = json.loads((out / "baseline_ga.json").read_text())
        assert payload["scheme"] in calls
        assert max(calls.values()) == 1, calls

    def test_l1_needs_checkpoint(self, tiny_config):
        assert run("baseline", "l1", "--config", tiny_config) == 1

    def test_l1_with_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run("pretrain", "--config", tiny_config) == 0
        assert run("baseline", "l1", "--config", tiny_config,
                   "--checkpoint", out / "supernet.ckpt", "--keep-ratio", 0.5) == 0
        payload = json.loads((out / "baseline_l1.json").read_text())
        assert payload["scheme"].count("1") == 2


class TestVerifySubcommands:
    def test_verify_thm1_passes_with_corrected_dof(self, tiny_config, tmp_path):
        assert run("verify-thm1", "--config", tiny_config) == 0
        report = json.loads((tmp_path / "out" / "thm1_report.json").read_text())
        assert report["passed"] is True
        assert report["m_min_corrected"] >= report["m_min_literal"]
        assert report["zeroing_dominance"]["ok"] is True

    def test_verify_thm1_literal_dof_fails_band(self, tmp_path):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg["theory"] = {"d": 4, "epsilon": 0.8, "delta": 0.15, "trials": 300,
                         "probes": 10, "dof_convention": "literal"}
        path = tmp_path / "lit.json"
        path.write_text(json.dumps(cfg))
        assert run("verify-thm1", "--config", path) == 2

    def test_extend_demo(self, tiny_config, tmp_path):
        assert run("extend-demo", "--config", tiny_config) == 0
        report = json.loads((tmp_path / "out" / "extend_report.json").read_text())
        assert report["extension_error"] == 0.0
        assert report["embedding_error"] <= 1e-12
        assert report["extended_depth"] == report["original_depth"] + 4


class TestAtomicWrites:
    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "o" / "rows.csv"
        write_csv(path, "d" * 64, ["a"], [(1,), (2,)])
        before = path.read_bytes()

        def rows():
            yield (3,)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(path, "e" * 64, ["a"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["rows.csv"]


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert run("pretrain", "--config", tmp_path / "nope.json") == 1

    def test_unknown_subcommand(self):
        assert run("fly") == 1

    def test_supernet_backend_needs_checkpoint(self, tiny_config):
        assert run("enumerate", "--config", tiny_config,
                   "--backend", "supernet") == 1

    @pytest.mark.parametrize("section, patch, message", [
        ("supernet", {"steps": "3"}, "'supernet.steps' must be int, got '3'"),
        ("backbone", {"stages": [[2, 4], [2, 0]]}, "(blocks, channels) pair"),
        ("backbone", {"stages": None}, "'backbone' is missing ['stages']"),
        ("backbone", {"classes": 2}, "dataset has 3 classes but the backbone only 2"),
        ("study", {"ratios": ["a"]}, "study ratios must be numbers in [0, 1]"),
        ("theory", {"dof_convention": "bogus"},
         "'theory.dof_convention' must be 'literal', 'corrected' or 'both', got 'bogus'"),
        ("theory", {"probes": 0}, "'theory.probes' must be >= 1, got 0"),
        ("supernet", {"batch_size": 0}, "'supernet.batch_size' must be >= 1, got 0"),
        ("supernet", {"steps": -5}, "'supernet.steps' must be >= 0, got -5"),
        ("study", {"samples_per_ratio": 0}, "'study.samples_per_ratio' must be >= 1, got 0"),
        ("supernet", {"lr_drop_factor": -1.0},
         "'supernet.lr_drop_factor' must be > 0, got -1.0"),
        ("supernet", {"lr_drop_factor": 0}, "'supernet.lr_drop_factor' must be > 0, got 0"),
        ("backbone", {"reduction": 0}, "reduction 0 must lie in [1, 4]"),
        ("backbone", {"reduction": 5}, "reduction 5 must lie in [1, 4]"),
        ("backbone", {"sam": "sge", "groups": 0}, "groups 0 must lie in [1, 4]"),
        ("backbone", {"sam": "sge", "groups": 5}, "groups 5 must lie in [1, 4]"),
        ("backbone", {"input_shape": [1, 0, 6]},
         "input_shape must be three positive integers (C, H, W), got (1, 0, 6)"),
        ("controller", {"ppo_period": 0}, "unknown config keys: ['controller']"),
        ("supernet", {"learning_rate": 0}, "'supernet.learning_rate' must be > 0, got 0"),
        ("supernet", {"momentum": 1.0}, "'supernet.momentum' must lie in [0, 1), got 1.0"),
        ("supernet", {"weight_decay": -0.1}, "'supernet.weight_decay' must be >= 0, got -0.1"),
        ("study", {"ratios": []}, "'study.ratios' must not be empty"),
        ("dataset", {"blobs_per_class": 0}, "'dataset.blobs_per_class' must be >= 1, got 0"),
        ("dataset", {"per_class": -1}, "'dataset.per_class' must be >= 1, got -1"),
        ("dataset", {"classes": -1}, "'dataset.classes' must be >= 1, got -1"),
        ("backbone", {"input_shape": [1, 8.5, 8]},
         "input_shape must be three positive integers (C, H, W), got (1, 8.5, 8)"),
        ("backbone", {"input_shape": [1, 6.0, 6]},
         "input_shape must be three positive integers (C, H, W), got (1, 6.0, 6)"),
        ("backbone", {"stages": [[1, 4]], "input_shape": [1, 1, 1]},
         "'backbone.input_shape' must have H, W >= 2 for dataset.kind 'blobs', got (1, 1, 1)"),
        ("dataset", {"noise": -1.0}, "'dataset.noise' must be >= 0, got -1.0"),
        ("supernet", {"lr_drop_step": -1}, "'supernet.lr_drop_step' must be >= 0 or null, got -1"),
        ("supernet", {"beta": 1.5, "steps": 0}, "'supernet.beta' must lie in [0, 1], got 1.5"),
        ("supernet", {"beta": -0.5, "steps": 0}, "'supernet.beta' must lie in [0, 1], got -0.5"),
        ("search", {"evaluations": 5}, "unknown config keys: ['search.evaluations']"),
        ("rewards", {"normalize_rnd": False}, "unknown config keys: ['rewards.normalize_rnd']"),
        ("controller", {"clip_ratios": True}, "unknown config keys: ['controller']"),
        ("search", {"iterations": 0}, "'search.iterations' must be >= 1, got 0"),
        ("search", {"wallclock_seconds": 5.0},
         "unknown config keys: ['search.wallclock_seconds']"),
        ("dataset", {"shape": [1, 6, 6]}, "unknown config keys: ['dataset.shape']"),
        ("dataset", {"kind": "digits"},
         "'backbone.input_shape' must be (1, 8, 8) for dataset.kind 'digits', got (1, 6, 6)"),
        ("dataset", {"kind": "digits", "classes": 11},
         "'dataset.classes' must be <= 10 for kind 'digits', got 11"),
        ("dataset", {"kind": "pixels"},
         "'dataset.kind' must be 'blobs', 'digits' or 'csv', got 'pixels'"),
        ("dataset", {"kind": "csv"}, "'dataset.csv_path' must be set for kind 'csv', got None"),
        ("dataset", {"val_fraction": 0}, "'dataset.val_fraction' must lie in (0, 1), got 0"),
        ("dataset", {"val_fraction": 1.0},
         "'dataset.val_fraction' must lie in (0, 1), got 1.0"),
        (None, {"seed": -1}, "config field 'seed' must be >= 0, got -1"),
        ("theory", {"d": 1}, "'theory.d' must be >= 2, got 1"),
        ("theory", {"epsilon": 0}, "'theory.epsilon' must be > 0, got 0"),
        ("theory", {"delta": 1.5}, "'theory.delta' must lie in (0, 1), got 1.5"),
        ("theory", {"delta": 0}, "'theory.delta' must lie in (0, 1), got 0"),
        ("theory", {"trials": 5}, "'theory.trials' must be >= 100, got 5"),
        ("theory", {"epsilon": 1e-3},
         "config section 'theory' needs 7.7e+15 normal draws in verify-thm1 (trials x d x "
         "width bound), more than 1e+11; raise theory.epsilon or lower theory.trials"),
        ("theory", {"epsilon": 1e-10}, "needs inf normal draws in verify-thm1"),
        ("theory", {"dof_convention": "both", "epsilon": 0.05, "trials": 20000},
         "needs 1.6e+11 normal draws in verify-thm1"),
    ], ids=["string-steps", "zero-channels", "no-stages", "class-mismatch", "ratio-text",
            "bogus-dof", "zero-probes", "zero-batch",
            "negative-steps", "zero-samples-per-ratio", "negative-lr-drop",
            "zero-lr-drop", "zero-reduction", "reduction-past-width", "zero-groups",
            "groups-past-width", "zero-input-height", "removed-controller",
            "zero-supernet-lr", "supernet-momentum-one", "negative-weight-decay",
            "no-ratios", "zero-blobs", "negative-per-class", "negative-classes",
            "fractional-shape", "float-shape", "one-pixel-blobs", "negative-noise",
            "negative-lr-drop-step", "beta-above-one", "negative-beta", "removed-evaluations",
            "removed-normalize-rnd", "removed-clip-ratios", "zero-iterations",
            "removed-wallclock", "removed-dataset-shape", "digits-not-8x8",
            "digits-past-10-classes", "unknown-kind", "csv-without-path",
            "zero-val-fraction", "val-fraction-one",
            "negative-seed", "theory-d-one", "zero-epsilon", "delta-above-one", "zero-delta",
            "few-trials", "tiny-epsilon", "unbounded-width", "both-conventions-too-wide"])
    def test_bad_config_exits_1_with_one_line(self, tmp_path, capsys, section, patch, message):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        if section is None:
            cfg.update(patch)
        else:
            cfg[section] = {k: v for k, v in {**TINY.get(section, {}), **patch}.items()
                            if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert_every_config_command_refuses(tmp_path, capsys, path, message)

    def test_env_seed_not_an_integer_exits_1_with_one_line(self, tmp_path, capsys,
                                                            monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "o"))))
        monkeypatch.setenv("ATTNSEARCH_SEED", "x")
        assert_every_config_command_refuses(
            tmp_path, capsys, path, "error: ATTNSEARCH_SEED must be an integer, got 'x'\n")

    def test_non_finite_checkpoint_exits_1_with_one_line(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "p" / "supernet.ckpt"
        assert run("pretrain", "--config", tiny_config, "--output-dir", tmp_path / "p") == 0
        blob = ckpt.read_bytes()
        # fc.bias is the last blob: its last entry is the file's last 8 bytes
        ckpt.write_bytes(blob[:-8] + struct.pack("<d", math.nan))
        capsys.readouterr()
        for command in (["search"], ["enumerate", "--backend", "supernet"],
                        ["study", "--backend", "supernet"],
                        ["baseline", "hsp", "--backend", "supernet"],
                        ["baseline", "ga", "--backend", "supernet"], ["baseline", "l1"]):
            assert run(*command, "--config", tiny_config, "--checkpoint", ckpt) == 1
            assert capsys.readouterr().err == \
                f"error: {ckpt}: fc.bias holds a non-finite value\n"
            assert not (tmp_path / "out").exists()

    def test_divergent_pretraining_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg["supernet"] = dict(TINY["supernet"], learning_rate=1e6, steps=30)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("pretrain", "--config", path) == 1
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged at step \d+: loss \S+, "
                            r"global gradient norm \S+\n", err), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_exit_1_with_one_line(self, tmp_path, capsys, token):
        text = json.dumps(dict(TINY, output_dir=str(tmp_path / "o")))
        assert text.count('"learning_rate": 0.02') == 1
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"learning_rate": 0.02', f'"learning_rate": {token}'))
        assert run("pretrain", "--config", path) == 1
        assert capsys.readouterr().err == f"error: {path}: {token} is not a JSON value\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--dim", "--depth", "--width", "--probes"])
    def test_extend_demo_refuses_sizes_below_one(self, tiny_config, tmp_path, capsys, flag):
        assert run("extend-demo", "--config", tiny_config, flag, 0) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", [3, -1], ids=["past-last-class", "negative"])
    def test_csv_label_outside_classes_exits_1_with_one_line(self, tmp_path, capsys, label):
        data = tmp_path / "data.csv"
        pixels = ",".join(["0.5"] * 36)
        data.write_text("".join(f"{y},{pixels}\n" for y in [0, 1, 2, label] * 4))
        cfg = dict(TINY, output_dir=str(tmp_path / "o"),
                   dataset={"kind": "csv", "csv_path": str(data)})
        path = tmp_path / "csv.json"
        path.write_text(json.dumps(cfg))
        assert run("pretrain", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{data}: label {label} " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("label, pixel, message", [
        ("1.0", "0.5", "invalid literal for int() with base 10: '1.0'"),
        ("1", "x", "could not convert string to float: 'x'"),
        ("1", "nan", "pixels must lie in [0,1]"),
    ], ids=["float-label", "text-pixel", "nan-pixel"])
    def test_csv_parse_error_names_file_and_line(self, tmp_path, capsys, label, pixel,
                                                 message):
        data = tmp_path / "data.csv"
        pixels = ",".join(["0.5"] * 35)
        rows = [f"{y},{pixels},0.5\n" for y in [0, 1, 2] * 4]
        rows[2] = f"{label},{pixels},{pixel}\n"
        data.write_text("".join(rows))
        cfg = dict(TINY, output_dir=str(tmp_path / "o"),
                   dataset={"kind": "csv", "csv_path": str(data)})
        path = tmp_path / "csv.json"
        path.write_text(json.dumps(cfg))
        assert run("pretrain", "--config", path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}:3: {message}\n"
        assert not (tmp_path / "o").exists()


def assert_every_config_command_refuses(tmp_path, capsys, path, message):
    """Every command that reads the config at `path` exits 1 with one stderr line
    holding `message`, and writes nothing."""
    rows = tmp_path / "rows" / "study_rows.csv"
    write_csv(rows, "d" * 64, ["ratio", "accuracy"], [(0.5, 0.75)])
    for command in (["pretrain"], ["search", "--checkpoint", tmp_path / "none.ckpt"],
                    ["enumerate"], ["study"], ["baseline", "hsp"], ["baseline", "ga"],
                    ["baseline", "l1", "--checkpoint", tmp_path / "none.ckpt"],
                    ["verify-thm1"], ["extend-demo"], ["report", "--rows", rows]):
        assert run(*command, "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "o").exists()
    assert [p.name for p in rows.parent.iterdir()] == ["study_rows.csv"]


def _config_fields():
    """(section, field) of every config key, None for top-level keys."""
    defaults = ExperimentConfig()
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        if dataclasses.is_dataclass(value):
            yield from ((f.name, g.name) for g in dataclasses.fields(value))
        elif f.name != "output_dir":  # the test owns where outputs go
            yield None, f.name


# zero, negative, fractional, wrong JSON type, empty list: no large sizes
CONFIG_EDGES = [0, -1, 0.5, -0.5, "x", [], [0], None, True]
FLAG_EDGES = ["0", "-1", "0.5", "x", ""]
FLAGS = {("baseline", "hsp"): ["--period", "--offset"],
         ("baseline", "ga"): ["--population", "--generations"],
         ("baseline", "l1"): ["--keep-ratio"],
         ("extend-demo",): ["--dim", "--depth", "--width", "--extra", "--wide-width",
                            "--probes"]}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    path = out / "exp.json"
    path.write_text(json.dumps(dict(TINY, output_dir=str(out))))
    assert run("pretrain", "--config", path) == 0
    return out / "supernet.ckpt"


class TestEdgeValues:
    """One config field or flag at an edge value: exit 0, or exit 1 with one
    stderr line and nothing written; never a traceback or a warning."""

    @staticmethod
    def run_all(commands, out):
        for i, argv in enumerate(commands):
            outdir, err = out / str(i), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                rc = run(*argv, "--output-dir", outdir)
            assert not caught, (argv, [str(w.message) for w in caught])
            err = err.getvalue()
            if rc == 0:
                assert err == "", (argv, err)
            else:  # exit 1 with one line, and nothing written
                assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, \
                    (argv, rc, err)
                assert not outdir.exists(), argv

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("config"), st.sampled_from(list(_config_fields())),
                  st.sampled_from(CONFIG_EDGES)),
        st.tuples(st.just("flag"), st.sampled_from([(c, f) for c, fl in FLAGS.items()
                                                    for f in fl]),
                  st.sampled_from(FLAG_EDGES))))
    def test_edge_value_exits_0_or_1_with_one_line(self, tiny_checkpoint, tmp_path_factory,
                                                   draw):
        kind, (where, name), value = draw
        out = tmp_path_factory.mktemp("edge")
        cfg = dict(TINY)
        if kind == "config" and where is None:
            cfg[name] = value
        elif kind == "config":
            cfg[where] = {**TINY.get(where, {}), name: value}
        path = out / "exp.json"
        path.write_text(json.dumps(cfg))
        c = ["--config", path]
        if kind == "flag":
            ckpt = ["--checkpoint", tiny_checkpoint] if where == ("baseline", "l1") else []
            self.run_all([[*where, *c, *ckpt, name, value]], out)
            return
        ckpt = out / "0" / "supernet.ckpt"  # written by the first command
        self.run_all([["pretrain", *c], ["search", *c, "--checkpoint", ckpt],
                      ["enumerate", *c], ["study", *c], ["baseline", "hsp", *c],
                      ["baseline", "ga", *c], ["baseline", "l1", *c, "--checkpoint", ckpt],
                      ["verify-thm1", *c], ["extend-demo", *c]], out)
