"""End-to-end command surface: files, digests, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from attnsearch.cli import main, read_csv, write_csv

TINY = {
    "seed": 4,
    "backbone": {"stages": [[2, 4], [2, 6]], "input_shape": [1, 6, 6], "classes": 3,
                 "sam": "se", "reduction": 2},
    "dataset": {"classes": 3, "per_class": 12, "shape": [1, 6, 6], "noise": 0.3},
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
        ckpt = tmp_path / "zero.ckpt"
        assert run("pretrain", "--config", path, "--output-dir", tmp_path / "p",
                   "--out", ckpt) == 0
        capsys.readouterr()
        assert run("search", "--config", path, "--checkpoint", ckpt) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: search budget") and err.count("\n") == 1
        assert not (tmp_path / "zero").exists()

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
        ("controller", {"ppo_period": 0}, "'controller.ppo_period' must be >= 1, got 0"),
        ("controller", {"buffer_capacity": 0},
         "'controller.buffer_capacity' must be >= 1, got 0"),
        ("supernet", {"batch_size": 0}, "'supernet.batch_size' must be >= 1, got 0"),
        ("supernet", {"steps": -5}, "'supernet.steps' must be >= 0, got -5"),
    ], ids=["string-steps", "zero-channels", "no-stages", "class-mismatch", "ratio-text",
            "bogus-dof", "zero-probes", "zero-ppo-period", "zero-buffer", "zero-batch",
            "negative-steps"])
    def test_bad_config_exits_1_with_one_line(self, tmp_path, capsys, section, patch, message):
        cfg = dict(TINY, output_dir=str(tmp_path / "o"))
        cfg[section] = {k: v for k, v in {**TINY.get(section, {}), **patch}.items()
                        if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run("pretrain", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("label", [3, -1], ids=["past-last-class", "negative"])
    def test_csv_label_outside_classes_exits_1_with_one_line(self, tmp_path, capsys, label):
        data = tmp_path / "data.csv"
        pixels = ",".join(["0.5"] * 36)
        data.write_text("".join(f"{y},{pixels}\n" for y in [0, 1, 2, label] * 4))
        cfg = dict(TINY, output_dir=str(tmp_path / "o"),
                   dataset={"kind": "csv", "csv_path": str(data), "shape": [1, 6, 6]})
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
                   dataset={"kind": "csv", "csv_path": str(data), "shape": [1, 6, 6]})
        path = tmp_path / "csv.json"
        path.write_text(json.dumps(cfg))
        assert run("pretrain", "--config", path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}:3: {message}\n"
        assert not (tmp_path / "o").exists()
