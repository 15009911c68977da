import argparse
import contextlib
import io
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from specsiam.cli import build_parser, main
from specsiam.classify import LabeledFeatures
from specsiam.siamese import NetConfig, init_model, save_checkpoint
from specsiam.spectral import StftConfig


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "cohort"
    code = main(
        [
            "synth", "--cases", "4", "--controls", "4", "--channels", "2",
            "--duration-s", "10", "--rate", "64", "--noise-sigma", "0.2",
            "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    return out


def manifest_of(synth_dir: Path) -> str:
    return str(synth_dir / "manifest.json")


class TestSynth:
    def test_writes_manifest_and_csvs(self, synth_dir, capsys):
        assert (synth_dir / "manifest.json").is_file()
        assert len(list(synth_dir.glob("*.csv"))) == 8
        assert (synth_dir / "run_manifest.json").is_file()

    def test_prints_manifest_path(self, tmp_path, capsys):
        out = tmp_path / "d"
        main(["synth", "--cases", "1", "--controls", "1", "--channels", "1",
              "--duration-s", "2", "--rate", "64", "--seed", "1", "--out", str(out)])
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")

    def test_deterministic_bytes(self, tmp_path):
        args = ["synth", "--cases", "2", "--controls", "2", "--channels", "1",
                "--duration-s", "4", "--rate", "64", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ["manifest.json", "case00.csv", "ctrl01.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": 3, "controls": 1, "channels": 1,
                                   "duration_s": 2.0, "sample_rate_hz": 64.0}))
        out = tmp_path / "d"
        code = main(["synth", "--config", str(cfg), "--controls", "2", "--out", str(out)])
        assert code == 0
        entries = json.loads((out / "manifest.json").read_text())
        labels = [e["label"] for e in entries]
        assert labels.count("case") == 3   # from config file
        assert labels.count("control") == 2  # flag wins over file


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["stft"]) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["stft", "--manifest", str(tmp_path / "gone.json"), "--out", str(tmp_path)]) == 2

    def test_bad_pipeline_is_usage_error(self, synth_dir, tmp_path):
        code = main(["loocv", "--manifest", manifest_of(synth_dir),
                     "--pipeline", "FFT-LDA", "--out", str(tmp_path)])
        assert code == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "defect, field",
        [
            (lambda p: p["config"].update(stride=2), "stride"),
            (lambda p: p["params"].pop("fc_w"), "fc_w"),
            (lambda p: p.pop("rng_state"), "rng_state"),
        ],
        ids=["unknown-config-key", "missing-tensor", "missing-rng-state"],
    )
    def test_extract_on_defective_checkpoint_is_data_error(self, synth_dir, tmp_path, capsys,
                                                            defect, field):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_model(NetConfig(kernel_size=3), (40, 40)), StftConfig(), ckpt)
        payload = json.loads(ckpt.read_text())
        defect(payload)
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "features")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert str(ckpt) in err and field in err


    @pytest.mark.parametrize(
        "content, message",
        [
            ("{}", "missing field 'channel_level'"),
            ("pipeline,accuracy\nFFT-kNN,0.9\n", "not a JSON report"),
            ('{"channel_level": {"accuracy": {"mean": 0.9}}, "subject_level": {}}',
             "field 'channel_level.accuracy' needs numeric 'mean' and 'std'"),
        ],
        ids=["empty-object", "not-json", "block-without-std"],
    )
    def test_report_on_malformed_file_is_data_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "report.json"
        path.write_text(content)
        code = main(["report", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert str(path) in err and message in err


class TestStft:
    def test_writes_images(self, synth_dir, tmp_path):
        out = tmp_path / "stft"
        code = main(["stft", "--manifest", manifest_of(synth_dir), "--window-s", "2",
                     "--hop-s", "1", "--upper-value", "150", "--pgm", "--out", str(out)])
        assert code == 0
        csvs = list((out / "images").glob("*.csv"))
        pgms = list((out / "images").glob("*.pgm"))
        assert len(csvs) == 16 and len(pgms) == 16


class TestPairs:
    def test_stats_output(self, synth_dir, capsys):
        code = main(["pairs", "stats", "--manifest", manifest_of(synth_dir)])
        assert code == 0
        out = capsys.readouterr().out
        # 8 subjects, 2 channels -> 2 * C(8,2) = 56 pairs
        assert "total_pairs: 56" in out
        assert "subjects: 8 (case 4 / control 4)" in out
        assert "neighbors: 24" in out
        assert "non_neighbors: 32" in out


class TestTrainExtractClassify:
    def net_flags(self):
        return ["--kernel-size", "3", "--conv1-filters", "2", "--conv2-filters", "2",
                "--output-dim", "2", "--learning-rate", "1e-3", "--l1-lambda", "1e-3",
                "--epochs", "2", "--pooling", "none", "--window-s", "2", "--hop-s", "1",
                "--upper-value", "150"]

    def test_full_stage_chain(self, synth_dir, tmp_path, capsys):
        train_out = tmp_path / "train"
        code = main(["train-snn", "--manifest", manifest_of(synth_dir), "--seed", "3",
                     "--out", str(train_out)] + self.net_flags())
        assert code == 0
        ckpt = train_out / "checkpoint.json"
        assert ckpt.is_file()
        trace = (train_out / "loss_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 3

        extract_out = tmp_path / "features"
        code = main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint",
                     str(ckpt), "--window-s", "2", "--hop-s", "1", "--upper-value", "150",
                     "--out", str(extract_out)])
        assert code == 0
        table = LabeledFeatures.from_csv(extract_out / "features.csv")
        assert table.n_rows == 16
        assert table.n_features == 2

        clf_out = tmp_path / "clf"
        code = main(["classify", "--features", str(extract_out / "features.csv"),
                     "--model", "knn", "--knn-k", "2",
                     "--predict", str(extract_out / "features.csv"),
                     "--out", str(clf_out)])
        assert code == 0
        model_payload = json.loads((clf_out / "model.json").read_text())
        assert model_payload["spec"] == {"model": "knn", "params": {"k": 2}}
        preds = (clf_out / "predictions.csv").read_text().strip().splitlines()
        assert len(preds) == 17

    def test_extract_fft(self, synth_dir, tmp_path):
        out = tmp_path / "fft"
        code = main(["extract", "--manifest", manifest_of(synth_dir), "--fft",
                     "--max-freq-hz", "20", "--out", str(out)])
        assert code == 0
        table = LabeledFeatures.from_csv(out / "features.csv")
        assert table.n_rows == 16
        # 10 s at 64 Hz -> 0.1 Hz bins -> 201 features at 20 Hz
        assert table.n_features == 201

    def test_tune_clf(self, synth_dir, tmp_path):
        feats = tmp_path / "feats"
        main(["extract", "--manifest", manifest_of(synth_dir), "--fft",
              "--max-freq-hz", "15", "--out", str(feats)])
        out = tmp_path / "tuned"
        code = main(["tune-clf", "--features", str(feats / "features.csv"), "--model", "knn",
                     "--init", "2", "--budget", "2", "--k", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        best = json.loads((out / "best_spec.json").read_text())
        assert best["model"] == "knn"
        assert best["params"]["k"] in range(2, 9)
        assert (out / "clf_bo_trace.csv").is_file()


class TestLoocvAndRun:
    def test_loocv_fft(self, synth_dir, tmp_path):
        out = tmp_path / "loocv"
        code = main(["loocv", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN",
                     "--knn-k", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["pipeline"] == "FFT-kNN"
        assert payload["n_folds"] == 8
        assert (out / "folds.csv").is_file()
        assert (out / "report.txt").is_file()

    def test_run_twice_byte_identical_report(self, synth_dir, tmp_path):
        args = ["run", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN",
                "--seed", "1", "--no-tune", "--knn-k", "2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
        manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["resolved"]["config"]["pipeline"] == "FFT-kNN"

    def test_run_snn_with_tiny_tuning(self, synth_dir, tmp_path):
        out = tmp_path / "run_snn"
        code = main(["run", "--manifest", manifest_of(synth_dir), "--pipeline", "DSTFT-SNN-NB",
                     "--seed", "4", "--snn-init", "2", "--snn-acq", "1", "--clf-init", "1",
                     "--clf-acq", "1", "--tuning-k", "2", "--tuning-epochs", "1",
                     "--out", str(out)] + TestTrainExtractClassify().net_flags())
        assert code == 0
        assert (out / "snn_bo_trace.csv").is_file()
        assert (out / "model_checkpoint.json").is_file()
        payload = json.loads((out / "report.json").read_text())
        assert payload["pipeline"] == "DSTFT-SNN-NB"
        resolved = json.loads((out / "pipeline_config.json").read_text())
        assert 100.0 <= resolved["stft"]["upper_value"] <= 500.0

    def test_report_renders_table(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "loocv"
        main(["loocv", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN",
              "--knn-k", "3", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = main(["report", str(out / "report.json")])
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == ["pipeline", "accuracy", "sensitivity", "specificity"]
        assert "FFT-kNN" in table


class TestOutputRoot:
    def test_env_var_default_out(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "from_env"
        monkeypatch.setenv("SPECSIAM_OUT", str(root))
        code = main(["synth", "--cases", "1", "--controls", "1", "--channels", "1",
                     "--duration-s", "2", "--rate", "64", "--seed", "0"])
        assert code == 0
        assert (root / "manifest.json").is_file()


# ---------------------------------------------------------------------------
# config schema: flags, --config files and checkpoint spectral configs

def subcommand(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class TestConfigFlags:
    @pytest.mark.parametrize("command", ["train-snn", "tune-snn", "loocv", "run"])
    def test_every_field_but_seed_has_exactly_one_flag(self, command):
        actions = subcommand(command)._actions
        for cls in (StftConfig, NetConfig):
            for f in fields(cls):
                if f.name == "seed":
                    continue
                matching = [a for a in actions if a.dest == f.name]
                assert len(matching) == 1, f.name
                assert matching[0].option_strings == ["--" + f.name.replace("_", "-")]
        assert not [a for a in actions if "--distance" in a.option_strings]

    def test_extract_and_stft_take_only_spectral_flags(self):
        for command in ("extract", "stft"):
            dests = {a.dest for a in subcommand(command)._actions}
            assert {f.name for f in fields(StftConfig)} <= dests
            assert not {f.name for f in fields(NetConfig)} & dests

    @pytest.mark.parametrize("flag, value", [("--pooling", "avg"), ("--window-fn", "blackman"),
                                             ("--distance", "cosine")])
    def test_bad_choice_is_usage_error(self, synth_dir, tmp_path, flag, value):
        assert main(["train-snn", "--manifest", manifest_of(synth_dir), flag, value,
                     "--out", str(tmp_path)]) == 1


def run_main(argv):
    """(exit code, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestConfigFile:
    @pytest.mark.parametrize(
        "content, field",
        [
            ({"kernal_size": 7}, "kernal_size"),
            ({"kernel_size": "x"}, "kernel_size"),
            ({"window_fn": "blackman"}, "window_fn"),
            ({"distance": "cosine"}, "distance"),
            ({"seed": 3}, "seed"),
        ],
        ids=["typo", "text-for-int", "unknown-window", "removed-distance", "seed-is-a-flag"],
    )
    def test_defect_is_data_error_naming_file_and_key(self, synth_dir, tmp_path, content, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        code, err = run_main(["train-snn", "--manifest", manifest_of(synth_dir), "--config", str(cfg),
                              "--out", str(tmp_path / "out")])
        assert code == 2
        assert "Traceback" not in err
        assert str(cfg) in err and f"'{field}'" in err
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    def test_binary_input_files_are_data_errors(self, synth_dir, tmp_path):
        blob = tmp_path / "blob.json"
        blob.write_bytes(b"\xff\xfe{\x00")
        for argv in (["train-snn", "--manifest", manifest_of(synth_dir), "--config", str(blob)],
                     ["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(blob)],
                     ["stft", "--manifest", str(blob)]):
            code, err = run_main(argv + ["--out", str(tmp_path / "out")])
            assert code == 2 and f"{blob} is not valid JSON" in err, argv

    @pytest.mark.parametrize(
        "content, field",
        [({"kernel_size": 2}, "kernel_size"), ({"dropout_p": 1.0}, "dropout_p"),
         ({"hop_s": 5.0}, "hop_s"), ({"upper_value": -1.0}, "upper_value")],
        ids=["kernel-size", "dropout", "hop-above-window", "upper-value"],
    )
    def test_out_of_range_value_names_file_and_key(self, synth_dir, tmp_path, content, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        code, err = run_main(["train-snn", "--manifest", manifest_of(synth_dir), "--config", str(cfg),
                              "--out", str(tmp_path / "out")])
        assert code == 2 and "Traceback" not in err
        assert f"config file {cfg}: key '{field}'" in err

    @pytest.mark.parametrize("flag, value", [("--kernel-size", "2"), ("--epochs", "0"), ("--hop-s", "3")])
    def test_out_of_range_flag_is_named(self, synth_dir, tmp_path, flag, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dim": 4}))
        code, err = run_main(["train-snn", "--manifest", manifest_of(synth_dir), "--config", str(cfg),
                              flag, value, "--out", str(tmp_path / "out")])
        assert code == 2 and "Traceback" not in err
        assert f"flag {flag}:" in err and str(cfg) not in err

    def test_non_utf8_tables_are_data_errors(self, synth_dir, tmp_path):
        feats = tmp_path / "feats"
        assert main(["extract", "--manifest", manifest_of(synth_dir), "--fft", "--max-freq-hz", "5",
                     "--out", str(feats)]) == 0
        table = feats / "features.csv"
        lines = table.read_bytes().split(b"\r\n")
        bad_channel = tmp_path / "bad_channel.csv"
        bad_channel.write_bytes(b"\r\n".join([lines[0], lines[1].replace(b",0,", b",zero,", 1), *lines[2:]]))
        binary = tmp_path / "binary.csv"
        binary.write_bytes(table.read_bytes() + b"\xff\xfe\r\n")
        for path, message in ((binary, f"feature table {binary} is not UTF-8"),
                              (bad_channel, f"{bad_channel}: non-integer channel 'zero' at line 2")):
            for argv in (["tune-clf", "--features", str(path), "--model", "knn", "--init", "1", "--budget", "0"],
                         ["classify", "--features", str(path), "--model", "knn"]):
                code, err = run_main(argv + ["--out", str(tmp_path / "out")])
                assert code == 2 and message in err and "Traceback" not in err, argv

        signal = synth_dir / "case00.csv"
        signal.write_bytes(b"\xff\xfe" + signal.read_bytes())
        for argv in (["stft", "--manifest", manifest_of(synth_dir)],
                     ["pairs", "stats", "--manifest", manifest_of(synth_dir)]):
            code, err = run_main(argv + ["--out", str(tmp_path / "out")])
            assert code == 2 and f"{signal} is not UTF-8" in err and "Traceback" not in err, argv

    @pytest.mark.parametrize(
        "body, message",
        [("subject_id,channel,label\r\ncase00,0,case\r\n", "no feature columns between 'channel' and 'label'"),
         ("subject_id,channel,f_1,f_2,label\r\n", "no feature rows"),
         ("subject_id,channel,f_1,f_2,label\r\ncase00,0,1.0,2.0,case\r\nctrl00,0,0.5,nan,control\r\n",
          "non-finite value 'nan' in column 'f_2' at line 3")],
        ids=["no-feature-columns", "header-only", "nan-cell"],
    )
    def test_malformed_tables_name_the_file(self, tmp_path, body, message):
        path = tmp_path / "features.csv"
        path.write_text(body, encoding="utf-8")
        for argv in (["tune-clf", "--features", str(path), "--model", "knn", "--init", "1", "--budget", "0"],
                     ["classify", "--features", str(path), "--model", "knn"]):
            code, err = run_main(argv + ["--out", str(tmp_path / "out")])
            assert code == 2 and f"{path}: {message}" in err and "Traceback" not in err, argv

    def test_subject_with_both_labels_names_the_file_subject_and_lines(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("subject_id,channel,f_1,label\r\ncase00,0,1.0,case\r\nctrl00,0,0.5,control\r\n"
                        "case00,1,0.9,control\r\n", encoding="utf-8")
        for argv in (["tune-clf", "--features", str(path), "--model", "knn", "--init", "1", "--budget", "0"],
                     ["classify", "--features", str(path), "--model", "knn"]):
            code, err = run_main(argv + ["--out", str(tmp_path / "out")])
            assert code == 2 and "Traceback" not in err, argv
            assert f"{path}: subject 'case00' is labelled 'control' at line 4 but 'case' at line 2" in err, argv

    def test_tune_clf_with_every_evaluation_failed_exits_2_after_the_trace(self, synth_dir, tmp_path):
        feats = tmp_path / "feats"
        assert main(["extract", "--manifest", manifest_of(synth_dir), "--fft", "--max-freq-hz", "5",
                     "--out", str(feats)]) == 0
        lines = (feats / "features.csv").read_text(encoding="utf-8").splitlines()
        cases = tmp_path / "cases.csv"  # one class: every k-fold evaluation fails
        cases.write_text("\n".join([lines[0], *(ln for ln in lines[1:] if ln.endswith(",case"))]) + "\n")
        out = tmp_path / "out"
        code, err = run_main(["tune-clf", "--features", str(cases), "--model", "knn", "--init", "2",
                              "--budget", "1", "--out", str(out)])
        trace = out / "clf_bo_trace.csv"
        assert code == 2 and "Traceback" not in err
        assert "classifier tuning: all 3 evaluations failed" in err and str(trace) in err
        assert len(trace.read_text(encoding="utf-8").splitlines()) == 4
        assert not (out / "best_spec.json").exists()

    def test_synth_rejects_unknown_and_unconvertible_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for content, field in (({"case": 3}, "case"), ({"cases": "3"}, "cases")):
            cfg.write_text(json.dumps(content))
            code, err = run_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == 2 and str(cfg) in err and f"'{field}'" in err

    def test_numbers_are_converted_and_recorded(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"upper_value": 150, "window_s": 2}))
        out = tmp_path / "stft"
        assert main(["stft", "--manifest", manifest_of(synth_dir), "--config", str(cfg),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved"]
        assert resolved == {"window_s": 2.0, "hop_s": 1.0, "window_fn": "rectangular", "upper_value": 150.0}
        assert type(resolved["upper_value"]) is float


class TestCheckpointSpectralConfig:
    NET = ["--kernel-size", "3", "--conv1-filters", "2", "--conv2-filters", "2", "--output-dim", "2",
           "--epochs", "1", "--pooling", "none"]

    @pytest.fixture()
    def trained(self, synth_dir, tmp_path):
        out = tmp_path / "train"
        assert main(["train-snn", "--manifest", manifest_of(synth_dir), "--seed", "3",
                     "--upper-value", "150", "--out", str(out)] + self.NET) == 0
        return out / "checkpoint.json"

    def extract(self, synth_dir, ckpt, out, *flags):
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(ckpt),
                              "--out", str(out), *flags])
        assert code == 0, err
        return (out / "features.csv").read_bytes()

    def test_plain_extract_uses_the_checkpoint_config(self, synth_dir, trained, tmp_path):
        plain = self.extract(synth_dir, trained, tmp_path / "plain")
        explicit = self.extract(synth_dir, trained, tmp_path / "explicit",
                                "--window-s", "2", "--hop-s", "1", "--upper-value", "150")
        assert plain == explicit
        manifest = json.loads((tmp_path / "plain" / "run_manifest.json").read_text())
        assert manifest["resolved"]["upper_value"] == 150.0

        # version 1 held no spectral config: extract takes flags, else defaults
        v1 = tmp_path / "v1.json"
        payload = json.loads(trained.read_text())
        payload.pop("stft")
        payload.update(version=1)
        payload["config"]["distance"] = "cosine"
        v1.write_text(json.dumps(payload))
        assert self.extract(synth_dir, v1, tmp_path / "v1_flags", "--upper-value", "150") == plain
        assert self.extract(synth_dir, v1, tmp_path / "v1_plain") != plain

    @pytest.mark.parametrize("flag, value, field",
                             [("--window-s", "3", "window_s"), ("--upper-value", "300", "upper_value"),
                              ("--window-fn", "hann", "window_fn"), ("--hop-s", "0.5", "hop_s")])
    def test_conflicting_flag_is_data_error(self, synth_dir, trained, tmp_path, flag, value, field):
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint",
                              str(trained), flag, value, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "Traceback" not in err
        assert str(trained) in err and field in err and flag in err


# Hypothesis fuzzing of the --config and checkpoint ingest paths: any JSON
# value at any key ends in exit 0 or 2, never in an exception. Integers stay
# small so that an accepted size (filters, epochs) trains in milliseconds.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
                | st.floats(-1e3, 1e3, allow_nan=False) | st.text(max_size=6)
                | st.sampled_from(["hann", "rectangular", "none", "max2x2"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
FIELD_NAMES = [f.name for cls in (StftConfig, NetConfig) for f in fields(cls)]
BASE_CONFIG = {"kernel_size": 3, "conv1_filters": 2, "conv2_filters": 2, "output_dim": 2,
               "epochs": 1, "pooling": "none", "upper_value": 150.0}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--cases", "2", "--controls", "2", "--channels", "1", "--duration-s", "6",
                 "--rate", "64", "--seed", "5", "--out", str(root / "cohort")]) == 0
    assert main(["train-snn", "--manifest", str(root / "cohort" / "manifest.json"), "--seed", "1",
                 "--out", str(root / "train")] + TestCheckpointSpectralConfig.NET) == 0
    return root


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(FIELD_NAMES + ["distance", "kernal_size"]) | st.text(max_size=6),
       value=JSON_VALUES)
def test_fuzzed_config_file_exits_0_or_2(fuzz_dir, key, value):
    cfg = fuzz_dir / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, key: value}))
    code, err = run_main(["train-snn", "--manifest", str(fuzz_dir / "cohort" / "manifest.json"),
                          "--config", str(cfg), "--out", str(fuzz_dir / "out")])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if key == "seed" or key not in FIELD_NAMES:
        assert code == 2 and f"config file {cfg}: unknown key '{key}'" in err


@settings(max_examples=60, deadline=None)
@given(section=st.sampled_from(["config", "stft", None]),
       key=st.sampled_from(FIELD_NAMES + ["input_shape", "version", "distance"]) | st.text(max_size=6),
       value=JSON_VALUES)
def test_fuzzed_checkpoint_exits_0_or_2(fuzz_dir, section, key, value):
    payload = json.loads((fuzz_dir / "train" / "checkpoint.json").read_text())
    (payload if section is None else payload[section])[key] = value
    ckpt = fuzz_dir / "fuzzed_checkpoint.json"
    ckpt.write_text(json.dumps(payload))
    code, err = run_main(["extract", "--manifest", str(fuzz_dir / "cohort" / "manifest.json"),
                          "--checkpoint", str(ckpt), "--out", str(fuzz_dir / "features")])
    assert code in (0, 2), err
    assert "Traceback" not in err


CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
ODD_CELLS = st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "case", "control",
                             "s0", "0x1", " 1", "1_0", "\"", ","]) | CELL_TEXT


@st.composite
def feature_csvs(draw):
    """A feature table CSV: well formed, or with a few cells, rows or header fields changed."""
    n_features = draw(st.integers(0, 3))
    header = ["subject_id", "channel", *(f"f_{i + 1}" for i in range(n_features)), "label"]
    labels = draw(st.lists(st.sampled_from(["case", "control"]), min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        subject = draw(st.integers(0, len(labels) - 1))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n_features,
                               max_size=n_features))
        rows.append([f"s{subject}", str(draw(st.integers(0, 2))), *map(repr, values), labels[subject]])
    for _ in range(draw(st.integers(0, 2))):
        table = draw(st.sampled_from([header] + rows))
        what = draw(st.sampled_from(["cell", "drop", "append"]))
        if what == "cell":
            table[draw(st.integers(0, len(table) - 1))] = draw(ODD_CELLS)
        elif what == "drop" and table:
            table.pop()
        else:
            table.append(draw(ODD_CELLS))
    return "\r\n".join(",".join(row) for row in [header, *rows]) + "\r\n"


@settings(max_examples=60, deadline=None)
@given(body=feature_csvs(), model=st.sampled_from(["knn", "nb", "svm", "rf", "xgb"]))
def test_fuzzed_feature_table_exits_0_or_2(tmp_path_factory, body, model):
    root = tmp_path_factory.mktemp("table")
    path = root / "features.csv"
    path.write_text(body, encoding="utf-8", newline="")
    for argv in (["tune-clf", "--features", str(path), "--model", model, "--init", "1", "--budget", "1",
                  "--k", "2"],
                 ["classify", "--features", str(path), "--model", model, "--predict", str(path)]):
        code, err = run_main(argv + ["--out", str(root / "out")])
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
