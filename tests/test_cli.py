import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from specsiam import evaluate
from specsiam.cli import build_parser, main
from specsiam.classify import ClassifierKind, LabeledFeatures, classifier_search_space
from specsiam.siamese import NetConfig, init_model, save_checkpoint
from specsiam.signals import load_dataset
from specsiam.spectral import StftConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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

    def test_a_quoted_header_cell_is_one_channel(self, synth_dir, capsys):
        for path in synth_dir.glob("*.csv"):
            header, body = path.read_bytes().split(b"\r\n", 1)
            assert header == b"ch00,ch01"
            path.write_bytes(b'"F7,ref",F3\r\n' + body)
        assert load_dataset(manifest_of(synth_dir)).channel_names == ("F7,ref", "F3")
        assert main(["pairs", "stats", "--manifest", manifest_of(synth_dir)]) == 0
        out = capsys.readouterr().out
        assert "channels: 2" in out and "total_pairs: 56" in out

    def test_every_subjects_header_must_name_the_same_channels(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert main(["synth", "--cases", "2", "--controls", "2", "--channels", "2", "--duration-s", "2",
                     "--rate", "64", "--seed", "1", "--out", str(cohort)]) == 0
        path = cohort / "ctrl01.csv"
        header, body = path.read_bytes().split(b"\r\n", 1)
        assert header == b"ch00,ch01"
        path.write_bytes(b"ch00,ch02\r\n" + body)
        capsys.readouterr()
        for argv in (["pairs", "stats"], ["loocv", "--pipeline", "FFT-NB"]):
            assert main(argv + ["--manifest", manifest_of(cohort)]) == 2
            err = capsys.readouterr().err
            assert "subject 'ctrl01': channel-name mismatch: file has ['ch00', 'ch02']" in err, argv


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
                     str(ckpt), "--out", str(extract_out)])
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


class TestMultiPipelineRun:
    IDS = ("FFT-kNN", "DSTFT-SNN-NB", "DSTFT-SNN-kNN")
    NET_TUNING = ["--snn-init", "2", "--snn-acq", "1", "--tuning-epochs", "1"]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """(root, stdout, stderr, calls) of one run over every id into root/table, with
        calls listing its network tunings and trainings (count_calls), and one
        single-id run per id into root/<id> with the same flags, less the
        network ones where the id has no network."""
        root = tmp_path_factory.mktemp("multi")
        assert main(["synth", "--cases", "4", "--controls", "4", "--channels", "2", "--duration-s", "10",
                     "--rate", "64", "--noise-sigma", "0.2", "--seed", "7", "--out", str(root / "cohort")]) == 0
        flags = ["--manifest", str(root / "cohort" / "manifest.json"), "--seed", "4", "--clf-init", "1",
                 "--clf-acq", "1", "--tuning-k", "2", *TestTrainExtractClassify().net_flags()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            calls = count_calls(patch)
            code = main(["run", "--pipeline", *self.IDS, *flags, *self.NET_TUNING, "--out", str(root / "table")])
        assert code == 0
        for name in self.IDS:
            net_tuning = self.NET_TUNING if name.startswith("DSTFT") else []
            assert main(["run", "--pipeline", name, *flags, *net_tuning, "--out", str(root / name)]) == 0
        return root, stdout.getvalue(), stderr.getvalue(), calls

    def test_each_row_directory_equals_its_own_run(self, runs):
        root = runs[0]
        assert sorted(p.name for p in (root / "table").iterdir()) == sorted([*self.IDS, "table.txt"])
        for name in self.IDS:
            row = {p.name: p.read_bytes() for p in (root / "table" / name).iterdir()}
            assert "run_manifest.json" in row and ("snn_bo_trace.csv" in row) == name.startswith("DSTFT")
            assert row == {p.name: p.read_bytes() for p in (root / name).iterdir()}

    def test_the_network_is_tuned_and_trained_once_for_every_row(self, runs):
        calls = runs[3]
        assert (calls.count("tune_snn"), calls.count("all-subject train")) == (1, 1)

    def test_a_row_that_reads_another_rows_features_says_so(self, runs):
        lines = [line for line in runs[2].splitlines() if line.startswith("run: ") and "(" in line]
        assert lines == ["run: FFT-kNN (mode=paper, tuning=on)", "run: DSTFT-SNN-NB (mode=paper, tuning=on)",
                         "run: DSTFT-SNN-kNN (mode=paper, tuning=on, features of DSTFT-SNN-NB)"]

    def test_table_is_the_report_table_of_the_rows(self, runs, capsys):
        root, stdout = runs[:2]
        capsys.readouterr()
        assert main(["report", *(str(root / "table" / name / "report.json") for name in self.IDS)]) == 0
        table = capsys.readouterr().out
        assert [line.split()[0] for line in table.splitlines()[1:]] == list(self.IDS)
        assert (root / "table" / "table.txt").read_text(encoding="utf-8") == table == stdout

    def test_network_flags_reach_only_the_network_rows(self, runs):
        root = runs[0]
        budgets = {name: json.loads((root / "table" / name / "pipeline_config.json").read_text())
                   for name in self.IDS}
        assert (budgets["FFT-kNN"]["snn_budget"], budgets["FFT-kNN"]["tuning_epochs"]) == (None, None)
        assert (budgets["DSTFT-SNN-NB"]["snn_budget"], budgets["DSTFT-SNN-NB"]["tuning_epochs"]) == ([2, 1], 1)

    def test_a_flag_that_one_row_rejects_exits_2_before_any_row_runs(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code, err = run_main(["run", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN", "FFT-SVM",
                              "--no-tune", "--knn-k", "3", "--out", str(out)])
        assert code == 2 and "Traceback" not in err
        assert "flag --knn-k: the classifier is svm, not knn" in err
        assert list(out.iterdir()) == []

    def test_a_strict_run_trains_the_fold_networks_once_per_route(self, synth_dir, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch)
        argv = ["run", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN", "DSTFT-SNN-kNN",
                "DSTFT-SNN-NB", "--mode", "strict", "--no-tune", "--seed", "2",
                *TestTrainExtractClassify().net_flags()]
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert Counter(calls) == {"all-subject train": 2, "train": 2 * 8}  # per --jobs, one route of 8 folds

        def files(root):  # every artifact but the two that record --jobs
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                    if p.is_file() and p.name not in ("pipeline_config.json", "run_manifest.json")}

        # 3 rows of report.json, report.txt, folds.csv and features.csv, 2 networks, table.txt
        assert len(files(tmp_path / "1")) == 3 * 4 + 2 * 2 + 1 and files(tmp_path / "1") == files(tmp_path / "2")

    def test_loocv_takes_one_pipeline(self, synth_dir, tmp_path):
        assert main(["loocv", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN", "FFT-SVM",
                     "--out", str(tmp_path)]) == 1


def count_calls(patch) -> list:
    """A list that grows, by patch, by "tune_snn" at each evaluate.tune_snn call
    and at each evaluate.train call by "all-subject train" when its pairs hold
    every subject of the cohort, else by "train"."""
    calls = []
    tune_snn, train = evaluate.tune_snn, evaluate.train

    def counted_tune_snn(*args, **kwargs):
        calls.append("tune_snn")
        return tune_snn(*args, **kwargs)

    def counted_train(model, pairs, images):
        subjects = {sid for pair in pairs for sid in (pair.subject_a, pair.subject_b)}
        calls.append("all-subject train" if subjects == {sid for sid, _ in images} else "train")
        return train(model, pairs, images)

    patch.setattr(evaluate, "tune_snn", counted_tune_snn)
    patch.setattr(evaluate, "train", counted_train)
    return calls


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

    def test_stft_takes_only_spectral_flags_and_extract_none(self):
        stft_dests = {a.dest for a in subcommand("stft")._actions}
        assert {f.name for f in fields(StftConfig)} <= stft_dests
        assert not {f.name for f in fields(NetConfig)} & stft_dests
        extract_dests = {a.dest for a in subcommand("extract")._actions}
        assert not {f.name for f in fields(StftConfig) + fields(NetConfig)} & extract_dests

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


TUNING_FLAGS = ("--clf-init", "--clf-acq", "--snn-init", "--snn-acq", "--tuning-k", "--tuning-epochs")


class TestClassifierFlags:
    @pytest.mark.parametrize("command", ["classify", "loocv", "run"])
    def test_one_flag_per_search_space_dimension(self, command):
        actions = subcommand(command)._actions
        expected = {f"{kind.value}_{name}": f"--{kind.value}-{name.replace('_', '-')}"
                    for kind in ClassifierKind for name in classifier_search_space(kind).names}
        assert len(expected) == 8
        models = {kind.value for kind in ClassifierKind}
        flags = {a.dest: a.option_strings for a in actions if a.dest.split("_")[0] in models}
        assert flags == {dest: [flag] for dest, flag in expected.items()}
        assert {"--rf-n-estimators", "--xgb-max-depth", "--xgb-n-estimators"} <= set(expected.values())
        kernel = next(a for a in actions if a.dest == "svm_kernel")
        assert tuple(kernel.choices) == ("linear", "rbf")

    @pytest.mark.parametrize("flag", ["--rf-estimators", "--xgb-depth", "--xgb-estimators"])
    def test_old_spellings_are_usage_errors(self, tmp_path, flag):
        assert main(["classify", "--features", str(tmp_path / "f.csv"), "--model", "rf", flag, "10"]) == 1

    def test_string_choice_outside_the_space_is_usage_error(self, tmp_path):
        assert main(["classify", "--features", str(tmp_path / "f.csv"), "--model", "svm",
                     "--svm-kernel", "poly"]) == 1

    @pytest.fixture()
    def table(self, synth_dir, tmp_path):
        assert main(["extract", "--manifest", manifest_of(synth_dir), "--fft", "--max-freq-hz", "5",
                     "--out", str(tmp_path / "feats")]) == 0
        return str(tmp_path / "feats" / "features.csv")

    @pytest.mark.parametrize(
        "model, flags, message",
        [("svm", ["--svm-c", "99"], "flag --svm-c: svm c must lie in (0.5, 5.0), got 99.0"),
         ("svm", ["--svm-gamma", "0"], "flag --svm-gamma: svm gamma must lie in (1e-05, 1.0), got 0.0"),
         ("knn", ["--knn-k", "9"], "flag --knn-k: knn k must be in (2, 3, 4, 5, 6, 7, 8), got 9"),
         ("rf", ["--rf-n-estimators", "7"], "flag --rf-n-estimators: rf n_estimators must be in (5, 10, 15, 20"),
         ("xgb", ["--xgb-n-estimators", "50", "--xgb-max-depth", "99"], "flag --xgb-max-depth: xgb max_depth"),
         ("xgb", ["--xgb-learning-rate", "nan"], "flag --xgb-learning-rate: xgb learning_rate must lie in"),
         ("knn", ["--xgb-max-depth", "99"], "flag --xgb-max-depth: the classifier is knn, not xgb"),
         ("nb", ["--knn-k", "3"], "flag --knn-k: the classifier is nb, not knn")],
        ids=["svm-c", "svm-gamma", "knn-k", "rf", "xgb-depth", "xgb-nan-rate", "other-kind", "nb"],
    )
    def test_classify_rejects_a_flag_by_name(self, table, tmp_path, model, flags, message):
        code, err = run_main(["classify", "--features", table, "--model", model, *flags,
                              "--out", str(tmp_path / "out")])
        assert code == 2 and message in err and "Traceback" not in err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("model", ["knn", "nb", "svm", "xgb"])
    def test_classify_seed_is_an_rf_flag(self, table, tmp_path, model):
        code, err = run_main(["classify", "--features", table, "--model", model, "--seed", "3",
                              "--out", str(tmp_path / "out")])
        assert code == 2 and "Traceback" not in err
        assert f"flag --seed: it seeds rf, and {model} draws nothing at random" in err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("model, flags, seed", [("rf", [], 0), ("rf", ["--seed", "3"], 3), ("svm", [], None)])
    def test_classify_manifest_records_the_seed_of_rf_alone(self, table, tmp_path, model, flags, seed):
        out = tmp_path / "out"
        assert main(["classify", "--features", table, "--model", model, *flags, "--out", str(out)]) == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved"]
        assert resolved.get("seed") == seed and ("seed" in resolved) == (model == "rf")
        fitted = json.loads((out / "model.json").read_text())["fitted"]
        assert fitted.get("seed") == seed

    def test_classify_says_when_the_svm_fit_stopped_at_the_step_cap(self, table, tmp_path, monkeypatch):
        argv = ["classify", "--features", table, "--model", "svm", "--out", str(tmp_path / "out")]
        code, err = run_main(argv)
        fitted = json.loads((tmp_path / "out" / "model.json").read_text())["fitted"]
        assert code == 0 and err == "" and fitted["converged"] is True
        monkeypatch.setattr("specsiam.classify.SVM_MAX_ITER", 0)  # no step, so no fit converges
        code, err = run_main(argv)
        fitted = json.loads((tmp_path / "out" / "model.json").read_text())["fitted"]
        assert code == 0 and fitted["converged"] is False
        assert err.splitlines() == ["classify: svm fit stopped unconverged after 0 steps"]

    @pytest.mark.parametrize(
        "argv, message",
        [(["loocv", "--pipeline", "FFT-NB", "--knn-k", "3", "--svm-c", "99"],
          "flag --knn-k: the classifier is nb, not knn"),
         (["run", "--pipeline", "FFT-SVM", "--no-tune", "--rf-n-estimators", "10"],
          "flag --rf-n-estimators: the classifier is svm, not rf"),
         (["run", "--pipeline", "FFT-kNN", "--knn-k", "7", "--clf-init", "2", "--clf-acq", "1"],
          "flag --knn-k: the classifier is tuned"),
         (["run", "--pipeline", "FFT-SVM", "--svm-kernel", "rbf"], "flag --svm-kernel: the classifier is tuned"),
         (["loocv", "--pipeline", "FFT-kNN", "--clf-init", "2", "--clf-acq", "1", "--knn-k", "7"],
          "flag --knn-k: the classifier is tuned"),
         (["loocv", "--pipeline", "FFT-kNN", "--clf-init", "2"], "flag --clf-init: tuning the classifier needs"),
         (["loocv", "--pipeline", "FFT-kNN", "--clf-acq", "1"], "flag --clf-acq: tuning the classifier needs"),
         (["loocv", "--pipeline", "FFT-SVM", "--svm-c", "99"], "flag --svm-c: svm c must lie in (0.5, 5.0), got 99"),
         (["run", "--pipeline", "FFT-kNN", "--no-tune", "--knn-k", "1"], "flag --knn-k: knn k must be in"),
         *((["run", "--pipeline", "DSTFT-SNN-kNN", "--no-tune", flag, "2"],
            f"flag {flag}: run --no-tune tunes nothing") for flag in TUNING_FLAGS),
         (["run", "--pipeline", "FFT-kNN", "--no-tune", "--clf-init", "2", "--clf-acq", "1", "--snn-init", "3"],
          "flag --clf-init: run --no-tune tunes nothing"),
         *((["run", "--pipeline", "FFT-SVM", flag, "1"], f"flag {flag}: pipeline FFT-SVM has no network to tune")
           for flag in ("--snn-init", "--snn-acq", "--tuning-epochs")),
         (["run", "--pipeline", "FFT-kNN", "FFT-SVM", "--snn-acq", "1"],
          "flag --snn-acq: pipelines FFT-kNN, FFT-SVM have no network to tune"),
         (["run", "--pipeline", "FFT-kNN", "FFT-SVM", "FFT-kNN", "--no-tune"],
          "flag --pipeline: FFT-kNN listed more than once"),
         (["loocv", "--pipeline", "FFT-kNN", "--tuning-k", "3"],
          "flag --tuning-k: loocv tunes nothing without --clf-init and --clf-acq"),
         (["run", "--pipeline", "FFT-kNN", "--clf-init", "0"], "n_init must be >= 1"),
         (["loocv", "--pipeline", "FFT-kNN", "--clf-init", "0", "--clf-acq", "1"], "n_init must be >= 1")],
        ids=["loocv-other-kind", "run-other-kind", "run-tuned", "run-tuned-by-default", "loocv-tuned",
             "init-without-acq", "acq-without-init", "loocv-out-of-range", "run-out-of-range",
             *(f"no-tune{flag}" for flag in TUNING_FLAGS), "no-tune-three-flags", "fft--snn-init",
             "fft--snn-acq", "fft--tuning-epochs", "fft-list--snn-acq", "repeated-id", "loocv-tuning-k-alone", "run-zero-init", "loocv-zero-init"],
    )
    def test_pipeline_commands_reject_a_flag_by_name(self, synth_dir, tmp_path, argv, message):
        out = tmp_path / "out"
        code, err = run_main([*argv, "--manifest", manifest_of(synth_dir), "--out", str(out)])
        assert code == 2 and message in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--clf-init", "0", "n_init must be >= 1, got 0"), ("--clf-acq", "-2", "n_acquisitions must be >= 0, got -2"),
         ("--snn-init", "0", "n_init must be >= 1, got 0"), ("--snn-acq", "-1", "n_acquisitions must be >= 0, got -1"),
         ("--tuning-k", "1", "k must be >= 2, got 1"), ("--tuning-epochs", "0", "epochs must be >= 1, got 0")],
    )
    def test_a_tuning_flag_below_its_least_value_exits_2_before_any_row_runs(self, synth_dir, tmp_path, flag,
                                                                            value, message):
        out = tmp_path / "out"
        code, err = run_main(["run", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-kNN", "DSTFT-SNN-kNN",
                              flag, value, "--out", str(out)])
        assert code == 2 and f"flag {flag}: {message}" in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_tune_clf_with_a_negative_budget_exits_2(self, synth_dir, tmp_path):
        table = tmp_path / "features.csv"
        assert main(["extract", "--manifest", manifest_of(synth_dir), "--fft", "--out", str(tmp_path)]) == 0
        code, err = run_main(["tune-clf", "--features", str(table), "--model", "knn", "--budget", "-2",
                              "--out", str(tmp_path / "out")])
        assert code == 2 and "n_acquisitions must be >= 0" in err and "Traceback" not in err

    def test_run_fills_the_budgets_that_are_not_passed(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-NB", "--clf-acq", "0",
                     "--tuning-k", "2", "--out", str(out)]) == 0
        resolved = json.loads((out / "pipeline_config.json").read_text())
        assert (resolved["clf_budget"], resolved["snn_budget"], resolved["tuning_k"]) == ([5, 0], None, 2)

    def test_flags_of_the_pipeline_kind_reach_every_fold(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["loocv", "--manifest", manifest_of(synth_dir), "--pipeline", "FFT-XGB",
                     "--xgb-n-estimators", "10", "--xgb-max-depth", "4", "--out", str(out)]) == 0
        folds = json.loads((out / "report.json").read_text())["folds"]
        params = {"max_depth": 4, "learning_rate": 0.1, "n_estimators": 10}
        assert [f["clf_params"] for f in folds] == [params] * 8


HUGE_TABLE = ("subject_id,channel,f_1,f_2,label\r\n" "a,0,1e200,-3e200,case\r\n" "b,0,2e200,1e200,case\r\n"
              "c,0,-1e200,2e200,control\r\n" "d,0,3e200,-1e200,control\r\n")
SMALL_TABLE = ("subject_id,channel,f_1,f_2,label\r\n" "a,0,1,-3,case\r\n" "b,0,2,1,case\r\n"
               "c,0,-1,2,control\r\n" "d,0,3,-1,control\r\n")  # HUGE_TABLE / 1e200
DISTANT_TABLE = ("subject_id,channel,f_1,label\r\n" "a,0,1.2e154,control\r\n" "b,0,-1.2e154,case\r\n"
                 "c,0,5e153,control\r\n" "d,0,-7e153,case\r\n")  # a finite linear kernel, infinite distances


class TestOverflowedFeatures:
    # nb fits on SMALL_TABLE: on HUGE_TABLE its variances overflow, so the fit itself exits 3.
    @pytest.mark.parametrize("model, flags, what, train",
                             [("knn", [], "knn: distance", HUGE_TABLE), ("nb", [], "nb: log posterior", SMALL_TABLE),
                              ("svm", ["--svm-kernel", "rbf"], "svm: rbf kernel", HUGE_TABLE),
                              ("svm", [], "svm: linear kernel", HUGE_TABLE)])
    def test_classify_predict_exits_3_naming_the_classifier(self, tmp_path, model, flags, what, train):
        path, train_path = tmp_path / "huge.csv", tmp_path / "train.csv"
        path.write_text(HUGE_TABLE, encoding="utf-8")
        train_path.write_text(train, encoding="utf-8")
        code, err = run_main(["classify", "--features", str(train_path), "--model", model, "--predict", str(path),
                              *flags, "--out", str(tmp_path / "out")])
        assert code == 3 and "Traceback" not in err
        assert f"numerical failure [classify]: {what} value is not finite" in err
        assert not (tmp_path / "out" / "predictions.csv").exists()

    def test_nb_fit_on_overflowing_variances_exits_3(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_TABLE, encoding="utf-8")
        code, err = run_main(["classify", "--features", str(path), "--model", "nb", "--out", str(tmp_path / "out")])
        assert code == 3 and "Traceback" not in err
        assert "numerical failure [classify]: nb: variance value is not finite" in err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("model, evaluations", [("nb", 1), ("svm", 3)])  # nb has no dimension to vary
    def test_tuning_records_each_overflow_as_a_failure(self, tmp_path, model, evaluations):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_TABLE, encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_main(["tune-clf", "--features", str(path), "--model", model, "--init", "2",
                              "--budget", "1", "--k", "2", "--out", str(out)])
        assert code == 2 and "Traceback" not in err
        assert f"classifier tuning: all {evaluations} evaluations failed" in err
        failures = [row.split(",")[-1] for row in (out / "clf_bo_trace.csv").read_text().splitlines()[1:]]
        assert len(failures) == evaluations and all("value is not finite" in f for f in failures)

    def test_classify_on_an_overflowed_kernel_distance_exits_3_at_once(self, tmp_path):
        path = tmp_path / "distant.csv"
        path.write_text(DISTANT_TABLE, encoding="utf-8")
        start = time.perf_counter()
        code, err = run_main(["classify", "--features", str(path), "--model", "svm", "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "Traceback" not in err
        assert "numerical failure [classify]: svm: kernel distance value is not finite" in err

    def test_tuning_records_an_overflowed_kernel_distance_as_a_failure(self, tmp_path):
        path = tmp_path / "distant.csv"
        path.write_text(DISTANT_TABLE, encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_main(["tune-clf", "--features", str(path), "--model", "svm", "--init", "2",
                              "--budget", "1", "--k", "2", "--out", str(out)])
        assert code == 2 and "Traceback" not in err
        assert "classifier tuning: all 3 evaluations failed" in err
        failures = [row.split(",")[-1] for row in (out / "clf_bo_trace.csv").read_text().splitlines()[1:]]
        assert len(failures) == 3 and all(f.startswith("svm: ") and "value is not finite" in f for f in failures)


def run_fresh(argv):
    """(exit code, stderr) of one run in a fresh interpreter, where numpy's
    RuntimeWarnings reach stderr as they would for a user."""
    proc = subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


class TestOneLineFailures:
    @pytest.mark.parametrize("table, flags, what", [
        (DISTANT_TABLE, ["--model", "svm"], "svm: kernel distance"),
        (HUGE_TABLE, ["--model", "knn", "--predict", "{path}"], "knn: distance"),
        (HUGE_TABLE, ["--model", "nb"], "nb: variance"),
    ], ids=["svm", "knn", "nb"])
    def test_a_numerical_failure_writes_one_stderr_line(self, tmp_path, table, flags, what):
        path = tmp_path / "table.csv"
        path.write_text(table, encoding="utf-8")
        code, err = run_fresh(["-m", "specsiam.cli", "classify", "--features", str(path),
                               *(flag.format(path=path) for flag in flags), "--out", str(tmp_path / "out")])
        assert code == 3
        assert err.splitlines() == [f"numerical failure [classify]: {what} value is not finite; "
                                    "feature magnitudes are too large"]

    def test_a_multi_pipeline_run_exits_2_on_a_missing_manifest(self, tmp_path):
        missing = tmp_path / "missing.json"
        code, err = run_fresh(["-m", "specsiam.cli", "run", "--manifest", str(missing),
                               "--pipeline", "FFT-kNN", "DSTFT-SNN-kNN", "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.splitlines() == [f"error [run]: manifest not found: {missing}"]


class TestManifestFields:
    @pytest.mark.parametrize(
        "field, value, shown",
        [("sample_rate_hz", "abc", "'abc'"), ("sample_rate_hz", float("nan"), "nan"),
         ("sample_rate_hz", True, "True"), ("sample_rate_hz", 0, "0"), ("sample_rate_hz", -64.0, "-64.0"),
         ("sample_rate_hz", float("inf"), "inf"), ("sample_rate_hz", 10 ** 400, "1000"),
         ("sample_rate_hz", None, "None"), ("path", 5, "5"), ("path", None, "None"),
         ("subject_id", ["a"], "['a']"), ("subject_id", 7, "7")],
        ids=["rate-text", "rate-nan", "rate-bool", "rate-zero", "rate-negative", "rate-inf", "rate-huge-int",
             "rate-null", "path-int", "path-null", "subject-list", "subject-int"],
    )
    def test_malformed_field_names_manifest_subject_and_field(self, synth_dir, tmp_path, field, value, shown):
        entries = json.loads((synth_dir / "manifest.json").read_text())
        entries[1][field] = value
        subject = entries[1]["subject_id"]
        manifest = synth_dir / "bad_manifest.json"
        manifest.write_text(json.dumps(entries))
        what = "a string" if field != "sample_rate_hz" else "a finite positive number"
        for argv in (["pairs", "stats"], ["loocv", "--pipeline", "FFT-NB"]):
            code, err = run_main([*argv, "--manifest", str(manifest), "--out", str(tmp_path / "out")])
            assert code == 2 and "Traceback" not in err, argv
            assert f"manifest {manifest}: subject {subject!r}: '{field}' must be {what}, got {shown}" in err, argv


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

    def extract(self, synth_dir, ckpt, out):
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(ckpt),
                              "--out", str(out)])
        assert code == 0, err
        return (out / "features.csv").read_bytes()

    def test_plain_extract_uses_the_checkpoint_config(self, synth_dir, trained, tmp_path):
        self.extract(synth_dir, trained, tmp_path / "plain")
        manifest = json.loads((tmp_path / "plain" / "run_manifest.json").read_text())
        assert manifest["resolved"]["upper_value"] == 150.0

    def test_version_1_checkpoint_is_data_error(self, synth_dir, trained, tmp_path):
        # version 1 held no spectral config, so nothing says which images it takes
        v1 = tmp_path / "v1.json"
        payload = json.loads(trained.read_text())
        payload.pop("stft")
        payload.update(version=1)
        payload["config"]["distance"] = "cosine"
        v1.write_text(json.dumps(payload))
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(v1),
                              "--out", str(tmp_path / "v1")])
        assert code == 2 and "Traceback" not in err
        assert str(v1) in err and "unsupported version 1" in err
        assert not (tmp_path / "v1" / "features.csv").exists()

    @pytest.mark.parametrize("route", ["--checkpoint", "--fft"])
    @pytest.mark.parametrize("flag, value", [("--window-s", "3"), ("--upper-value", "300"),
                                             ("--window-fn", "hann"), ("--hop-s", "0.5")])
    def test_spectral_flag_is_usage_error(self, synth_dir, tmp_path, flag, value, route):
        # parsing fails before the checkpoint would be read
        source = [route, str(tmp_path / "checkpoint.json")] if route == "--checkpoint" else [route]
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), *source, flag, value,
                              "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "x").exists()

    def test_max_freq_hz_with_a_checkpoint_is_data_error(self, synth_dir, trained, tmp_path):
        code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--checkpoint", str(trained),
                              "--max-freq-hz", "30", "--out", str(tmp_path / "x")])
        assert code == 2 and "Traceback" not in err
        assert "flag --max-freq-hz" in err
        assert not (tmp_path / "x").exists()

    def test_fft_without_max_freq_hz_takes_the_pipeline_default(self, synth_dir, tmp_path):
        for out, flags in ((tmp_path / "default", []), (tmp_path / "explicit", ["--max-freq-hz", "30"])):
            code, err = run_main(["extract", "--manifest", manifest_of(synth_dir), "--fft", *flags,
                                  "--out", str(out)])
            assert code == 0, err
        for name in ("features.csv", "run_manifest.json"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()
        manifest = json.loads((tmp_path / "default" / "run_manifest.json").read_text())
        assert manifest["resolved"] == {"fft": True, "max_freq_hz": 30.0}


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
        overflowed = code == 3 and argv[0] == "classify" and "feature magnitudes are too large" in err
        assert code in (0, 2) or overflowed, (argv, err)
        assert "Traceback" not in err


MANIFEST_KEYS = ["subject_id", "label", "path", "sample_rate_hz"]
MANIFEST_EDITS = st.lists(
    st.tuples(st.sampled_from(["set"] * 5 + ["drop-key", "copy-entry", "drop-entry"]), st.integers(0, 3),
              st.sampled_from(MANIFEST_KEYS) | st.text(max_size=4),
              JSON_VALUES | st.sampled_from([float("nan"), float("inf"), 1e-300, 1e300, 64.0, 32, "case",
                                             "control", "case00.csv", "ctrl00.csv", "manifest.json", ""])),
    min_size=1, max_size=3,
)


@pytest.fixture(scope="module")
def tiny_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest_fuzz") / "cohort"
    assert main(["synth", "--cases", "2", "--controls", "2", "--channels", "1", "--duration-s", "4",
                 "--rate", "64", "--seed", "2", "--out", str(out)]) == 0
    return out


@settings(max_examples=60, deadline=None)
@given(edits=MANIFEST_EDITS)
def test_fuzzed_manifest_exits_0_or_2(tiny_cohort, edits):
    """Manifest entries with fields set to any JSON value or dropped, entries copied or removed."""
    entries = json.loads((tiny_cohort / "manifest.json").read_text())
    for what, i, key, value in edits:
        if not entries:
            break
        entry = entries[i % len(entries)]
        if what == "set":
            entry[key] = value
        elif what == "drop-key":
            entry.pop(key, None)
        elif what == "copy-entry":
            entries.append(dict(entry))
        else:
            entries.remove(entry)
    path = tiny_cohort / "fuzzed_manifest.json"
    path.write_text(json.dumps(entries))
    for argv in (["pairs", "stats"], ["loocv", "--pipeline", "FFT-NB"]):
        code, err = run_main([*argv, "--manifest", str(path), "--out", str(tiny_cohort.parent / "out")])
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def saved_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("report_fuzz")
    assert main(["synth", "--cases", "2", "--controls", "2", "--channels", "1", "--duration-s", "4",
                 "--rate", "64", "--seed", "2", "--out", str(root / "cohort")]) == 0
    assert main(["loocv", "--manifest", str(root / "cohort" / "manifest.json"), "--pipeline", "FFT-NB",
                 "--out", str(root / "loocv")]) == 0
    return json.loads((root / "loocv" / "report.json").read_text())


@settings(max_examples=60, deadline=None)
@given(section=st.sampled_from([None, "channel_level", "subject_level", "channel_level.accuracy"]),
       key=st.sampled_from(["pipeline", "n_folds", "channel_level", "subject_level", "accuracy", "sensitivity",
                            "specificity", "mean", "std", "majority_ties", "warnings"]) | st.text(max_size=4),
       value=JSON_VALUES | st.sampled_from([float("nan"), float("inf")]), drop=st.booleans())
def test_fuzzed_report_exits_0_or_2(tmp_path_factory, saved_report, section, key, value, drop):
    report = json.loads(json.dumps(saved_report))
    target = report
    for name in (section.split(".") if section else []):
        target = target[name]
    if drop:
        target.pop(key, None)
    else:
        target[key] = value
    path = tmp_path_factory.mktemp("report") / "report.json"
    path.write_text(json.dumps(report))
    code, err = run_main(["report", str(path)])
    assert code in (0, 2), err
    assert "Traceback" not in err
