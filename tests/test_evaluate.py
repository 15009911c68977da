import json
import re
from dataclasses import replace

import numpy as np
import pytest

from specsiam import evaluate
from specsiam.classify import ClassifierKind, ClassifierSpec, LabeledFeatures, default_spec
from specsiam.errors import DataError, NumericalError
from specsiam.evaluate import (
    FoldResult,
    PIPELINES,
    PipelineConfig,
    audit_no_leakage,
    classifier_folds,
    compute_metrics,
    fft_feature_table,
    kfold_classifier_objective,
    kfold_snn_objective,
    loocv,
    parse_pipeline,
    report_table,
    report_to_json,
    run_pipeline,
    snn_search_space,
    stratified_subject_folds,
    tune_classifier,
    tune_snn,
    write_fold_csv,
)
from specsiam.pairing import PairExample
from specsiam.siamese import NetConfig
from specsiam.signals import BandComponent, Label, generate_synthetic_cohort
from specsiam.spectral import StftConfig, compute_images


def micro_cohort(n_case=3, n_control=3, duration_s=10.0, seed=21, m_channels=1):
    case = (BandComponent(2.0, 2.0, 3.0), BandComponent(10.0, 10.0, 0.3))
    control = (BandComponent(2.0, 2.0, 0.3), BandComponent(10.0, 10.0, 3.0))
    return generate_synthetic_cohort(
        n_case, n_control, m_channels, duration_s, 64.0,
        class_profiles=(case, control), noise_sigma=0.2, seed=seed,
    )


def micro_config(**kw):
    base = dict(
        stft=StftConfig(window_s=2.0, hop_s=1.0, upper_value=150.0),
        net=NetConfig(
            kernel_size=3, conv1_filters=2, conv2_filters=2, output_dim=2,
            l1_lambda=1e-3, margin=1.0, learning_rate=1e-3, epochs=2,
            pooling="none", seed=0,
        ),
        clf_params={"k": 2},
    )
    base.update(kw)
    return PipelineConfig(**base)


def make_fold(sid, label, preds_case, n_channels=16, tie=False):
    preds = [1] * preds_case + [0] * (n_channels - preds_case)
    n_case = preds_case
    if label is Label.CASE:
        tp, fn, tn, fp = n_case, n_channels - n_case, 0, 0
    else:
        tn, fp, tp, fn = n_channels - n_case, n_case, 0, 0
    return FoldResult(
        held_out_subject=sid,
        true_label=label,
        channel_predictions=tuple(preds),
        subject_prediction=1 if 2 * n_case >= n_channels else 0,
        tie=tie,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


class TestParsePipeline:
    def test_all_ten_ids(self):
        assert len(PIPELINES) == 10
        for name in PIPELINES:
            route, kind = parse_pipeline(name)
            assert route in ("fft", "snn")
            assert isinstance(kind, ClassifierKind)

    def test_examples(self):
        assert parse_pipeline("FFT-SVM") == ("fft", ClassifierKind.SVM)
        assert parse_pipeline("DSTFT-SNN-XGB") == ("snn", ClassifierKind.XGB)

    def test_invalid_rejected(self):
        with pytest.raises(DataError, match="unknown pipeline"):
            parse_pipeline("DSTFT-SNN-LDA")


class TestStratifiedFolds:
    def labels(self, n_case, n_control):
        out = {f"c{i:02d}": Label.CASE for i in range(n_case)}
        out.update({f"k{i:02d}": Label.CONTROL for i in range(n_control)})
        return out

    def test_every_subject_exactly_once(self):
        labels = self.labels(5, 5)
        folds = stratified_subject_folds(labels, 5, seed=0)
        assert len(folds) == 5
        flat = [sid for fold in folds for sid in fold]
        assert sorted(flat) == sorted(labels)
        assert all(len(fold) == 2 for fold in folds)

    def test_deterministic_and_order_invariant(self):
        labels_a = self.labels(4, 6)
        labels_b = dict(reversed(list(labels_a.items())))
        fa = stratified_subject_folds(labels_a, 3, seed=9)
        fb = stratified_subject_folds(labels_b, 3, seed=9)
        assert fa == fb
        assert stratified_subject_folds(labels_a, 3, seed=10) != fa

    def test_too_many_folds_rejected(self):
        with pytest.raises(DataError):
            stratified_subject_folds(self.labels(1, 1), 3, seed=0)


class TestComputeMetrics:
    def test_all_perfect(self):
        folds = [make_fold("a", Label.CASE, 16), make_fold("b", Label.CONTROL, 0)]
        report = compute_metrics(folds, "X")
        assert report.channel["accuracy"] == (1.0, 0.0)
        assert report.channel["sensitivity"] == (1.0, 0.0)
        assert report.channel["specificity"] == (1.0, 0.0)
        assert report.subject["accuracy"] == (1.0, 0.0)

    def test_constant_case_on_paper_shape(self):
        folds = [make_fold(f"case{i}", Label.CASE, 16) for i in range(45)]
        folds += [make_fold(f"ctrl{i}", Label.CONTROL, 16) for i in range(39)]
        report = compute_metrics(folds, "const")
        assert report.channel["sensitivity"][0] == 1.0
        assert report.channel["specificity"][0] == 0.0
        assert report.channel["accuracy"][0] == pytest.approx(45.0 / 84.0)

    def test_zero_sensitivity_fold(self):
        report = compute_metrics([make_fold("a", Label.CASE, 0, n_channels=1)], "x")
        assert report.channel["sensitivity"] == (0.0, 0.0)

    def test_two_point_mean_and_population_std(self):
        folds = [make_fold("a", Label.CASE, 16), make_fold("b", Label.CASE, 8)]
        report = compute_metrics(folds, "x")
        assert report.channel["accuracy"] == (pytest.approx(0.75), pytest.approx(0.25))

    def test_accuracy_identity_recomputed(self):
        rng = np.random.default_rng(0)
        folds = []
        for i in range(10):
            label = Label.CASE if i % 2 else Label.CONTROL
            folds.append(make_fold(f"s{i}", label, int(rng.integers(0, 17))))
        report = compute_metrics(folds, "x")
        expected = np.mean([(f.tp + f.tn) / (f.tp + f.tn + f.fp + f.fn) for f in folds])
        assert report.channel["accuracy"][0] == pytest.approx(float(expected))

    def test_missing_class_warns(self):
        report = compute_metrics([make_fold("a", Label.CASE, 16)], "x")
        assert any("specificity undefined" in w for w in report.warnings)

    def test_tie_counted(self):
        folds = [make_fold("a", Label.CONTROL, 8, tie=True)]
        report = compute_metrics(folds, "x")
        assert report.ties == 1
        assert folds[0].subject_prediction == 1  # tie breaks toward case


class TestLeakageAudit:
    def test_detects_pair_leak(self):
        pairs = [PairExample("a", "b", 0, 1)]
        with pytest.raises(DataError, match="leakage"):
            audit_no_leakage("a", pairs, None)

    def test_detects_table_leak(self):
        table = LabeledFeatures(("a",), (0,), np.zeros((1, 2)), np.array([1]))
        with pytest.raises(DataError, match="leakage"):
            audit_no_leakage("a", (), table)

    def test_clean_structures_pass(self):
        table = LabeledFeatures(("b",), (0,), np.zeros((1, 2)), np.array([1]))
        audit_no_leakage("a", [PairExample("b", "c", 0, 1)], table)


class TestKfoldObjectives:
    def perfect_table(self, n_subjects=10):
        sids, chans, rows, labels = [], [], [], []
        for i in range(n_subjects):
            y = i % 2
            sids.append(f"s{i:02d}")
            chans.append(0)
            rows.append([float(y), float(y)])
            labels.append(y)
        return LabeledFeatures(tuple(sids), tuple(chans), np.array(rows), np.array(labels))

    def test_perfect_fixture_scores_one(self):
        table = self.perfect_table()
        spec = ClassifierSpec(ClassifierKind.KNN, {"k": 3})
        assert kfold_classifier_objective(table, spec, classifier_folds(table, 5, 0)) == 1.0

    def test_deterministic(self):
        table = self.perfect_table(12)
        spec = ClassifierSpec(ClassifierKind.RF, {"n_estimators": 5})
        a = kfold_classifier_objective(table, spec, classifier_folds(table, 3, 4))
        b = kfold_classifier_objective(table, spec, classifier_folds(table, 3, 4))
        assert a == b

    def test_snn_objective_runs_and_scores(self):
        ds = micro_cohort(3, 3)
        config = micro_config()
        score = kfold_snn_objective(ds, config.stft, config.net, tau=0.5, k=3, seed=1)
        assert 0.0 <= score <= 1.0
        again = kfold_snn_objective(ds, config.stft, config.net, tau=0.5, k=3, seed=1)
        assert score == again

    def test_snn_objective_needs_pairable_folds(self):
        ds = micro_cohort(2, 2, duration_s=6.0)
        config = micro_config()
        with pytest.raises(DataError, match="too small"):
            kfold_snn_objective(ds, config.stft, config.net, tau=0.5, k=4, seed=0)


class TestLoocv:
    def test_fft_knn_on_separable(self):
        ds = micro_cohort(4, 4)
        report = loocv(ds, "FFT-kNN", micro_config(), seed=0)
        assert report.n_folds == 8
        assert report.channel["accuracy"][0] >= 0.75
        for key in ("accuracy", "sensitivity", "specificity"):
            assert 0.0 <= report.channel[key][0] <= 1.0

    def test_snn_paper_mode_runs(self):
        ds = micro_cohort(3, 3)
        report = loocv(ds, "DSTFT-SNN-kNN", micro_config(), seed=1)
        assert report.n_folds == 6
        assert len(report.folds[0].channel_predictions) == ds.n_channels

    def test_strict_mode_retrains_without_leak(self):
        ds = micro_cohort(3, 3, duration_s=6.0)
        report = loocv(ds, "DSTFT-SNN-kNN", micro_config(mode="strict"), seed=1)
        assert report.n_folds == 6

    def test_single_class_rejected(self):
        case = (BandComponent(2.0, 2.0, 1.0),)
        ds = generate_synthetic_cohort(2, 1, 1, 4.0, 64.0, class_profiles=(case, case), seed=0)
        from specsiam.signals import dataset_subset

        only_cases = dataset_subset(ds, ["case00", "case01"])
        with pytest.raises(DataError, match="both classes"):
            loocv(only_cases, "FFT-kNN", micro_config(), seed=0)

    def test_jobs_do_not_change_results(self):
        ds = micro_cohort(3, 3)
        a = loocv(ds, "FFT-kNN", micro_config(jobs=1), seed=5)
        b = loocv(ds, "FFT-kNN", micro_config(jobs=3), seed=5)
        assert report_to_json(a) == report_to_json(b)

    def test_jobs_do_not_change_strict_snn_results(self):
        ds = micro_cohort(3, 3, duration_s=6.0)
        a = loocv(ds, "DSTFT-SNN-kNN", micro_config(mode="strict", jobs=1), seed=5)
        b = loocv(ds, "DSTFT-SNN-kNN", micro_config(mode="strict", jobs=2), seed=5)
        assert report_to_json(a) == report_to_json(b)

    def test_deterministic_reports(self):
        ds = micro_cohort(3, 3)
        a = loocv(ds, "DSTFT-SNN-NB", micro_config(clf_params=None), seed=7)
        b = loocv(ds, "DSTFT-SNN-NB", micro_config(clf_params=None), seed=7)
        assert report_to_json(a) == report_to_json(b)

    def test_per_fold_classifier_tuning(self):
        # large enough that every inner fold can support k up to 8
        ds = micro_cohort(5, 5, m_channels=2)
        config = micro_config(clf_params=None, clf_budget=(2, 1), tuning_k=2)
        report = loocv(ds, "FFT-kNN", config, seed=2)
        assert report.n_folds == 10
        assert all(f.clf_params.get("k") in range(2, 9) for f in report.folds)

    def test_a_fold_whose_classifier_search_all_failed_fits_the_default_and_warns(self, monkeypatch):
        # Only the fold holding out case00 fails every evaluation: it fits the
        # default spec and names itself in the warnings; the other folds are
        # those of the run without failures.
        ds = micro_cohort(3, 3)
        config = micro_config(clf_params=None, clf_budget=(2, 1), tuning_k=2)
        clean = loocv(ds, "FFT-SVM", config, seed=2)
        original = evaluate.kfold_classifier_objective

        def failing_without_case00(table, spec, **kwargs):
            if "case00" not in table.subject_ids:
                raise ValueError("objective out of range")
            return original(table, spec, **kwargs)

        monkeypatch.setattr(evaluate, "kfold_classifier_objective", failing_without_case00)
        report = loocv(ds, "FFT-SVM", config, seed=2)
        assert report.folds[0].held_out_subject == "case00"
        assert report.folds[0].clf_params == default_spec(ClassifierKind.SVM).params
        assert report.folds[0].clf_params != clean.folds[0].clf_params
        assert report.folds[1:] == clean.folds[1:]
        assert not clean.warnings
        assert report.warnings == ["fold case00: classifier tuning: all 3 evaluations failed, "
                                   "the first with 'objective out of range'; fitted the default spec"]

    def test_a_capped_svm_fit_warns_naming_the_fold_and_params(self, monkeypatch):
        ds = micro_cohort(3, 3)
        config = micro_config(clf_params=None)
        assert not loocv(ds, "FFT-SVM", config, seed=2).warnings
        monkeypatch.setattr(evaluate.classify, "SVM_MAX_ITER", 0)  # no step, so no fit converges
        report = loocv(ds, "FFT-SVM", config, seed=2)
        params = default_spec(ClassifierKind.SVM).params
        assert report.warnings == [f"fold {sid}: svm fit with {params} stopped unconverged after 0 steps"
                                   for sid in sorted(ds.subject_ids)]


def noisy_table(n_subjects=12, n_channels=2, seed=0):
    """Overlapping classes, so validation accuracies differ between specs."""
    rng = np.random.default_rng(seed)
    sids = [f"s{i:02d}" for i in range(n_subjects) for _ in range(n_channels)]
    y = np.array([i % 2 for i in range(n_subjects) for _ in range(n_channels)])
    x = rng.standard_normal((y.size, 4)) + 0.8 * y[:, None]
    return LabeledFeatures(tuple(sids), tuple(range(n_channels)) * n_subjects, x, y)


class TestTuning:
    def test_tune_classifier_calls_the_module_objective_once_per_evaluation(self, monkeypatch):
        calls = []
        original = evaluate.kfold_classifier_objective

        def counted(*args, **kwargs):
            calls.append(list(kwargs["folds"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluate, "kfold_classifier_objective", counted)
        _, state = tune_classifier(noisy_table(), ClassifierKind.SVM, n_init=3, n_acquisitions=2, seed=1, k=3)
        assert len(calls) == len(state.values) == 5
        assert all(a is b for folds in calls for a, b in zip(folds, calls[0], strict=True))  # built once
        assert [fit_seed for _, _, fit_seed in calls[0]] == [
            fit_seed for _, _, fit_seed in evaluate.classifier_folds(noisy_table(), 3, evaluate._derive_seed(1, 23))
        ]

    @pytest.mark.parametrize(
        "kind, n_subjects, k",
        [(ClassifierKind.SVM, 12, 3), (ClassifierKind.KNN, 10, 5), (ClassifierKind.SVM, 3, 5)],
        ids=["svm", "knn", "too-few-subjects"],
    )
    def test_tune_classifier_trace_equals_folds_rebuilt_per_evaluation(self, monkeypatch, kind, n_subjects, k):
        table = noisy_table(n_subjects)

        def trace():
            spec, state = tune_classifier(table, kind, n_init=3, n_acquisitions=3, seed=4, k=k)
            points = [u.tolist() for u in state.unit_points]
            return spec, state.raw_configs, state.values, points, state.failures, state.gp_hyperparams

        built_once = trace()
        original = evaluate.kfold_classifier_objective
        fold_seed = evaluate._derive_seed(4, 23)
        monkeypatch.setattr(
            evaluate, "kfold_classifier_objective",
            lambda table, spec, folds: original(table, spec, classifier_folds(table, k, fold_seed)),
        )
        assert trace() == built_once
        if n_subjects < k:  # every evaluation fails as it did when each built its folds
            assert [f["error"] for f in built_once[4]] == ["cannot make 5 folds from 3 subjects"] * 6

    def test_tune_classifier_small_budget(self):
        table = TestKfoldObjectives().perfect_table(10)
        spec, state = tune_classifier(table, ClassifierKind.KNN, n_init=2, n_acquisitions=2, seed=0, k=2)
        assert spec.kind is ClassifierKind.KNN
        assert spec.params["k"] in range(2, 9)
        assert len(state.values) == 4
        assert state.best_value == 1.0

    def test_tune_classifier_nb_trivial(self):
        table = TestKfoldObjectives().perfect_table(10)
        spec, state = tune_classifier(table, ClassifierKind.NB, n_init=2, n_acquisitions=5, seed=0, k=2)
        assert spec.params == {}
        assert len(state.values) == 1

    def test_tune_snn_small_budget(self):
        ds = micro_cohort(3, 3)
        config = micro_config(tuning_k=2, tuning_epochs=1)
        stft, net, state = tune_snn(ds, config, n_init=2, n_acquisitions=1, seed=0)
        assert 100.0 <= stft.upper_value <= 500.0
        assert net.kernel_size in range(3, 13)
        assert net.output_dim in (2, 4, 6, 8, 10, 12, 14)
        assert 1e-3 <= net.l1_lambda <= 1e-1
        assert 1.0 <= net.margin <= 2.0
        assert 1e-6 <= net.learning_rate <= 1e-3
        assert len(state.values) == 3
        assert net.epochs == config.net.epochs  # tuning epochs do not leak into the final config

    def test_zero_tuning_epochs_is_a_data_error_not_the_full_epochs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "kfold_snn_objective", lambda *args, **kwargs: calls.append(1) or 0.5)
        with pytest.raises(DataError, match="epochs must be >= 1"):
            tune_snn(micro_cohort(3, 3), micro_config(tuning_k=2, tuning_epochs=0), n_init=2, n_acquisitions=1,
                     seed=0)
        assert not calls

    def test_search_space_keeps_kernel_sizes_that_fit_the_10s_cohort(self):
        # a 10-s cohort at 64 Hz with 2-s windows and 1-s hops gives 65x9 images
        images = compute_images(micro_cohort(1, 1), micro_config().stft)
        shape = next(iter(images.values())).magnitudes.shape
        assert shape == (65, 9)
        space = snn_search_space(micro_config().net, shape)
        assert space.dims[0].values == (3, 4, 5)
        with pytest.raises(DataError, match=r"no kernel size .* fits 65x9 images with pooling='max2x2'"):
            snn_search_space(NetConfig(), shape)
        assert snn_search_space().dims[0].values == tuple(range(3, 13))

    def test_tune_snn_draws_only_fitting_kernel_sizes(self, tmp_path):
        ds = micro_cohort(3, 3)
        config = micro_config(tuning_k=2, tuning_epochs=1)
        trace = tmp_path / "trace.csv"
        _, net, state = tune_snn(ds, config, n_init=3, n_acquisitions=1, seed=0, trace_path=trace)
        assert {cfg["kernel_size"] for cfg in state.raw_configs} <= {3, 4, 5}
        assert not state.failures and net.kernel_size in (3, 4, 5)
        assert len(trace.read_text().splitlines()) == 5
        with pytest.raises(DataError, match="fits 65x9"):
            tune_snn(ds, micro_config(net=NetConfig()), n_init=2, n_acquisitions=1, seed=0)

    def test_tune_snn_where_every_evaluation_fails_names_the_trace(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("diverged")

        monkeypatch.setattr(evaluate, "kfold_snn_objective", failing)
        trace = tmp_path / "snn_bo_trace.csv"
        config = micro_config(tuning_k=2, tuning_epochs=1)
        with pytest.raises(DataError, match=f"all 3 evaluations failed.*'diverged'.*{re.escape(str(trace))}"):
            tune_snn(micro_cohort(3, 3), config, n_init=2, n_acquisitions=1, seed=0, trace_path=trace)
        rows = trace.read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",diverged") for row in rows)
        with pytest.raises(DataError, match="all 3 evaluations failed"):
            run_pipeline("DSTFT-SNN-kNN", micro_cohort(3, 3), replace(config, snn_budget=(2, 1)),
                         seed=0, out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "snn_bo_trace.csv").is_file()

    def test_snn_search_space_domains(self):
        space = snn_search_space()
        assert space.names == (
            "kernel_size", "output_dim", "l1_lambda", "margin", "learning_rate", "upper_value",
        )


class TestRunPipeline:
    def test_fft_knn_smoke_with_artifacts(self, tmp_path):
        ds = micro_cohort(3, 3)
        report, artifacts = run_pipeline("FFT-kNN", ds, micro_config(), seed=0, out_dir=tmp_path)
        for key in ("report_json", "report_txt", "folds_csv", "pipeline_config"):
            assert key in artifacts
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pipeline"] == "FFT-kNN"
        assert set(payload["channel_level"]) == {"accuracy", "sensitivity", "specificity"}

    def test_same_seed_byte_identical_reports(self, tmp_path):
        ds = micro_cohort(3, 3)
        run_pipeline("FFT-kNN", ds, micro_config(), seed=3, out_dir=tmp_path / "a")
        run_pipeline("FFT-kNN", ds, micro_config(), seed=3, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_snn_pipeline_persists_model_artifacts(self, tmp_path):
        ds = micro_cohort(3, 3)
        report, artifacts = run_pipeline(
            "DSTFT-SNN-kNN", ds, micro_config(), seed=1, out_dir=tmp_path
        )
        assert (tmp_path / "model_checkpoint.json").is_file()
        assert (tmp_path / "loss_trace.csv").is_file()
        assert (tmp_path / "features.csv").is_file()
        table = LabeledFeatures.from_csv(tmp_path / "features.csv")
        assert table.n_rows == ds.n_subjects * ds.n_channels

    def test_invalid_pipeline_rejected(self, tmp_path):
        ds = micro_cohort(2, 2, duration_s=6.0)
        with pytest.raises(DataError):
            run_pipeline("FFT-LDA", ds, micro_config(), seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "mode, run, trainings",
        [("strict", False, 4), ("strict", True, 5), ("paper", False, 1), ("paper", True, 1)],
        ids=["strict-loocv", "strict-run", "paper-loocv", "paper-run"],
    )
    def test_the_all_subject_network_is_trained_only_when_read(self, tmp_path, train_calls, mode, run, trainings):
        # strict folds train one network each; the all-subject one is trained
        # when the folds share it or when a run writes its checkpoint
        ds = micro_cohort(2, 2, duration_s=6.0)
        if run:
            run_pipeline("DSTFT-SNN-kNN", ds, micro_config(mode=mode), seed=1, out_dir=tmp_path)
        else:
            loocv(ds, "DSTFT-SNN-kNN", micro_config(mode=mode), seed=1)
        assert len(train_calls) == trainings
        assert (tmp_path / "model_checkpoint.json").is_file() == run


@pytest.fixture()
def train_calls(monkeypatch):
    """A list that grows by one at each call of evaluate.train."""
    calls = []
    train = evaluate.train

    def counted(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train", counted)
    return calls


class TestReportRendering:
    def test_table_layout(self):
        folds = [make_fold("a", Label.CASE, 16), make_fold("b", Label.CONTROL, 0)]
        report = compute_metrics(folds, "DSTFT-SNN-XGB")
        text = report_table([report])
        lines = text.splitlines()
        assert lines[0].split() == ["pipeline", "accuracy", "sensitivity", "specificity"]
        assert lines[1].startswith("DSTFT-SNN-XGB")
        assert "1.00 ± 0.00" in lines[1]

    def test_fold_csv(self, tmp_path):
        folds = [make_fold("a", Label.CASE, 12)]
        report = compute_metrics(folds, "x")
        write_fold_csv(report, tmp_path / "folds.csv")
        lines = (tmp_path / "folds.csv").read_text().strip().splitlines()
        assert lines[0].startswith("held_out_subject,")
        assert lines[1].startswith("a,case,12,0,0,4,")

    def test_report_json_sorted_and_stable(self):
        folds = [make_fold("a", Label.CASE, 16)]
        report = compute_metrics(folds, "x")
        assert report_to_json(report) == report_to_json(report)
        payload = json.loads(report_to_json(report))
        assert payload["folds"][0]["held_out_subject"] == "a"
