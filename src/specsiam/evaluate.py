"""Leave-one-subject-out evaluation, k-fold tuning objectives, and pipelines.

A pipeline id names a feature route plus a downstream classifier, e.g.
FFT-SVM or DSTFT-SNN-XGB. Folds hold out one subject; its channel instances
are scored against the classifier trained on everyone else. Channel-level
metrics aggregate per-fold; a subject-level majority vote is reported
alongside. Sensitivity averages over case folds only and specificity over
control folds only, since a single-subject fold defines just one of them.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import classify
from .bayesopt import (
    BoState,
    Continuous,
    Discrete,
    LogContinuous,
    SearchSpace,
    optimize,
    write_trace_csv,
)
from .classify import ClassifierKind, ClassifierSpec, LabeledFeatures, default_spec
from .errors import DataError
from .pairing import balance_pairs, build_pairs
from .siamese import (
    KERNEL_SIZES,
    OUTPUT_DIMS,
    NetConfig,
    extract_features,
    fitting_kernel_sizes,
    init_model,
    save_checkpoint,
    train,
    pair_accuracy,
)
from .signals import Dataset, Label, dataset_subset
from .spectral import StftConfig, compute_images, config_to_dict, dstft, fft_features

__all__ = [
    "PIPELINES",
    "PipelineConfig",
    "FoldResult",
    "MetricsReport",
    "parse_pipeline",
    "fft_feature_table",
    "train_network",
    "loocv",
    "classifier_folds",
    "kfold_classifier_objective",
    "kfold_snn_objective",
    "snn_search_space",
    "tune_snn",
    "tune_classifier",
    "require_a_success",
    "compute_metrics",
    "run_pipeline",
    "pipeline_config_to_dict",
    "write_json",
    "write_run_artifacts",
    "report_to_dict",
    "report_to_json",
    "report_table",
    "write_fold_csv",
    "stratified_subject_folds",
    "audit_no_leakage",
]

_CLF_TOKENS = {
    "kNN": ClassifierKind.KNN,
    "NB": ClassifierKind.NB,
    "RF": ClassifierKind.RF,
    "SVM": ClassifierKind.SVM,
    "XGB": ClassifierKind.XGB,
}

PIPELINES = tuple(f"FFT-{t}" for t in _CLF_TOKENS) + tuple(
    f"DSTFT-SNN-{t}" for t in _CLF_TOKENS
)


def parse_pipeline(name: str) -> tuple[str, ClassifierKind]:
    """Split a pipeline id into its feature route ('fft' | 'snn') and classifier."""
    if name not in PIPELINES:
        raise DataError(f"unknown pipeline id {name!r}; valid ids: {', '.join(PIPELINES)}")
    route, _, token = name.rpartition("-")
    return ("fft" if route == "FFT" else "snn"), _CLF_TOKENS[token]


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass(frozen=True)
class PipelineConfig:
    """Stage settings of one pipeline run; the pipeline id is passed separately."""

    stft: StftConfig = StftConfig()
    net: NetConfig = NetConfig()
    max_freq_hz: float = 30.0
    mode: str = "paper"  # "paper" trains the network once; "strict" retrains per fold
    tau: float = 0.5
    clf_params: dict | None = None
    snn_budget: tuple[int, int] | None = None  # (n_init, n_acquisitions)
    clf_budget: tuple[int, int] | None = None
    tuning_epochs: int | None = None  # reduced epochs inside the tuning objective
    tuning_k: int = 5
    balance: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in ("paper", "strict"):
            raise DataError(f"mode must be 'paper' or 'strict', got {self.mode!r}")
        if not (0.0 < self.tau < 1.0):
            raise DataError("tau must lie in (0, 1)")
        if self.jobs < 1:
            raise DataError("jobs must be >= 1")


@dataclass(frozen=True)
class FoldResult:
    """One held-out subject: its channel predictions and confusion counts."""

    held_out_subject: str
    true_label: Label
    channel_predictions: tuple[int, ...]
    subject_prediction: int
    tie: bool
    tp: int
    fp: int
    tn: int
    fn: int
    clf_params: dict = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def channel_accuracy(self) -> float:
        return (self.tp + self.tn) / self.n_instances


def _fold_result(held_out: str, true_label: Label, preds: np.ndarray, clf_params: dict) -> FoldResult:
    preds = np.asarray(preds, dtype=np.int64)
    n_case = int((preds == 1).sum())
    n_control = preds.size - n_case
    if true_label is Label.CASE:
        tp, fn, tn, fp = n_case, n_control, 0, 0
    else:
        tn, fp, tp, fn = n_control, n_case, 0, 0
    tie = 2 * n_case == preds.size
    subject_prediction = 1 if 2 * n_case >= preds.size else 0  # tie breaks toward case
    return FoldResult(
        held_out_subject=held_out,
        true_label=true_label,
        channel_predictions=tuple(int(p) for p in preds),
        subject_prediction=subject_prediction,
        tie=tie,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        clf_params=dict(clf_params),
    )


@dataclass
class MetricsReport:
    """Mean and population std of each metric over folds, at both granularities."""

    pipeline_id: str
    n_folds: int
    channel: dict
    subject: dict
    ties: int
    warnings: list
    folds: list


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def compute_metrics(folds, pipeline_id: str = "") -> MetricsReport:
    """Aggregate per-fold confusion counts; undefined cells are excluded with a warning."""
    if not folds:
        raise DataError("no folds to aggregate")
    warnings = []
    accuracy, sensitivity, specificity = [], [], []
    subj_acc, subj_sens, subj_spec = [], [], []
    ties = 0
    for fold in folds:
        if fold.n_instances == 0:
            warnings.append(f"fold {fold.held_out_subject}: no instances; accuracy undefined")
        else:
            accuracy.append(fold.channel_accuracy)
        if fold.tp + fold.fn > 0:
            sensitivity.append(fold.tp / (fold.tp + fold.fn))
        if fold.tn + fold.fp > 0:
            specificity.append(fold.tn / (fold.tn + fold.fp))
        hit = 1.0 if fold.subject_prediction == (1 if fold.true_label is Label.CASE else 0) else 0.0
        subj_acc.append(hit)
        if fold.true_label is Label.CASE:
            subj_sens.append(1.0 if fold.subject_prediction == 1 else 0.0)
        else:
            subj_spec.append(1.0 if fold.subject_prediction == 0 else 0.0)
        ties += int(fold.tie)
    if not sensitivity:
        warnings.append("sensitivity undefined: no case folds")
    if not specificity:
        warnings.append("specificity undefined: no control folds")

    def agg(values):
        return _mean_std(values) if values else (float("nan"), float("nan"))

    return MetricsReport(
        pipeline_id=pipeline_id,
        n_folds=len(folds),
        channel={
            "accuracy": agg(accuracy),
            "sensitivity": agg(sensitivity),
            "specificity": agg(specificity),
        },
        subject={
            "accuracy": agg(subj_acc),
            "sensitivity": agg(subj_sens),
            "specificity": agg(subj_spec),
        },
        ties=ties,
        warnings=warnings,
        folds=list(folds),
    )


def audit_no_leakage(held_out: str, pairs, train_table: LabeledFeatures | None) -> None:
    """Raise if the held-out subject appears in any training structure."""
    for p in pairs:
        if held_out in (p.subject_a, p.subject_b):
            raise DataError(f"leakage: held-out subject '{held_out}' in training pair")
    if train_table is not None and held_out in train_table.subject_ids:
        raise DataError(f"leakage: held-out subject '{held_out}' in classifier training rows")


# ---------------------------------------------------------------------------
# feature tables

def fft_feature_table(dataset: Dataset, max_freq_hz: float) -> LabeledFeatures:
    """Per-channel truncated magnitude spectra as baseline features."""
    subject_ids, channels, rows, labels = [], [], [], []
    for rec in dataset.recordings:
        for ch in range(dataset.n_channels):
            subject_ids.append(rec.subject_id)
            channels.append(ch)
            rows.append(fft_features(rec.samples[ch], rec.sample_rate_hz, max_freq_hz))
            labels.append(1 if rec.label is Label.CASE else 0)
    return LabeledFeatures(tuple(subject_ids), tuple(channels), np.asarray(rows), np.asarray(labels))


def train_network(dataset: Dataset, train_ids, net: NetConfig, images, balance_seed: int | None = None):
    """Train a network of config net on the pairs of train_ids only, balanced with
    balance_seed when given (balance_pairs); returns (model, loss trace, pairs)."""
    train_ds = dataset_subset(dataset, train_ids)
    pairs = build_pairs(train_ds, images)
    if balance_seed is not None:
        pairs = balance_pairs(pairs, seed=balance_seed)
    model = init_model(net, next(iter(images.values())).magnitudes.shape)
    model, trace = train(model, pairs, images)
    return model, trace, pairs


# ---------------------------------------------------------------------------
# k-fold objectives

def stratified_subject_folds(labels: dict[str, Label], k: int, seed: int) -> list[list[str]]:
    """Subject-level folds, classes dealt round-robin from a seeded shuffle of sorted ids."""
    if k < 2:
        raise DataError("k must be >= 2")
    if k > len(labels):
        raise DataError(f"cannot make {k} folds from {len(labels)} subjects")
    cases = sorted(sid for sid, lab in labels.items() if lab is Label.CASE)
    controls = sorted(sid for sid, lab in labels.items() if lab is Label.CONTROL)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    rng.shuffle(cases)
    rng.shuffle(controls)
    folds: list[list[str]] = [[] for _ in range(k)]
    pos = 0
    for group in (cases, controls):
        for sid in group:
            folds[pos % k].append(sid)
            pos += 1
    return folds


def classifier_folds(
    table: LabeledFeatures, k: int, seed: int
) -> list[tuple[LabeledFeatures, LabeledFeatures, int]]:
    """The stratified subject folds of table as (training table, validation table, fit seed)."""
    labels = {
        sid: (Label.CASE if lab == 1 else Label.CONTROL)
        for sid, lab in table.subject_labels().items()
    }
    all_ids = set(labels)
    return [
        (table.subset(all_ids - set(val_ids)), table.subset(val_ids), _derive_seed(seed, 100 + i))
        for i, val_ids in enumerate(stratified_subject_folds(labels, k, seed))
    ]


def kfold_classifier_objective(
    table: LabeledFeatures,
    spec: ClassifierSpec,
    folds: list[tuple[LabeledFeatures, LabeledFeatures, int]],
) -> float:
    """Mean channel-instance validation accuracy of spec over folds, which are
    classifier_folds(table, k, seed), built once by a caller that scores many specs."""
    accuracies = []
    for train_table, val_table, fit_seed in folds:
        model = classify.fit(spec, train_table, seed=fit_seed)
        preds = model.predict(val_table.x)
        accuracies.append(float((preds == val_table.y).mean()))
    return float(np.mean(accuracies))


def kfold_snn_objective(
    dataset: Dataset,
    stft: StftConfig,
    net: NetConfig,
    tau: float = 0.5,
    k: int = 5,
    seed: int = 0,
) -> float:
    """Mean thresholded pair accuracy on validation-fold pairs.

    Pairs are rebuilt inside each training fold; validation pairs combine
    validation-fold subjects only. Folds too small to form a pair are skipped.
    """
    folds = stratified_subject_folds(dataset.labels(), k, seed)
    images = compute_images(dataset, stft)
    all_ids = set(dataset.subject_ids)
    scores = []
    for i, val_ids in enumerate(folds):
        if len(val_ids) < 2:
            continue
        fold_net = replace(net, seed=_derive_seed(seed, 200 + i))
        model, _, _ = train_network(dataset, all_ids - set(val_ids), fold_net, images)
        val_pairs = build_pairs(dataset_subset(dataset, val_ids), images)
        scores.append(pair_accuracy(model, val_pairs, images, tau))
    if not scores:
        raise DataError("every validation fold was too small to form pairs")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# tuning

def snn_search_space(net: NetConfig | None = None, image_shape: tuple[int, int] | None = None) -> SearchSpace:
    """Joint domain of the network hyperparameters and the magnitude upper value.

    Given the shape of the images, kernel_size takes only the sizes whose
    shape plan with net's pooling fits it, so no evaluation is spent on a
    network that cannot be built; DataError if none fits.
    """
    kernel_sizes = KERNEL_SIZES
    if image_shape is not None:
        net = net or NetConfig()
        kernel_sizes = fitting_kernel_sizes(net, image_shape)
        if not kernel_sizes:
            raise DataError(
                f"no kernel size in {KERNEL_SIZES} fits {image_shape[0]}x{image_shape[1]} "
                f"images with pooling={net.pooling!r}"
            )
    return SearchSpace(
        (
            Discrete("kernel_size", kernel_sizes),
            Discrete("output_dim", OUTPUT_DIMS),
            LogContinuous("l1_lambda", 1e-3, 1e-1),
            Continuous("margin", 1.0, 2.0),
            LogContinuous("learning_rate", 1e-6, 1e-3),
            Continuous("upper_value", 100.0, 500.0),
        )
    )


def _apply_snn_config(stft: StftConfig, net: NetConfig, raw: dict) -> tuple[StftConfig, NetConfig]:
    """Both configs with every field that raw holds set to its value, cast to the field's default type."""

    def apply(config):
        return replace(config, **{f.name: type(f.default)(raw[f.name]) for f in fields(config) if f.name in raw})

    return apply(stft), apply(net)


def tune_snn(
    dataset: Dataset,
    config: PipelineConfig,
    n_init: int = 5,
    n_acquisitions: int = 50,
    seed: int = 0,
    trace_path: str | Path | None = None,
) -> tuple[StftConfig, NetConfig, BoState]:
    """Bayesian-optimize the network hyperparameters and the upper value.

    The objective runs k-fold validation on the partition that holds out the
    lexicographically first subject, mirroring a single outer fold. The
    kernel sizes searched are those that fit the cohort's image shape. The
    trace is written to trace_path when given; DataError if every
    evaluation failed.
    """
    subjects = sorted(dataset.subject_ids)
    tune_ds = dataset_subset(dataset, subjects[1:])
    epochs = config.tuning_epochs or config.net.epochs
    base_net = replace(config.net, epochs=epochs)
    first = dataset.recordings[0]
    shape = dstft(first.samples[0], first.sample_rate_hz, config.stft).magnitudes.shape
    space = snn_search_space(config.net, shape)

    def objective(raw: dict) -> float:
        stft, net = _apply_snn_config(config.stft, base_net, raw)
        return kfold_snn_objective(
            tune_ds, stft, net, tau=config.tau, k=config.tuning_k, seed=_derive_seed(seed, 17)
        )

    best, state = optimize(objective, space, n_init=n_init, n_acquisitions=n_acquisitions, seed=seed)
    if trace_path is not None:
        write_trace_csv(state, trace_path)
    require_a_success(state, "network tuning", trace_path)
    stft, net = _apply_snn_config(config.stft, config.net, best)
    return stft, net, state


def require_a_success(state: BoState, task: str, trace_path: str | Path | None = None) -> None:
    """DataError when every evaluation failed: the best of all-zero scores is no choice."""
    if len(state.failures) == len(state.values):
        where = f"; see the trace {trace_path}" if trace_path is not None else ""
        raise DataError(
            f"{task}: all {len(state.values)} evaluations failed, the first with "
            f"'{state.failures[0]['error']}'{where}"
        )


def tune_classifier(
    table: LabeledFeatures,
    kind: ClassifierKind,
    n_init: int = 5,
    n_acquisitions: int = 10,
    seed: int = 0,
    k: int = 5,
) -> tuple[ClassifierSpec, BoState]:
    """Bayesian-optimize one classifier's hyperparameters on a feature table.

    The inner folds are built once, by the first evaluation; while they
    cannot be built (too few subjects for k), each evaluation fails with
    that error.
    """
    space = classify.classifier_search_space(kind)
    fold_seed = _derive_seed(seed, 23)
    folds: list = []

    def objective(raw: dict) -> float:
        spec = ClassifierSpec(kind, raw)
        if not folds:
            folds.extend(classifier_folds(table, k, fold_seed))
        return kfold_classifier_objective(table, spec, folds=folds)

    best, state = optimize(objective, space, n_init=n_init, n_acquisitions=n_acquisitions, seed=seed)
    return ClassifierSpec(kind, best), state


# ---------------------------------------------------------------------------
# LOOCV

def loocv(dataset: Dataset, name: str, config: PipelineConfig | None = None, seed: int = 0) -> MetricsReport:
    """Leave-one-subject-out evaluation of a pipeline with fixed stage settings."""
    report, _ = _loocv_impl(dataset, name, config or PipelineConfig(), seed, deliverable=False)
    return report


def _network_table(dataset: Dataset, train_ids, config: PipelineConfig, seed: int, images):
    """(model, loss trace, pairs, feature table of every subject) of the network
    trained on train_ids with the net and balance seeds derived from seed."""
    net = replace(config.net, seed=_derive_seed(seed, 13))
    balance_seed = _derive_seed(seed, 11) if config.balance else None
    model, trace, pairs = train_network(dataset, train_ids, net, images, balance_seed)
    return model, trace, pairs, extract_features(model, dataset, images)


def _loocv_impl(dataset: Dataset, name: str, config: PipelineConfig, seed: int, deliverable: bool):
    """LOOCV plus the deliverable (model, loss trace, feature table). The network
    on every subject is trained when the folds share it (paper mode) or when
    deliverable is set, else an SNN route gives Nones; FFT gives no model."""
    route, clf_kind = parse_pipeline(name)
    if dataset.n_subjects < 2:
        raise DataError("LOOCV needs at least 2 subjects")
    labels = dataset.labels()
    present = {lab for lab in labels.values()}
    if len(present) < 2:
        raise DataError("LOOCV needs both classes present")

    subjects = sorted(dataset.subject_ids)
    strict = config.mode == "strict" and route == "snn"
    model = trace = images = table = None
    if route == "fft":
        table = fft_feature_table(dataset, config.max_freq_hz)
    else:
        images = compute_images(dataset, config.stft)
        if not strict or deliverable:
            model, trace, _, table = _network_table(dataset, subjects, config, seed, images)

    def run_fold(fold_index: int) -> FoldResult:
        held = subjects[fold_index]
        train_ids = [s for s in subjects if s != held]
        fold_seed = _derive_seed(seed, 1000 + fold_index)
        if strict:
            _, _, pairs, fold_table = _network_table(dataset, train_ids, config, fold_seed, images)
            audit_no_leakage(held, pairs, None)
        else:
            fold_table = table
        train_table = fold_table.subset(train_ids)
        test_table = fold_table.subset([held])
        audit_no_leakage(held, (), train_table)
        warnings = []
        if config.clf_budget is not None:
            spec, state = tune_classifier(
                train_table,
                clf_kind,
                n_init=config.clf_budget[0],
                n_acquisitions=config.clf_budget[1],
                seed=fold_seed,
                k=config.tuning_k,
            )
            if len(state.failures) == len(state.values):  # the best of all-zero scores is no choice
                spec = default_spec(clf_kind)
                warnings.append(f"fold {held}: classifier tuning: all {len(state.values)} evaluations failed, "
                                f"the first with '{state.failures[0]['error']}'; fitted the default spec")
        elif config.clf_params is not None:
            spec = ClassifierSpec(clf_kind, config.clf_params)
        else:
            spec = default_spec(clf_kind)
        fitted = classify.fit(spec, train_table, seed=fold_seed)
        if clf_kind is ClassifierKind.SVM and not fitted.converged:
            warnings.append(f"fold {held}: svm fit with {spec.params} stopped unconverged "
                            f"after {classify.SVM_MAX_ITER} steps")
        preds = fitted.predict(test_table.x)
        return _fold_result(held, labels[held], preds, spec.params), warnings

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(run_fold, range(len(subjects))))
    else:
        results = [run_fold(i) for i in range(len(subjects))]
    report = compute_metrics([fold for fold, _ in results], pipeline_id=name)
    report.warnings.extend(warning for _, warnings in results for warning in warnings)
    return report, (model, trace, table)


def run_pipeline(
    name: str,
    dataset: Dataset,
    config: PipelineConfig | None = None,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> tuple[MetricsReport, dict]:
    """Optional tuning, then training, extraction and LOOCV; persists artifacts.

    Returns the metrics report plus a dict of artifact paths (empty when
    out_dir is None).
    """
    config = config or PipelineConfig()
    route, _ = parse_pipeline(name)
    artifacts: dict[str, str] = {}
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    if route == "snn" and config.snn_budget is not None:
        trace_path = out / "snn_bo_trace.csv" if out is not None else None
        stft, net, _ = tune_snn(
            dataset, config, n_init=config.snn_budget[0], n_acquisitions=config.snn_budget[1], seed=seed,
            trace_path=trace_path,
        )
        config = replace(config, stft=stft, net=net)
        if trace_path is not None:
            artifacts["snn_bo_trace"] = str(trace_path)

    report, (model, trace, table) = _loocv_impl(dataset, name, config, seed, deliverable=out is not None)

    if out is not None:
        if model is not None:
            ckpt = out / "model_checkpoint.json"
            save_checkpoint(model, config.stft, ckpt)
            artifacts["checkpoint"] = str(ckpt)
        feat_path = out / "features.csv"
        table.to_csv(feat_path)
        artifacts["features"] = str(feat_path)
        artifacts.update(write_run_artifacts(out, report, trace))
        resolved = out / "pipeline_config.json"
        write_json(resolved, pipeline_config_to_dict(name, config, seed))
        artifacts["pipeline_config"] = str(resolved)
    return report, artifacts


def pipeline_config_to_dict(name: str, config: PipelineConfig, seed: int) -> dict:
    """The pipeline id, the run seed and every PipelineConfig field. The net's
    own seed is left out: each training derives its seed from the run seed."""
    payload = {"pipeline": name, "seed": seed, **config_to_dict(config)}
    del payload["net"]["seed"]
    return payload


def write_json(path: str | Path, payload) -> None:
    """payload as JSON with sorted keys and two-space indents, like every JSON run artifact."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_run_artifacts(out: str | Path, report: MetricsReport | None = None, loss_trace=None) -> dict:
    """Writes report.json, report.txt and folds.csv of a report, and
    loss_trace.csv of per-epoch training losses, under out. Returns the path
    of each written file by artifact key."""
    out = Path(out)
    paths = {}
    if report is not None:
        paths = {"report_json": out / "report.json", "report_txt": out / "report.txt",
                 "folds_csv": out / "folds.csv"}
        paths["report_json"].write_text(report_to_json(report), encoding="utf-8")
        paths["report_txt"].write_text(report_table([report]) + "\n", encoding="utf-8")
        write_fold_csv(report, paths["folds_csv"])
    if loss_trace is not None:
        paths["loss_trace"] = out / "loss_trace.csv"
        with open(paths["loss_trace"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss"])
            writer.writerows([epoch, repr(float(loss))] for epoch, loss in enumerate(loss_trace))
    return {key: str(path) for key, path in paths.items()}


# ---------------------------------------------------------------------------
# report rendering

def report_to_dict(report: MetricsReport) -> dict:
    def metrics(block):
        return {
            key: {"mean": mean, "std": std}
            for key, (mean, std) in sorted(block.items())
        }

    return {
        "pipeline": report.pipeline_id,
        "n_folds": report.n_folds,
        "channel_level": metrics(report.channel),
        "subject_level": metrics(report.subject),
        "majority_ties": report.ties,
        "warnings": list(report.warnings),
        "folds": [
            {
                "held_out_subject": f.held_out_subject,
                "true_label": f.true_label.value,
                "tp": f.tp,
                "fp": f.fp,
                "tn": f.tn,
                "fn": f.fn,
                "subject_prediction": "case" if f.subject_prediction == 1 else "control",
                "tie": f.tie,
                "clf_params": f.clf_params,
            }
            for f in report.folds
        ],
    }


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def report_table(reports) -> str:
    """Aligned text table with one row per pipeline, channel-level metrics."""
    header = ("pipeline", "accuracy", "sensitivity", "specificity")
    rows = [header]
    for report in reports:
        cells = [report.pipeline_id]
        for key in ("accuracy", "sensitivity", "specificity"):
            mean, std = report.channel[key]
            cells.append(f"{mean:.2f} ± {std:.2f}")
        rows.append(tuple(cells))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def write_fold_csv(report: MetricsReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "held_out_subject",
                "true_label",
                "tp",
                "fp",
                "tn",
                "fn",
                "channel_accuracy",
                "subject_prediction",
                "tie",
            ]
        )
        for f in report.folds:
            writer.writerow(
                [
                    f.held_out_subject,
                    f.true_label.value,
                    f.tp,
                    f.fp,
                    f.tn,
                    f.fn,
                    repr(f.channel_accuracy),
                    "case" if f.subject_prediction == 1 else "control",
                    int(f.tie),
                ]
            )
