"""The benchmark's workloads and the measurement loop around them.

Each workload builds its inputs from the seed in set-up, then repeats a timed
body until the run's seconds are spent. Every operation and output check of
the body counts as attempted; one that raises or fails counts as failed and
the run goes on. A BO objective failure, which the program records and scores
0 without failing the row, counts in error_rate only. A timing is the median
over a cohort's repetitions, averaged over the workload's cohorts.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specsiam import classify, cli, evaluate, pairing, siamese, signals, spectral
from specsiam.evaluate import PipelineConfig
from specsiam.signals import BandComponent

from bench_spans import Tracer, bo_probe_sites, patched, specsiam_sites

SETUP_REPEATS = 3
SIMPLEX_TOLERANCE = 1e-12


class Checks:
    """Attempted and failed operations of one run; failures are noted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted; the run continues
            self.failed += 1
            self.notes.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {name}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# workloads

SEPARABLE_PROFILES = (
    (BandComponent(2.0, 2.0, 3.0), BandComponent(10.0, 10.0, 0.3)),
    (BandComponent(2.0, 2.0, 0.3), BandComponent(10.0, 10.0, 3.0)),
)


@dataclass(frozen=True)
class Cohort:
    n_case: int
    n_control: int
    channels: int
    duration_s: float
    rate_hz: float

    def generate(self, seed: int, profiles=None, noise_sigma: float = 0.5):
        return signals.generate_synthetic_cohort(
            self.n_case, self.n_control, self.channels, self.duration_s, self.rate_hz,
            class_profiles=profiles, noise_sigma=noise_sigma, seed=seed,
        )

    def describe(self) -> dict:
        return {"subjects": f"{self.n_case} case + {self.n_control} control", "channels": self.channels,
                "duration_s": self.duration_s, "rate_hz": self.rate_hz}


@dataclass(frozen=True)
class SynthSnn:
    """Criterion 7 through the CLI: small-shape training where per-call overhead is large."""

    cohort: Cohort = Cohort(8, 8, 2, 30.0, 64.0)
    cohorts: int = 1
    epochs: int = 20
    min_accuracy: float = 0.90  # acceptance criterion 7
    pipeline = "DSTFT-SNN-kNN"

    def flags(self) -> list[str]:
        return ["--pipeline", self.pipeline, "--seed", "3", "--window-s", "2", "--hop-s", "1",
                "--upper-value", "150", "--kernel-size", "3", "--conv1-filters", "4",
                "--conv2-filters", "8", "--output-dim", "4", "--l1-lambda", "1e-3", "--margin", "1.0",
                "--learning-rate", "1e-3", "--epochs", str(self.epochs), "--pooling", "max2x2",
                "--knn-k", "3"]

    def describe(self) -> dict:
        return {"cohort": self.cohort.describe(), "noise_sigma": 0.3, "profiles": "2 Hz / 10 Hz separable",
                "body": "cli.main(['loocv', ...]) in-process", "argv": self.flags()}

    def setup(self, seed: int, workdir: Path):
        return signals.save_dataset(self.cohort.generate(seed, SEPARABLE_PROFILES, noise_sigma=0.3), workdir)

    def rep(self, manifest, checks: Checks, workdir: Path):
        out = workdir / "loocv"
        start = time.perf_counter()
        code = checks.op("cli.main", cli.main, ["loocv", "--manifest", str(manifest), *self.flags(),
                                                "--out", str(out)])
        row_s = time.perf_counter() - start
        checks.check("cli exit code 0", code == 0)
        report = out / "report.json"
        if not report.is_file():
            checks.check("report.json written", False)
            return {}, {}
        data = report.read_bytes()
        accuracy = json.loads(data)["channel_level"]["accuracy"]["mean"]
        checks.check(f"{self.pipeline} channel accuracy >= {self.min_accuracy}", accuracy >= self.min_accuracy)
        info = {f"row_s.{self.pipeline}": row_s, f"row_acc.{self.pipeline}": accuracy}
        return info, {f"report.{self.pipeline}": _sha256(data)}


@dataclass(frozen=True)
class PaperSlice:
    """Paper-shape images and batches: ingest, every kernel size, eval forwards, classifiers."""

    cohort: Cohort = Cohort(4, 4, 16, 60.0, 128.0)
    cohorts: int = 1
    train_subjects: int = 4  # the first half of each class trains; the rest score pairs
    kernel_sizes = (3, 5, 12)  # the smallest, default and largest of the architecture grid
    net_seed = 1

    def describe(self) -> dict:
        return {"cohort": self.cohort.describe(), "stft": "2 s window, 1 s hop (default)",
                "train": f"1 epoch per k in {list(self.kernel_sizes)}, default net, pairs of "
                         f"{self.train_subjects} fixed subjects (one batch)",
                "extract": "every (subject, channel) image with the k=5 model",
                "pair_accuracy": "pairs of the other subjects",
                "classifiers": "default SVM and XGB fit + predict on the extracted table"}

    def setup(self, seed: int, workdir: Path):
        return signals.save_dataset(self.cohort.generate(seed), workdir)

    def rep(self, manifest, checks: Checks, workdir: Path):
        dataset = checks.op("load_dataset", signals.load_dataset, manifest)
        if dataset is None:
            return {}, {}
        images = checks.op("compute_images", spectral.compute_images, dataset, spectral.StftConfig())
        pairs = checks.op("build_pairs", pairing.build_pairs, dataset, images)
        if pairs is None:
            return {}, {}
        n = dataset.n_subjects
        checks.check("pair count is channels * C(subjects, 2)", len(pairs) == dataset.n_channels * n * (n - 1) // 2)
        labels = dataset.labels()
        by_class = [sorted(s for s in labels if labels[s] is lab) for lab in signals.Label]
        half = self.train_subjects // 2
        train_ids = set(by_class[0][:half] + by_class[1][:half])
        train_pairs = [p for p in pairs if p.subject_a in train_ids and p.subject_b in train_ids]
        held_pairs = [p for p in pairs if p.subject_a not in train_ids and p.subject_b not in train_ids]
        shape = next(iter(images.values())).magnitudes.shape
        digest = hashlib.sha256()
        models = {}
        for k in self.kernel_sizes:
            model = siamese.init_model(siamese.NetConfig(kernel_size=k, epochs=1, seed=self.net_seed), shape)
            trained = checks.op(f"train k={k}", siamese.train, model, train_pairs, images)
            if trained is not None:
                models[k], trace = trained
                checks.check(f"k={k} loss trace finite", all(math.isfinite(v) for v in trace))
                digest.update(repr(trace).encode())
        if 5 not in models:
            return {}, {"paper-slice": digest.hexdigest()}
        table = checks.op("extract_features", siamese.extract_features, models[5], dataset, images)
        if table is not None:
            x = table.x
            checks.check("features finite", bool(np.isfinite(x).all()))
            checks.check("features on the simplex",
                         bool((x >= 0).all() and (np.abs(x.sum(axis=1) - 1.0) <= SIMPLEX_TOLERANCE).all()))
            digest.update(x.tobytes())
        accuracy = checks.op("pair_accuracy", siamese.pair_accuracy, models[5], held_pairs, images)
        digest.update(repr(accuracy).encode())
        if table is not None:
            for kind in (classify.ClassifierKind.SVM, classify.ClassifierKind.XGB):
                model = checks.op(f"fit {kind.value}", classify.fit, classify.default_spec(kind), table)
                if model is not None:
                    predictions = checks.op(f"predict {kind.value}", model.predict, table.x)
                    digest.update(np.asarray(predictions).tobytes())
        return {}, {"paper-slice": digest.hexdigest()}


@dataclass(frozen=True)
class FftBaselines:
    """Two baseline rows sharing no hot code: GP-BO around an SVM, and default boosted trees."""

    cohort: Cohort = Cohort(3, 3, 2, 10.0, 64.0)
    cohorts: int = 2  # BO time depends on the data: average two cohorts
    svm_budget: tuple[int, int] = (5, 4)

    def rows(self):
        return (("FFT-SVM", PipelineConfig(clf_budget=self.svm_budget)), ("FFT-XGB", PipelineConfig()))

    def describe(self) -> dict:
        return {"cohort": self.cohort.describe(), "profiles": "default bands",
                "held": "written to CSV and loaded in set-up; in memory during the timed body",
                "rows": {"FFT-SVM": f"per-fold GP-EI tuning, {self.svm_budget[0]} initial + "
                                    f"{self.svm_budget[1]} acquisitions, 5-fold inner CV",
                         "FFT-XGB": "default spec"}, "seed": 3}

    def setup(self, seed: int, workdir: Path):
        return signals.load_dataset(signals.save_dataset(self.cohort.generate(seed), workdir))

    def rep(self, dataset, checks: Checks, workdir: Path):
        info, digests = {}, {}
        for name, config in self.rows():
            start = time.perf_counter()
            report = checks.op(name, evaluate.loocv, dataset, name, config, seed=3)
            info[f"row_s.{name}"] = time.perf_counter() - start
            if report is not None:
                info[f"row_acc.{name}"] = report.channel["accuracy"][0]
                digests[f"report.{name}"] = _sha256(evaluate.report_to_json(report).encode())
        return info, digests


WORKLOADS = {"synth-snn": SynthSnn(), "paper-slice": PaperSlice(), "fft-baselines": FftBaselines()}

# Smoke sizes for the benchmark's self-test: same code paths, seconds not minutes.
SMOKE = {
    "synth-snn": SynthSnn(cohort=Cohort(2, 2, 1, 20.0, 32.0), epochs=1, min_accuracy=0.0),
    "paper-slice": PaperSlice(cohort=Cohort(2, 2, 1, 40.0, 64.0), train_subjects=2),
    "fft-baselines": FftBaselines(cohort=Cohort(3, 3, 1, 2.0, 64.0), svm_budget=(1, 1)),
}


# ---------------------------------------------------------------------------
# metrics

def _per_rep_layers(t: Tracer, run: str, counts) -> dict:
    """Per-layer metrics of one traced repetition."""

    def s(name, prefix=False):
        return t.total(name, run, prefix)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    load_mb = counts["signals.load_dataset_bytes"] / 1e6
    m = {
        "signals.load_dataset_s": s("signals.load_dataset"),
        "signals.load_dataset_mb": load_mb,
        "spectral.compute_images_s": s("spectral.compute_images"),
        "spectral.images": counts["spectral.images"],
        "spectral.fft_features_s": s("spectral.fft_features"),
        "spectral.fft_features_calls": t.calls("spectral.fft_features", run),
        "pairing.build_pairs_s": s("pairing.build_pairs"),
        "pairing.pairs": counts["pairing.pairs"],
        "pairing.batch_iter_s": s("pairing.batch_iter"),
        "pairing.batches": counts["pairing.batch_iter.items"],
        "siamese.train_s": s("siamese.train", prefix=True),
        "siamese.train_steps": counts["pairing.batch_iter.items"],
        "siamese.train_pairs": counts["pairing.batch_iter.pairs"],
        "siamese.train_self_s": t.self_time("siamese.train", run, prefix=True),
        "siamese.extract_features_s": s("siamese.extract_features"),
        "siamese.extract_images": counts["siamese.extract_images"],
        "siamese.pair_accuracy_s": s("siamese.pair_accuracy"),
        "siamese.pair_accuracy_pairs": counts["siamese.pair_accuracy_pairs"],
        "classify.predict_s": s("classify.predict"),
        "bayesopt.propose_next_s": s("bayesopt.propose_next"),
        "bayesopt.propose_next_calls": t.calls("bayesopt.propose_next", run),
        "bayesopt.gp_fit_s": s("bayesopt.gp_fit"),
        "bayesopt.gp_fit_calls": t.calls("bayesopt.gp_fit", run),
        "bayesopt.propose_self_s": t.self_time("bayesopt.propose_next", run),
        "bayesopt.ei_calls": counts["bayesopt.ei_calls"],
        "bayesopt.objective_wait_s": s("evaluate.kfold_classifier_objective"),
        "bayesopt.evaluations": counts["bayesopt.evaluations"],
        "bayesopt.failures": counts["bayesopt.failures"],
        "evaluate.loocv_s": s("evaluate.loocv", prefix=True),
        "evaluate.folds": counts["evaluate.folds"],
        "evaluate.tune_classifier_s": s("evaluate.tune_classifier"),
        "evaluate.tune_classifier_calls": t.calls("evaluate.tune_classifier", run),
        "evaluate.self_s": t.self_time("evaluate.loocv", run, prefix=True),
        "cli.main_s": s("cli.main"),
        "cli.self_s": t.self_time("cli.main", run),
        "ingest_mb_per_s": rate(load_mb, s("signals.load_dataset")),
        "extract_images_per_s": rate(counts["siamese.extract_images"], s("siamese.extract_features")),
        "train_pairs_per_s": rate(counts["pairing.batch_iter.pairs"], s("siamese.train", prefix=True)),
    }
    for k in (3, 5, 12):
        m[f"siamese.train_k{k}_s"] = s(f"siamese.train.k{k}")
    for kind in ("svm", "xgb", "knn"):
        m[f"classify.fit_s.{kind}"] = s(f"classify.fit.{kind}")
        m[f"classify.fit_calls.{kind}"] = t.calls(f"classify.fit.{kind}", run)
    return m


ROW_PIPELINES = ("DSTFT-SNN-kNN", "FFT-SVM", "FFT-XGB")


@dataclass
class Rep:
    cohort: int
    traced: bool
    wall_s: float
    cpu_s: float
    values: dict  # per-row figures when untraced, per-layer metrics when traced


def _cohort_mean(reps, value) -> float:
    """Mean over cohorts of the median over that cohort's repetitions.

    The median damps machine noise between repetitions of identical work; the
    mean over cohorts averages the work's dependence on the generated data.
    """
    by_cohort: dict[int, list] = {}
    for r in reps:
        by_cohort.setdefault(r.cohort, []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_cohort.values())


def _cohort_means(reps) -> dict:
    keys = sorted({k for r in reps for k in r.values})
    return {k: _cohort_mean([r for r in reps if k in r.values], lambda r: r.values[k]) for k in keys}


def error_rate(record: dict) -> float:
    """Failed over attempted, with each BO evaluation attempted and each recorded objective failure failed.

    The program scores a failing BO objective 0 and goes on, so the row still
    completes and the run's `failed` leaves it out; this rate keeps it.
    """
    return (record["failed"] + record["bo_failures"]) / (record["attempted"] + record["bo_evaluations"])


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            spans_path: Path | None = None, workload=None) -> dict:
    """Set up several times, then repeat the body for about `seconds`; returns the run's record.

    A workload of several cohorts (seeds seed*cohorts + j) cycles through them.
    With trace set, each cohort's repetitions alternate untraced and traced, so
    one process yields both the per-layer figures and the tracing overhead;
    the spans are written to spans_path when given.
    """
    wl = workload or WORKLOADS[name]
    n = wl.cohorts
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir / "setup", ignore_errors=True)
        start = time.perf_counter()
        inputs = [wl.setup(seed * n + j, workdir / "setup" / f"cohort{j}") for j in range(n)]
        setup_times.append(time.perf_counter() - start)

    checks = Checks()
    bo_evaluations = bo_failures = 0
    tracer = Tracer()
    reps: list[Rep] = []
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        cohort = (i // 2 if trace else i) % n
        tracer.run_id = run = f"{name}-seed{seed}-rep{i}"
        bo_errors = []
        sites = bo_probe_sites(tracer, bo_errors) + (specsiam_sites(tracer) if traced else [])
        rep_dir = workdir / f"rep{i}"
        with patched(sites):
            t0, c0 = time.perf_counter(), time.process_time()
            with tracer.span("run") if traced else nullcontext():
                info, digest = wl.rep(inputs[cohort], checks, rep_dir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        shutil.rmtree(rep_dir, ignore_errors=True)
        counts = tracer.counts[run]
        bo_evaluations += counts["bayesopt.evaluations"]
        bo_failures += counts["bayesopt.failures"]
        checks.notes.extend(f"rep {i}: BO objective failure: {error}" for error in bo_errors)
        for key, value in digest.items():
            key = f"{key}.cohort{cohort}"
            if key in first_digest:
                checks.check(f"{key} sha256 equals its first repetition", value == first_digest[key])
            else:
                first_digest[key] = value
        values = _per_rep_layers(tracer, run, counts) if traced else info
        reps.append(Rep(cohort, traced, wall, cpu, values))
        i += 1
        covered = {(r.cohort, r.traced) for r in reps}
        if len(covered) == n * (1 + trace) and time.perf_counter() - start >= seconds:
            break

    plain = [r for r in reps if not r.traced]
    run_s = _cohort_mean(plain, lambda r: r.wall_s)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "cpu_s": _cohort_mean(plain, lambda r: r.cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": wl.describe(),
        "setup_times_s": setup_times,
        "reps": [{"cohort": r.cohort, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in reps],
        "report_sha256": first_digest,
        "rows": _cohort_means(plain),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "bo_evaluations": bo_evaluations,
        "bo_failures": bo_failures,
        "notes": checks.notes,
        "end_to_end": end_to_end,
    }
    if trace:
        rows = record["rows"]
        traced_reps = [r for r in reps if r.traced]
        layers = _cohort_means(traced_reps)
        for pipeline in ROW_PIPELINES:
            layers[f"row_s.{pipeline}"] = rows.get(f"row_s.{pipeline}", 0.0)
            layers[f"row_acc.{pipeline}"] = rows.get(f"row_acc.{pipeline}", 0.0)
        layers["trace_overhead_s"] = _cohort_mean(traced_reps, lambda r: r.wall_s) - run_s
        layers["error_rate"] = error_rate(record)
        record["per_layer"] = layers
        roots = ["run"] + sorted({s.name for s in tracer.spans if s.name.startswith("evaluate.loocv.")})
        record["attribution"] = {
            root: {k: v for k, v in tracer.shares_under(root).items() if v >= 0.01} for root in roots
        }
        if spans_path is not None:
            tracer.write(spans_path)
    return record
