"""Acceptance gate: one test per shipped criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion. Criterion 8 needs a real cohort manifest (SPECSIAM_REAL_MANIFEST)
and full tuning budgets; it is skipped otherwise.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from specsiam.bayesopt import Continuous, SearchSpace, expected_improvement, gp_fit, optimize
from specsiam.classify import (
    GaussianNbClassifier,
    GradientBoostingClassifier,
    KnnClassifier,
    SmoSvmClassifier,
)
from specsiam.cli import main
from specsiam.evaluate import PipelineConfig, loocv, report_table, report_to_json, run_pipeline
from specsiam.siamese import NetConfig, contrastive_loss, sample_dropout_masks
from specsiam.spectral import StftConfig, WindowFn, dstft

from test_classify import kkt_violation, knn_oracle, nb_oracle
from test_siamese import finite_difference_check, tiny_setup
from test_spectral import dft_magnitudes, full_spectrum_energy, taper_for


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[ACCEPTANCE] criterion {number} ({name}): PASS")


def test_criterion_1_pair_count(paper_shape_manifest, capsys):
    with criterion(1, "pair-count reproduction"):
        start = time.perf_counter()
        code = main(["pairs", "stats", "--manifest", str(paper_shape_manifest)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "total_pairs: 55776" in out
        assert elapsed < 1.0, f"pairs stats took {elapsed:.2f}s"


def test_criterion_2_dstft_oracle_suite():
    with criterion(2, "DSTFT oracle suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(100):
            win = int(rng.integers(4, 65))
            t_samples = int(rng.integers(win, 513))
            hop = int(rng.integers(1, win + 1))
            window_fn = WindowFn.RECTANGULAR if trial % 2 == 0 else WindowFn.HANN
            signal = rng.standard_normal(t_samples) * float(rng.uniform(0.1, 10.0))
            fs = 1.0
            config = StftConfig(window_s=float(win), hop_s=float(hop), window_fn=window_fn)
            image = dstft(signal, fs, config)
            taper = taper_for(window_fn, win)
            for w in range(image.n_frames):
                frame = signal[w * hop : w * hop + win] * taper
                expected = dft_magnitudes(frame)
                err = np.abs(image.magnitudes[:, w] - expected)
                scale = np.maximum(np.abs(expected), np.abs(expected).max())
                assert (err / np.maximum(scale, 1e-300)).max() < 1e-9
                if window_fn is WindowFn.RECTANGULAR:
                    energy = full_spectrum_energy(image.magnitudes[:, w], win)
                    reference = win * float((frame**2).sum())
                    assert abs(energy - reference) / reference < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_3_gradient_correctness():
    with criterion(3, "gradient correctness"):
        start = time.perf_counter()
        for i in range(10):
            pooling = "max2x2" if i % 2 else "none"
            model, batch, images = tiny_setup(seed=1000 + i, pooling=pooling)
            masks = sample_dropout_masks(model, batch.n_pairs)
            finite_difference_check(model, batch, images, masks, h=1e-4, tol=1e-3)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_4_loss_identities():
    with criterion(4, "contrastive loss identities"):
        for y in (0, 1):
            for d_tenths in range(11):
                d = d_tenths / 10.0
                for m in (1.0, 1.5, 2.0):
                    expected = y * d * d + (1 - y) * max(0.0, m - d) ** 2
                    assert abs(contrastive_loss(y, d, m) - expected) <= 1e-12


def test_criterion_5_bo_sanity():
    with criterion(5, "Bayesian optimization sanity"):
        start = time.perf_counter()
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        hits = 0
        for seed in range(10):
            best, _ = optimize(
                lambda cfg: 1.0 - (cfg["x"] - 0.63) ** 2,
                space,
                n_init=5,
                n_acquisitions=20,
                seed=seed,
            )
            if abs(best["x"] - 0.63) <= 0.05:
                hits += 1
        assert hits >= 9, f"only {hits}/10 runs found the optimum"

        rng = np.random.default_rng(55)
        x = rng.random((12, 2))
        y = np.sin(4.0 * x[:, 0]) + np.cos(3.0 * x[:, 1])
        gp = gp_fit(x, y)
        queries = rng.random((1000, 2))
        ei = expected_improvement(gp, queries, float(y.max()))
        assert (ei >= 0.0).all()
        _, var = gp.predict(queries)
        assert (var >= 0.0).all()

        gp_interp = gp_fit(x, y, noise=1e-10)
        mu, _ = gp_interp.predict(x)
        assert np.abs(mu - y).max() < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"BO sanity took {elapsed:.1f}s"


def test_criterion_6_classifier_oracles():
    with criterion(6, "classifier oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(66)
        x = rng.random((8, 3))
        y = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        queries = rng.random((30, 3))
        for k in (1, 2, 3, 5, 7):
            got = KnnClassifier(k=k).fit(x, y).predict(queries)
            np.testing.assert_array_equal(got, knn_oracle(x, y, queries, k))
        got = GaussianNbClassifier().fit(x, y).predict(queries)
        np.testing.assert_array_equal(got, nb_oracle(x, y, queries))

        sep_x = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
        sep_y = np.array([0, 0, 1, 1])
        svm = SmoSvmClassifier(kernel="linear", c=5.0).fit(sep_x, sep_y)
        assert (svm.predict(sep_x) == sep_y).all()
        assert kkt_violation(svm, sep_x, sep_y) <= 1e-3

        gx = rng.random((16, 3))
        gy = (gx[:, 0] > 0.5).astype(int)
        gy[0] = 1 - gy[0]
        gbt = GradientBoostingClassifier(n_estimators=40, max_depth=3, learning_rate=0.1).fit(gx, gy)
        assert (np.diff(np.array(gbt.train_loss_trace)) <= 1e-12).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"classifier oracles took {elapsed:.1f}s"


def accepted_snn_config() -> PipelineConfig:
    return PipelineConfig(
        stft=StftConfig(window_s=2.0, hop_s=1.0, upper_value=150.0),
        net=NetConfig(
            kernel_size=3,
            conv1_filters=4,
            conv2_filters=8,
            output_dim=4,
            l1_lambda=1e-3,
            margin=1.0,
            learning_rate=1e-3,
            epochs=20,
            pooling="max2x2",
            seed=5,
        ),
        clf_params={"k": 3},
    )


def test_criterion_7_end_to_end_synthetic(separable_cohort):
    with criterion(7, "end-to-end synthetic separation"):
        start = time.perf_counter()
        report = loocv(separable_cohort, "DSTFT-SNN-kNN", accepted_snn_config(), seed=3)
        elapsed = time.perf_counter() - start
        mean, std = report.channel["accuracy"]
        print(f"\n  DSTFT-SNN-kNN synthetic LOOCV accuracy: {mean:.3f} +/- {std:.3f} ({elapsed:.0f}s)")
        assert mean >= 0.90
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


@pytest.mark.skipif(
    "SPECSIAM_REAL_MANIFEST" not in os.environ,
    reason="real cohort manifest not supplied (set SPECSIAM_REAL_MANIFEST)",
)
def test_criterion_8_real_cohort_reproduction(tmp_path):
    # Full-budget runs on the real 84-subject cohort. The numbers are recorded,
    # not asserted; the documented expectation is the network pipeline beating
    # every plain-spectrum baseline on the same seeds.
    with criterion(8, "real-cohort reproduction (not gated)"):
        from specsiam.signals import load_dataset

        dataset = load_dataset(os.environ["SPECSIAM_REAL_MANIFEST"])
        reports = []
        for name in ("DSTFT-SNN-XGB", "FFT-SVM"):
            config = PipelineConfig(
                snn_budget=(5, 50) if name.startswith("DSTFT") else None,
                clf_budget=(5, 10),
            )
            report, _ = run_pipeline(name, dataset, config, seed=1, out_dir=tmp_path / name)
            reports.append(report)
        print("\n" + report_table(reports))


def test_criterion_9_determinism(separable_cohort, tmp_path):
    with criterion(9, "seeded determinism"):
        from specsiam.signals import BandComponent, generate_synthetic_cohort

        micro = generate_synthetic_cohort(
            3, 3, 1, 10.0, 64.0,
            class_profiles=(
                (BandComponent(2.0, 2.0, 3.0),),
                (BandComponent(10.0, 10.0, 3.0),),
            ),
            noise_sigma=0.2,
            seed=40,
        )
        fft_cfg = PipelineConfig(clf_params={"k": 2})
        a = report_to_json(loocv(micro, "FFT-kNN", fft_cfg, seed=5))
        b = report_to_json(loocv(micro, "FFT-kNN", fft_cfg, seed=5))
        assert a == b

        snn_cfg = PipelineConfig(
            stft=StftConfig(window_s=2.0, hop_s=1.0, upper_value=150.0),
            net=NetConfig(kernel_size=3, conv1_filters=2, conv2_filters=2, output_dim=2,
                          l1_lambda=1e-3, margin=1.0, learning_rate=1e-3, epochs=2,
                          pooling="none", seed=0),
            clf_params={"k": 2},
        )
        c = report_to_json(loocv(micro, "DSTFT-SNN-kNN", snn_cfg, seed=6))
        d = report_to_json(loocv(micro, "DSTFT-SNN-kNN", snn_cfg, seed=6))
        assert c == d

        run_pipeline("FFT-kNN", micro, fft_cfg, seed=7, out_dir=tmp_path / "r1")
        run_pipeline("FFT-kNN", micro, fft_cfg, seed=7, out_dir=tmp_path / "r2")
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()
