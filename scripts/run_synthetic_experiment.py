#!/usr/bin/env python3
"""Desk-scale experiment: spectral-image metric learning vs plain-FFT baselines.

Generates a synthetic case-control cohort whose classes differ in delta/alpha
band power, runs a few pipelines end to end under LOOCV, and prints the
comparative table. Finishes in a couple of minutes on a laptop CPU.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specsiam.evaluate import PipelineConfig, report_table, run_pipeline
from specsiam.siamese import NetConfig
from specsiam.signals import BandComponent, generate_synthetic_cohort, save_dataset
from specsiam.spectral import StftConfig


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=8)
    parser.add_argument("--controls", type=int, default=8)
    parser.add_argument("--channels", type=int, default=2)
    parser.add_argument("--duration-s", type=float, default=30.0)
    parser.add_argument("--rate", type=float, default=64.0)
    parser.add_argument("--noise-sigma", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--pipelines",
        nargs="+",
        default=["FFT-kNN", "FFT-SVM", "DSTFT-SNN-kNN", "DSTFT-SNN-XGB"],
    )
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--out", default="runs/synthetic_experiment")
    return parser.parse_args()


def main():
    args = parse_args()
    case_profile = (BandComponent(2.0, 2.0, 3.0), BandComponent(10.0, 10.0, 0.3))
    control_profile = (BandComponent(2.0, 2.0, 0.3), BandComponent(10.0, 10.0, 3.0))
    dataset = generate_synthetic_cohort(
        n_case=args.cases,
        n_control=args.controls,
        m_channels=args.channels,
        duration_s=args.duration_s,
        sample_rate_hz=args.rate,
        class_profiles=(case_profile, control_profile),
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "cohort")
    print(f"cohort: {dataset.n_subjects} subjects x {dataset.n_channels} channels", file=sys.stderr)

    config = PipelineConfig(
        stft=StftConfig(window_s=2.0, hop_s=1.0, upper_value=150.0),
        net=NetConfig(
            kernel_size=3,
            conv1_filters=4,
            conv2_filters=8,
            output_dim=4,
            l1_lambda=1e-3,
            margin=1.0,
            learning_rate=1e-3,
            epochs=args.epochs,
            pooling="max2x2",
        ),
        clf_params=None,
    )
    reports = []
    for name in args.pipelines:
        t0 = time.time()
        report, _ = run_pipeline(name, dataset, config, seed=3, out_dir=out / name)
        print(f"{name}: {time.time() - t0:.1f}s", file=sys.stderr)
        reports.append(report)
    print()
    print(report_table(reports))


if __name__ == "__main__":
    main()
