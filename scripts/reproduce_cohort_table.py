#!/usr/bin/env python3
"""Full-budget evaluation of all ten pipelines on a real cohort manifest.

Reproduces the complete comparison table: five plain-FFT baselines and five
network-feature pipelines, each with per-fold classifier tuning (5+10) and,
for the network rows, a single joint hyperparameter search (5+50) that also
selects the magnitude upper value. Expect hours of CPU time at 84 subjects;
use --snn-acq/--clf-acq to trade fidelity for speed. A data error exits 2 and
a numerical failure 3, each with the CLI's one-line message.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specsiam.cli import exit_code
from specsiam.evaluate import PIPELINES, PipelineConfig, report_table, run_pipeline
from specsiam.signals import load_dataset


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True, help="cohort manifest JSON")
    parser.add_argument("--pipelines", nargs="+", default=list(PIPELINES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--snn-init", type=int, default=5)
    parser.add_argument("--snn-acq", type=int, default=50)
    parser.add_argument("--clf-init", type=int, default=5)
    parser.add_argument("--clf-acq", type=int, default=10)
    parser.add_argument("--tuning-epochs", type=int, default=None,
                        help="reduced epochs inside the tuning objective")
    parser.add_argument("--mode", choices=["paper", "strict"], default="paper")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="runs/cohort_table")
    return parser.parse_args()


def main():
    args = parse_args()
    dataset = load_dataset(args.manifest)
    print(
        f"cohort: {dataset.n_subjects} subjects x {dataset.n_channels} channels "
        f"x {dataset.n_samples} samples",
        file=sys.stderr,
    )
    out = Path(args.out)
    reports = []
    for name in args.pipelines:
        config = PipelineConfig(
            mode=args.mode,
            snn_budget=(args.snn_init, args.snn_acq) if name.startswith("DSTFT") else None,
            clf_budget=(args.clf_init, args.clf_acq),
            tuning_epochs=args.tuning_epochs,
            jobs=args.jobs,
        )
        t0 = time.time()
        report, _ = run_pipeline(name, dataset, config, seed=args.seed, out_dir=out / name)
        print(f"{name}: done in {time.time() - t0:.0f}s", file=sys.stderr)
        reports.append(report)
    table = report_table(reports)
    (out / "table.txt").write_text(table + "\n", encoding="utf-8")
    print()
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code("cohort-table", main))
