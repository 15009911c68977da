"""Benchmark entry point for specsiam.

    python3 perfbench/run.py --workload synth-snn --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

One workload runs in this process and prints, as its last stdout line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. `--workload all` runs every workload in a fresh process of its own
and prints a table of their metrics. Inputs are generated from --seed under
.perfbench/ at the checkout root; the run record (environment, inputs, report
hashes, check notes) and, when traced, the span file land there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("synth-snn", "paper-slice", "fft-baselines")
# One BLAS/OpenMP thread: at these shapes it is faster than two on a 2-core
# box and keeps a run from contending with itself. Set before numpy loads.
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def use_checkout_source() -> None:
    """Import specsiam from this checkout's src/, or stop: there is nothing to measure."""
    package = ROOT / "src" / "specsiam" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark from a specsiam checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach BENCHMARK.json units; the computed and declared names must agree exactly."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing, extra = sorted(set(names) - set(values)), sorted(set(values) - set(names))
        raise RuntimeError(f"metric names differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def result_line(record: dict, spec: dict) -> dict:
    traced = bool(record["trace"])
    values = record["per_layer"] if traced else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": with_units(values, spec["per_layer" if traced else "end_to_end"]),
    }


def environment() -> dict:
    import numpy
    import scipy
    from specsiam.evaluate import PipelineConfig

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREADS},
        "scipy_fft_workers": f"-1 in siamese convolutions, i.e. os.cpu_count() = {os.cpu_count()}",
        "jobs": PipelineConfig().jobs,
    }


def run_one(args) -> int:
    os.environ.update(THREADS)
    # One CPU for the whole process, set before any thread starts so scipy.fft's
    # workers inherit it. On a 2-vCPU shared host, FFT workers spread over both
    # vCPUs drew hypervisor steal on each (0.2-1.9 s per synth-snn repetition,
    # mostly under 0.3 s when pinned) and left wall time far above CPU time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    use_checkout_source()
    import bench_workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        record = bench_workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            spans_path=OUT / "spans" / f"{tag}.json",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment()
    line = result_line(record, spec)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({**record, "result": line}, indent=1) + "\n")
    print(f"# {args.workload} seed {args.seed}: env {json.dumps(record['env'])}")
    print(f"# inputs {json.dumps(record['inputs'])}")
    print(f"# report sha256 {json.dumps(record['report_sha256'])}")
    print(f"# rows {json.dumps(record['rows'])}")
    for root, shares in record.get("attribution", {}).items():
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print(f"# share of {root}: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    for note in record["notes"]:
        print(f"# {note}")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and FFT plan caches stay separate."""
    failed = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            failed += 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
