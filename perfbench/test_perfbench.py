"""Self-test of the benchmark at smoke size.

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that tracing leaves report bytes unchanged, that every wrapped attribute is
restored, that a failing output check is counted rather than raised, that a
recorded BO objective failure counts in error_rate but not in failed, and that
the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import bench_spans  # noqa: E402
import bench_workloads as bw  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def traced_records(tmp_path_factory):
    return {
        name: bw.measure(name, 5, 0, True, tmp_path_factory.mktemp(name), workload=bw.SMOKE[name])
        for name in bw.WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(traced_records, name):
    record = traced_records[name]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line({**record, "trace": trace}, SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1, record["notes"]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert all(v > 0 for v in record["end_to_end"].values())


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_tracing_leaves_report_bytes_unchanged(tmp_path, name):
    workload = bw.SMOKE[name]
    inputs = workload.setup(5, tmp_path / "setup")
    checks = bw.Checks()
    _, plain = workload.rep(inputs, checks, tmp_path / "plain")
    tracer = bench_spans.Tracer()
    with bench_spans.patched(bench_spans.specsiam_sites(tracer)):
        _, traced = workload.rep(inputs, checks, tmp_path / "traced")
    assert plain and traced == plain
    assert checks.failed == 0, checks.notes
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


def test_every_wrapped_attribute_is_restored(traced_records):
    # traced_records has already run every workload traced: what is installed
    # now must be the original functions, not wrappers (which carry __wrapped__).
    sites = bench_spans.specsiam_sites(bench_spans.Tracer()) + bench_spans.bo_probe_sites(bench_spans.Tracer(), [])
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in sites}
    assert all(not hasattr(fn, "__wrapped__") for fn in originals.values())
    with pytest.raises(RuntimeError):
        with bench_spans.patched(sites):
            assert all(owner.__dict__[attr] is not originals[owner, attr] for owner, attr, _ in sites)
            raise RuntimeError("interrupted body")
    assert all(owner.__dict__[attr] is original for (owner, attr), original in originals.items())


def test_failing_output_check_is_counted_not_raised(tmp_path):
    strict = replace(bw.SMOKE["synth-snn"], min_accuracy=1.01)
    record = bw.measure("synth-snn", 5, 0, True, tmp_path, workload=strict)
    line = run.result_line(record, SPEC)
    assert not line["correct"] and line["failed"] >= 1
    assert line["metrics"]["error_rate"]["value"] == record["failed"] / record["attempted"] > 0
    assert any("channel accuracy" in note for note in record["notes"])


def test_recorded_bo_failure_counts_in_error_rate_not_failed(tmp_path, monkeypatch):
    def failing_objective(*args, **kwargs):
        raise ValueError("objective out of range")

    monkeypatch.setattr(bw.evaluate, "kfold_classifier_objective", failing_objective)
    record = bw.measure("fft-baselines", 5, 0, True, tmp_path, workload=bw.SMOKE["fft-baselines"])
    line = run.result_line(record, SPEC)
    assert line["correct"] and line["failed"] == 0, record["notes"]
    assert record["bo_failures"] == record["bo_evaluations"] > 0
    assert line["metrics"]["bayesopt.failures"]["value"] > 0
    assert line["metrics"]["error_rate"]["value"] == (
        record["bo_failures"] / (record["attempted"] + record["bo_evaluations"]))
    assert any("BO objective failure: objective out of range" in note for note in record["notes"])


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "synth-snn", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
