"""scripts/bench_record.py on synthetic perfbench run records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"nproc": 2, "affinity": [0], "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
SEEDS = range(100, 110)


def write_record(directory, workload, seed, values, digest="d0"):
    record = {"workload": workload, "seed": seed, "trace": 0, "end_to_end": values,
              "report_sha256": {f"report.{workload}.cohort0": digest}, "env": ENV}
    path = directory / "results" / f"{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return path


def write_pairs(tmp_path, workload, parent_values, change_values, digests=None):
    for i, seed in enumerate(SEEDS):
        write_record(tmp_path / "parent", workload, seed, parent_values(i))
        write_record(tmp_path / "change", workload, seed, change_values(i),
                     digest=(digests or {}).get(seed, "d0"))


def edit(path, change):
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


def run(tmp_path, capsys):
    code = bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "7"], out_dir=tmp_path)
    out, err = capsys.readouterr()
    return code, out, err


def parent_run(i):
    # run_s and cpu_s tight, setup_s spread far wider than its 0.25 bound, peak_rss_mb tight
    return {"run_s": 1.0 + 0.01 * i, "cpu_s": 1.0 + 0.01 * i, "setup_s": 0.02 + 0.01 * i, "peak_rss_mb": 100.0 + i}


def change_run(i):
    p = parent_run(i)
    return {"run_s": 0.9 * p["run_s"], "cpu_s": 1.5 * p["cpu_s"], "setup_s": 1.01 * p["setup_s"],
            "peak_rss_mb": 1.05 * p["peak_rss_mb"]}


def test_a_bench_file_gives_quartiles_lower_pairs_and_verdicts(tmp_path, capsys):
    write_pairs(tmp_path, "synth-snn", parent_run, change_run, digests={103: "moved"})
    code, out, err = run(tmp_path, capsys)
    assert (code, err) == (0, "")
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert bench["pr"] == 7 and bench["env"] == [{k: ENV[k] for k in ("nproc", "affinity", "numpy", "scipy")}]
    workload = bench["workloads"]["synth-snn"]
    run_s = workload["metrics"]["run_s"]
    assert run_s["parent"] == pytest.approx({"median": 1.045, "q1": 1.0225, "q3": 1.0675})
    assert run_s["change"]["median"] == pytest.approx(0.9 * 1.045)
    assert run_s["ratio"] == pytest.approx(0.9)
    assert (run_s["bound"], run_s["unit"], run_s["better"]) == (0.24, "s", "lower")
    assert run_s["change_lower"] == list(SEEDS)
    verdicts = {name: m["verdict"] for name, m in workload["metrics"].items()}
    assert verdicts == {"run_s": "within bound", "cpu_s": "worse", "setup_s": "unresolved",
                        "peak_rss_mb": "within bound"}
    assert workload["metrics"]["peak_rss_mb"]["change_lower"] == []
    assert [p["sha256_equal"] for p in workload["pairs"]] == [seed != 103 for seed in SEEDS]
    assert workload["pairs"][0] == {"seed": 100, "sha256_equal": True, "parent": parent_run(0), "change": change_run(0)}
    assert "synth-snn: 10 pairs, report sha256 equal in 9" in out
    assert "wrote" in out.splitlines()[-1]


def test_a_spread_parent_is_resolved_when_every_change_run_reads_better(tmp_path, capsys):
    def change(i):
        return {**parent_run(i), "setup_s": 0.01}

    write_pairs(tmp_path, "fft-baselines", parent_run, change)
    assert run(tmp_path, capsys)[0] == 0
    metrics = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]["fft-baselines"]["metrics"]
    assert metrics["setup_s"]["verdict"] == "within bound"
    assert metrics["run_s"]["change_lower"] == []  # equal values are not lower


@pytest.mark.parametrize("break_it, message", [
    (lambda path: path.write_text("{not json"), "not a readable JSON record"),
    (lambda path: path.write_text(json.dumps({"workload": "synth-snn", "seed": 100})), "missing or mistyped field"),
    (lambda path: edit(path, lambda r: r["end_to_end"].update(run_s=-1.0)),
     "end_to_end run_s must be a positive number"),
    (lambda path: edit(path, lambda r: r.update(trace=1)), "not an untraced"),
], ids=["json", "fields", "metric", "traced"])
def test_a_malformed_record_exits_2_naming_the_file(tmp_path, capsys, break_it, message):
    write_pairs(tmp_path, "synth-snn", parent_run, change_run)
    broken = tmp_path / "change" / "results" / "synth-snn-seed100-trace0.json"
    break_it(broken)
    code, out, err = run(tmp_path, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {broken}: ") and message in err
    assert not (tmp_path / "BENCH_7.json").exists()


def test_a_record_without_its_partner_exits_2_naming_it(tmp_path, capsys):
    write_pairs(tmp_path, "synth-snn", parent_run, change_run)
    lonely = write_record(tmp_path / "parent", "paper-slice", 5, parent_run(0))
    code, _, err = run(tmp_path, capsys)
    assert code == 2 and err.startswith(f"error: {lonely}: no record of paper-slice seed 5")
