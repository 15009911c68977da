#!/usr/bin/env python3
"""Turns paired perfbench runs of a parent and a change checkout into BENCH_<n>.json.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --pr N

PARENT_DIR and CHANGE_DIR are the perfbench output directories of the two
checkouts (`<checkout>/.perfbench`). Their untraced run records,
`results/<workload>-seed<n>-trace0.json`, are paired by workload and seed;
every record must have its partner. For each workload and each end-to-end
metric of BENCHMARK.json the file gives each side's median and quartiles, the
seeds of the pairs where the change read lower, each pair's change/parent
ratio (in seed order) and their median, the metric's bound and a verdict:

- "unresolved" when the parent's interquartile range exceeds the bound (as a
  share of its median), unless every change run reads better than every
  parent run;
- "worse" when the change's median is worse than the parent's by more than
  the bound;
- "within bound" otherwise.

The pair ratios are information only: on a workload whose seeds are distinct
cohorts, the parent's spread across seeds can leave a verdict unresolved
while the pairs agree on a ratio.

Each pair also says whether its report sha256 values match, and the file
lists the distinct nproc, CPU affinity, numpy and scipy versions that the
records state. BENCH_<n>.json is written at the repository root, and a
summary table is printed. A malformed or unpaired record exits 2 with one
line naming the file. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("nproc", "affinity", "numpy", "scipy")


class RecordError(Exception):
    """A run record that cannot be used; the message names the file."""


def load_record(path: Path, metrics: list[str]) -> dict:
    """The fields of one run record that the BENCH file uses, checked."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        workload, seed, env = record["workload"], record["seed"], record["env"]
        values = {name: record["end_to_end"][name] for name in metrics}
        digests = record["report_sha256"]
        env = {key: env[key] for key in ENV_KEYS}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecordError(f"{path}: not a readable JSON record ({exc})") from None
    except (KeyError, TypeError) as exc:
        raise RecordError(f"{path}: missing or mistyped field: {exc}") from None
    if not isinstance(workload, str) or isinstance(seed, bool) or not isinstance(seed, int):
        raise RecordError(f"{path}: workload must be a string and seed an integer")
    if record.get("trace") != 0:
        raise RecordError(f"{path}: not an untraced (--trace 0) run")
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            raise RecordError(f"{path}: end_to_end {name} must be a positive number, got {value!r}")
    if not isinstance(digests, dict):
        raise RecordError(f"{path}: report_sha256 must be an object")
    return {"workload": workload, "seed": seed, "values": values, "digests": digests, "env": env}


def load_side(directory: Path, metrics: list[str]) -> dict:
    """{(workload, seed): (path, record)} for the untraced records under directory/results."""
    paths = sorted((directory / "results").glob("*-trace0.json"))
    if not paths:
        raise RecordError(f"{directory / 'results'}: no *-trace0.json run records")
    side = {}
    for path in paths:
        record = load_record(path, metrics)
        key = (record["workload"], record["seed"])
        if key in side:
            raise RecordError(f"{path}: a second record of {key[0]} seed {key[1]} (first: {side[key][0]})")
        side[key] = (path, record)
    return side


def quartiles(values: list[float]) -> dict:
    """Median and quartiles by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = math.floor(pos)
        return v[lo] + (v[min(lo + 1, len(v) - 1)] - v[lo]) * (pos - lo)

    return {"median": at(0.5), "q1": at(0.25), "q3": at(0.75)}


def compare(seeds: list[int], parent: list[float], change: list[float], metric: dict) -> dict:
    """One end-to-end metric of one workload: both sides' quartiles, the pairs the change read lower, the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    every_run_better = max(sign * x for x in change) < min(sign * x for x in parent)
    pair_ratios = [y / x for x, y in zip(parent, change)]
    if (p["q3"] - p["q1"]) / p["median"] > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    elif sign * (c["median"] - p["median"]) / p["median"] > metric["bound"]:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"],
        "change_lower": [s for s, x, y in zip(seeds, parent, change) if y < x],
        "pair_ratios": pair_ratios,
        "median_pair_ratio": quartiles(pair_ratios)["median"],
        "verdict": verdict,
    }


def bench_file(parent_dir: Path, change_dir: Path, pr: int, spec: dict) -> dict:
    declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    parent, change = load_side(parent_dir, names), load_side(change_dir, names)
    for one, other, other_dir in ((parent, change, change_dir), (change, parent, parent_dir)):
        for key, (path, _) in one.items():
            if key not in other:
                raise RecordError(f"{path}: no record of {key[0]} seed {key[1]} under {other_dir / 'results'}")
    workloads = {}
    for name in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == name)
        pairs = [(parent[name, s][1], change[name, s][1]) for s in seeds]
        metrics = {
            m["name"]: compare(seeds, [p["values"][m["name"]] for p, _ in pairs],
                               [c["values"][m["name"]] for _, c in pairs], m)
            for m in declared
        }
        workloads[name] = {
            "metrics": metrics,
            "pairs": [{"seed": s, "sha256_equal": p["digests"] == c["digests"],
                       "parent": p["values"], "change": c["values"]} for s, (p, c) in zip(seeds, pairs)],
        }
    envs = []
    for _, record in [*parent.values(), *change.values()]:
        if record["env"] not in envs:
            envs.append(record["env"])
    return {"pr": pr, "command": spec["command"], "env": envs, "workloads": workloads}


def summary(bench: dict) -> list[str]:
    lines = []
    for name, workload in bench["workloads"].items():
        n = len(workload["pairs"])
        same = sum(pair["sha256_equal"] for pair in workload["pairs"])
        lines.append(f"{name}: {n} pairs, report sha256 equal in {same}")
        for metric, m in workload["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(f"  {metric:12s} {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) -> {c['median']:.4g}"
                         f"  {m['ratio']:.2f}x  pairs {m['median_pair_ratio']:.2f}x"
                         f"  lower {len(m['change_lower'])}/{n}  {m['verdict']}")
    return lines


def main(argv=None, out_dir: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        bench = bench_file(args.parent_dir, args.change_dir, args.pr, spec)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary(bench)))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
