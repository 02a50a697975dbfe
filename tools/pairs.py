"""Paired benchmark runs of two checkouts, with a verdict per end-to-end metric.

Usage, from the repository root:

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed 104729]

PARENT and CHANGE are two checkouts of the repository. Each pair runs

    python3 bench/run.py --workload W --seed SEED --seconds RUN_SECONDS --trace 0

in both checkouts, one after the other, and alternates which side goes
first: the parent in even pairs, the change in odd ones. ``RUN_SECONDS``
and the end-to-end metrics, with their ``better`` direction and regression
``bound``, are read from ``BENCHMARK.json`` beside this directory. Every
run's result line is printed as it ends. Then, for each metric, the tool
prints each side's median and quartiles, the change's wins out of the
pairs run (ties count for neither side) and one verdict:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than ``bound`` times the parent's median;
* ``unresolved``: the parent's interquartile range is wider than that
  bound, and not every run of the change reads better than every run of
  the parent;
* ``within bound`` otherwise.

The exit status is 1 when a run fails or a metric is a regression or
unresolved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``within bound`` for one metric's paired runs."""
    sign = 1 if better == "higher" else -1
    q1, med, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - med)  # > 0: the change is better
    limit = bound * abs(med)
    if wins(parent, change, better) >= 0.9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > limit:
        return "regression"
    if q3 - q1 > limit and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one untraced bench run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=104729)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
    status = 0
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            try:
                result = run_bench(sides[side], args.workload, args.seed, spec["run_seconds"])
            except RuntimeError as e:
                print(f"pair {i} {side}: {e}", file=sys.stderr)
                return 1
            print(f"pair {i} {side}: {json.dumps(result)}", flush=True)
            status |= not result["correct"]
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {spec['run_seconds']} s runs")
    for m in spec["end_to_end"]:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        v = verdict(parent, change, m["better"], m["bound"])
        status |= v in ("regression", "unresolved")
        cells = [f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for side, q in
                 (("parent", quartiles(parent)), ("change", quartiles(change)))]
        print(f"  {m['name']:<14} {cells[0]:<36} {cells[1]:<36} wins {wins(parent, change, m['better'])}/{len(parent)}"
              f"  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
