"""Self-test of the benchmark: a tiny run of every workload in both modes.

Run from the repository root:

    python3 bench/selftest.py

Each run must exit 0, end with a result whose keys are exactly
``correct``, ``attempted``, ``failed`` and ``metrics``, pass every output
check, and emit every metric that ``BENCHMARK.json`` declares for its mode
(end-to-end untraced, per-layer traced) with the declared unit. The line
before the result must carry the run's provenance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROVENANCE_KEYS = {"nproc", "numpy", "scipy", "blas", "blas_threads_requested", "blas_threads_measured",
                   "seed", "held_out_seed"}


def check_run(workload: str, trace: int, declared: list[dict], seed: int = 3) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if missing := PROVENANCE_KEYS - set(prov):
        errors.append(f"{where}: provenance lacks {sorted(missing)}")
    elif prov["seed"] == prov["held_out_seed"] or prov["blas_threads_requested"] > prov["nproc"]:
        errors.append(f"{where}: provenance {prov}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is not None and (got["unit"] != m["unit"] or not isinstance(got["value"], (int, float))):
            errors.append(f"{where}: {m['name']} = {got}, declared unit {m['unit']}")
    return errors


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            errors += check_run(w["name"], trace, declared)
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print(f"selftest: {'FAILED' if errors else 'ok'} ({2 * len(bench['workloads'])} runs)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
