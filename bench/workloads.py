"""The benchmark workloads: inputs from a seed, one op, output checks.

Each workload targets one cost centre of the package:

* ``assess-large``: n=3000 blobs read from CSV. Every n x n float matrix is
  72 MB, so the dense layers (distance, minimax + VAT, second VAT, rank
  render) dominate and the learner at p=8 is a few percent.
* ``protocol-synth2``: one seeded run of the CLI ``benchmark`` subcommand on
  synth2 (n=750). The Floyd-Warshall closure of ``ssl``/``ccl`` and the cubic
  ``hac`` dominate; it also covers the ``cli`` and ``evaluation`` layers.

There is no workload where the Mahalanobis learner dominates (n=500, p=64,
150 constraints): on a 2-vCPU shared host its op time drifted enough that
the middle half of ten 30 s runs spread over 20-24% of the median, and
only two workloads leave room in the time budget for 50 s runs. The
learner still runs in every op here, as a few percent of it.

An op is timed from ``run_op`` entry to return; ``make_input`` (untimed)
builds its inputs from the op's own seed and ``check`` (untimed) verifies
its outputs and reduces them to accuracies plus a fingerprint that a traced
rerun of the same input must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import conivat
from conivat import cli
from conivat.evaluation import DEFAULT_ALGORITHMS


def learner_problems(report) -> list[str]:
    """The returned metric must be feasible, as learn_metric guarantees.

    A draw with no similar or no dissimilar pair returns the identity
    unlearned (about 0.4% of draws of 30 pairs over 6 classes); it is
    feasible too.
    """
    if report.c1_residual <= 1e-6 and report.min_eigenvalue >= -1e-8:
        return []
    return [
        f"learner report not feasible: learned={report.learned} "
        f"c1_residual={report.c1_residual:.3e} min_eigenvalue={report.min_eigenvalue:.3e}"
    ]


@dataclass(frozen=True)
class Size:
    n: int
    p: int
    k: int
    n_constraints: int
    spread: float = 0.0  # standard deviation of the blob centres


@dataclass(frozen=True)
class Checked:
    pa: dict[str, float]
    fingerprint: tuple[bytes, ...]
    problems: list[str]


def blobs(seed: int, size: Size) -> conivat.FeatureMatrix:
    """k unit-variance Gaussian blobs of equal size, centres drawn from N(0, spread^2).

    The spread lets the constrained single-linkage cut recover the blobs on
    every seed, so accuracy stays a steady guard.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, size.spread, size=(size.k, size.p))
    labels = np.arange(size.n) % size.k
    points = centers[labels] + rng.standard_normal((size.n, size.p))
    return conivat.FeatureMatrix(points, labels)


def write_labelled_csv(data: conivat.FeatureMatrix, path: Path) -> None:
    header = ",".join([f"x{j}" for j in range(data.dim)] + ["label"])
    table = np.column_stack([data.points, data.labels])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _pgm_problems(path: Path, n: int) -> tuple[bytes, list[str]]:
    raw = path.read_bytes()
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    problems = []
    if not raw.startswith(header):
        problems.append(f"PGM header {raw[:20]!r} is not a P5 {n}x{n} maxval-255 header")
    elif len(raw) != len(header) + n * n:
        problems.append(f"PGM holds {len(raw) - len(header)} pixel bytes, expected {n * n}")
    return raw, problems


def _pa_problems(pa: dict[str, float], n: int) -> list[str]:
    """Accuracy must be a count of matched points out of n, as a percentage."""
    # the CSV keeps 6 decimals, so allow that much rounding
    return [
        f"{name}: partition accuracy {v} is not a match count out of {n}"
        for name, v in pa.items()
        if not 0.0 <= v <= 100.0 or abs(v * n / 100.0 - round(v * n / 100.0)) > 1e-6 * n
    ]


class Assess:
    """``conivat assess`` through the public API, then an MST cut at the true k."""

    def __init__(self, size: Size, workdir: Path):
        self.size, self.workdir = size, workdir

    def make_input(self, seed: int):
        path = self.workdir / f"blobs-{seed}.csv"
        write_labelled_csv(blobs(seed, self.size), path)
        return seed, path

    def run_op(self, inp, tag: str):
        seed, path = inp
        source, dropped = conivat.load_csv(path, label_column="label")
        data = conivat.normalize_minmax(source)
        cs = conivat.generate_from_labels(data, self.size.n_constraints, seed=seed)
        vat, report = conivat.conivat_pipeline(data, cs, variant="conivat")
        pgm = self.workdir / f"rdi-{tag}.pgm"
        conivat.write_pgm(conivat.render(vat, scale="rank"), pgm)
        suggestions = conivat.suggest_k(vat)
        part = conivat.cut_mst(vat, self.size.k)
        pa = conivat.partition_accuracy(part, data.labels)
        return dropped, vat, report, pgm, suggestions, part, pa

    def check(self, out) -> Checked:
        dropped, vat, report, pgm, suggestions, part, pa = out
        n, k = self.size.n, self.size.k
        problems = []
        if dropped:
            problems.append(f"load_csv dropped {dropped} rows")
        problems += learner_problems(report)
        if not np.array_equal(np.sort(vat.order), np.arange(n)):
            problems.append("VAT order is not a permutation of 0..n-1")
        raw, pgm_problems = _pgm_problems(pgm, n)
        pgm.unlink()
        problems += pgm_problems
        if len(suggestions) != n - 2:
            problems.append(f"suggest_k gave {len(suggestions)} candidates, expected {n - 2}")
        if part.k != k or not np.array_equal(np.unique(part.labels), np.arange(k)):
            problems.append(f"cut_mst partition does not cover exactly the ids 0..{k - 1}")
        problems += _pa_problems({"conivat": pa}, n)
        return Checked({"conivat": pa}, (vat.order.tobytes(), raw), problems)

    def cleanup(self, inp) -> None:
        inp[1].unlink()


class Protocol:
    """One seeded run of ``conivat benchmark`` on synth2, entered in-process."""

    def __init__(self, size: Size | None, workdir: Path):
        # size None: the built-in synth2 generator; otherwise a smaller
        # three-arc set passed as a CSV (used by the self-test)
        self.size, self.workdir = size, workdir
        self.n = conivat.synth2(0).n if size is None else size.n // 3 * 3

    def make_input(self, seed: int):
        if self.size is None:
            return seed, ["--gen", "synth2"]
        path = self.workdir / f"arcs-{seed}.csv"
        write_labelled_csv(conivat.gen_banana(seed, arcs=3, per_arc=self.size.n // 3), path)
        return seed, ["--data", str(path), "--label-column", "label"]

    def run_op(self, inp, tag: str):
        seed, source = inp
        out = self.workdir / f"protocol-{tag}"
        argv = ["benchmark", *source, "--seed", str(seed), "--runs", "1", "--n-constraints", "30", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def check(self, result) -> Checked:
        rc, out = result
        if rc != 0:
            return Checked({}, (), [f"conivat benchmark exited with {rc}"])
        path = out / "benchmark.csv"
        raw = path.read_bytes()
        path.unlink()
        os.rmdir(out)
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        pa = {r["algorithm"]: float(r["mean_pa"]) for r in rows}
        problems = []
        if tuple(r["algorithm"] for r in rows) != DEFAULT_ALGORITHMS:
            problems.append(f"benchmark rows {[r['algorithm'] for r in rows]} != {list(DEFAULT_ALGORITHMS)}")
        if any(r["k"] != "3" or r["runs"] != "1" for r in rows):
            problems.append("benchmark rows are not k=3, runs=1")
        problems += _pa_problems(pa, self.n)
        return Checked(pa, (raw,), problems)

    def cleanup(self, inp) -> None:
        if self.size is not None:
            Path(inp[1][1]).unlink()


FULL = {
    "assess-large": Size(n=3000, p=8, k=6, n_constraints=30, spread=10.0),
    "protocol-synth2": None,
}
TINY = {
    "assess-large": Size(n=120, p=8, k=6, n_constraints=30, spread=10.0),
    "protocol-synth2": Size(n=60, p=2, k=3, n_constraints=30),
}


def make(name: str, tiny: bool, workdir: Path):
    size = (TINY if tiny else FULL)[name]
    if name == "protocol-synth2":
        return Protocol(size, workdir)
    return Assess(size, workdir)
