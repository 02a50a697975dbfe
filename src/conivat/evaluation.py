"""Partition accuracy and the multi-run benchmark, ablation, and sweep protocols.

The protocol per run: draw a constraint pool (a random half of the indices),
sample the requested number of pairwise constraints from it, label them
similar/dissimilar from ground truth, sanitize, hand the same set to every
algorithm at k = true class count, and score partition accuracy over all
points. Per-run seeds derive from the master seed, so a report is
reproducible end to end; the emitted CSV therefore excludes wall time,
which appears only in the human-readable table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clustering import Partition, ccl, cut_mst, hac, ssl
from .constraints import ConstraintSet, generate_from_labels, sanitize
from .data import FeatureMatrix, _int_labels, _is_index, normalize_minmax
from .metric import LearnConfig, euclidean_dissimilarity
from .vat import VARIANTS, conivat_pipeline

BASELINES = ("hac-sl", "hac-cl", "ssl", "ccl")  # the algorithms that read the Euclidean matrix
ALGORITHMS = BASELINES + VARIANTS
DEFAULT_ALGORITHMS = ("hac-sl", "hac-cl", "ssl", "ccl", "conivat")
SWEEP_COUNTS = (5, 10, 20, 30, 50, 80, 100)


def partition_accuracy(pred, truth) -> float:
    """Percentage of points whose label matches truth under the best id alignment.

    Predicted and true ids are matched one-to-one by maximum-weight
    assignment on the contingency matrix; ids left unmatched (when cluster
    counts differ) contribute nothing. Both label arrays must be 1-D,
    non-empty and of one length, and hold integers: 2.0 is read as 2, but
    0.5 or NaN raises ``ValueError``.
    """
    p = pred.labels if isinstance(pred, Partition) else _int_labels(pred)
    t = _int_labels(truth)
    if p.ndim != 1 or t.ndim != 1 or p.size == 0:
        raise ValueError(f"labels must be non-empty 1-D arrays, got shapes {p.shape} and {t.shape}")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    _, p = np.unique(p, return_inverse=True)
    _, t = np.unique(t, return_inverse=True)
    cont = np.zeros((p.max() + 1, t.max() + 1), dtype=int)
    np.add.at(cont, (p, t), 1)
    return 100.0 * float(_max_assignment_total(cont)) / t.shape[0]


def _max_assignment_total(weights: np.ndarray) -> int:
    """Largest total of a one-to-one matching of rows to columns (min(r, c) pairs).

    Hungarian method with potentials (Kuhn-Munkres, shortest augmenting
    paths) on non-negative integer weights, so the arithmetic is exact and
    the total does not depend on how ties are broken. Rows are added one at
    a time after transposing to rows <= columns; index 0 of the column
    arrays is a dummy column that holds the row being added.
    """
    w = np.asarray(weights, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    n, m = w.shape
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = -w
    inf = np.iinfo(np.int64).max
    u = np.zeros(n + 1, dtype=np.int64)  # row potentials
    v = np.zeros(m + 1, dtype=np.int64)  # column potentials
    row_of = np.zeros(m + 1, dtype=np.intp)  # 1-based row matched to each column, 0 if free
    way = np.zeros(m + 1, dtype=np.intp)  # previous column on the shortest path
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(m + 1, inf, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v
            closer = ~used & (reduced < minv)
            minv[closer] = reduced[closer]
            way[closer] = j0
            j1 = int(np.argmin(np.where(used, inf, minv)))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0 != 0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.flatnonzero(row_of[1:])
    return int(w[row_of[1:][cols] - 1, cols].sum())


@dataclass(frozen=True)
class BenchmarkRow:
    dataset: str
    algorithm: str
    k: int
    n_constraints: int
    pa_runs: tuple[float, ...]
    seconds_runs: tuple[float, ...]
    run_seeds: tuple[int, ...]

    @property
    def mean_pa(self) -> float:
        return float(np.mean(self.pa_runs))

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.seconds_runs))


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]
    master_seed: int
    runs: int

    def row(self, dataset: str, algorithm: str, n_constraints: int | None = None) -> BenchmarkRow:
        for r in self.rows:
            if r.dataset == dataset and r.algorithm == algorithm:
                if n_constraints is None or r.n_constraints == n_constraints:
                    return r
        raise KeyError(f"no row for ({dataset}, {algorithm})")

    def to_csv(self) -> str:
        # wall time deliberately omitted: CSV output is byte-reproducible
        lines = ["dataset,algorithm,k,n_constraints,runs,mean_pa,pa_runs,run_seeds"]
        for r in self.rows:
            pa = ";".join(f"{v:.6f}" for v in r.pa_runs)
            seeds = ";".join(str(s) for s in r.run_seeds)
            lines.append(
                f"{r.dataset},{r.algorithm},{r.k},{r.n_constraints},{len(r.pa_runs)},{r.mean_pa:.6f},{pa},{seeds}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = f"{'dataset':<12} {'algorithm':<12} {'k':>3} {'constr':>6} {'mean PA':>8} {'mean sec':>9}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.dataset:<12} {r.algorithm:<12} {r.k:>3} {r.n_constraints:>6} {r.mean_pa:>8.2f} {r.mean_seconds:>9.4f}"
            )
        return "\n".join(lines) + "\n"


def _run_seeds(master_seed: int, runs: int) -> list[int]:
    return [int(w) for w in np.random.SeedSequence(master_seed).generate_state(runs, dtype=np.uint64)]


def _pool_size(n: int) -> int:
    """Objects in one run's constraint pool: a random half of the ``n`` indices."""
    return n // 2


def _draw_constraints(data: FeatureMatrix, n_constraints: int, run_seed: int) -> ConstraintSet:
    rng = np.random.default_rng(run_seed)
    pool = rng.choice(data.n, size=_pool_size(data.n), replace=False)
    return sanitize(generate_from_labels(data, n_constraints, seed=rng, pool=pool))


def run_algorithm(
    name: str,
    data: FeatureMatrix,
    d_euclidean: np.ndarray | None,
    cs: ConstraintSet,
    k: int,
    cfg: LearnConfig | None = None,
) -> Partition:
    """Dispatch one named algorithm; pipeline variants cluster via cut_mst and ignore ``d_euclidean``."""
    if name == "hac-sl":
        return hac(d_euclidean, k, "single")
    if name == "hac-cl":
        return hac(d_euclidean, k, "complete")
    if name == "ssl":
        return ssl(d_euclidean, cs, k)
    if name == "ccl":
        return ccl(d_euclidean, cs, k)
    if name in VARIANTS:
        vat, _ = conivat_pipeline(data, cs, cfg, variant=name)
        return cut_mst(vat, k)
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")


def run_benchmark(
    datasets: dict[str, FeatureMatrix],
    algorithms=DEFAULT_ALGORITHMS,
    n_constraints: int = 30,
    runs: int = 10,
    seed: int = 0,
    cfg: LearnConfig | None = None,
) -> BenchmarkReport:
    """Score every (dataset, algorithm) pair under the shared-run protocol.

    All algorithms see the same constraint set within a run, so rows are
    comparable. k is fixed to the true class count of each dataset. The
    Euclidean matrix is built once per dataset, and only for the baselines.
    """
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    if not (_is_index(runs) and runs >= 1):
        raise ValueError(f"runs must be >= 1, got {runs}")
    seeds = _run_seeds(seed, runs)
    rows = []
    for ds_name, raw in datasets.items():
        if raw.labels is None:
            raise ValueError(f"dataset {ds_name!r} has no labels; benchmark needs ground truth")
        data = normalize_minmax(raw)
        k = data.n_classes
        d_eucl = euclidean_dissimilarity(data) if any(a in BASELINES for a in algorithms) else None
        pa = {a: [] for a in algorithms}
        secs = {a: [] for a in algorithms}
        for rs in seeds:
            cs = _draw_constraints(data, n_constraints, rs)
            for a in algorithms:
                t0 = time.perf_counter()
                part = run_algorithm(a, data, d_eucl, cs, k, cfg)
                secs[a].append(time.perf_counter() - t0)
                pa[a].append(partition_accuracy(part, data.labels))
        for a in algorithms:
            rows.append(
                BenchmarkRow(
                    dataset=ds_name,
                    algorithm=a,
                    k=k,
                    n_constraints=n_constraints,
                    pa_runs=tuple(pa[a]),
                    seconds_runs=tuple(secs[a]),
                    run_seeds=tuple(seeds),
                )
            )
    return BenchmarkReport(rows=tuple(rows), master_seed=seed, runs=runs)


def run_ablation(
    dataset: FeatureMatrix,
    n_constraints: int = 30,
    runs: int = 10,
    seed: int = 0,
    cfg: LearnConfig | None = None,
    name: str = "dataset",
) -> BenchmarkReport:
    """Benchmark the four pipeline variants under one protocol."""
    return run_benchmark({name: dataset}, VARIANTS, n_constraints, runs, seed, cfg)


def run_constraint_sweep(
    dataset: FeatureMatrix,
    counts=SWEEP_COUNTS,
    runs: int = 10,
    seed: int = 0,
    cfg: LearnConfig | None = None,
    name: str = "dataset",
) -> BenchmarkReport:
    """ConiVAT accuracy and wall time as the constraint budget varies.

    The same per-run seeds are reused at every count so rows differ only in
    the constraint budget.
    """
    rows = []
    for count in counts:
        rep = run_benchmark({name: dataset}, ("conivat",), count, runs, seed, cfg)
        rows.extend(rep.rows)
    return BenchmarkReport(rows=tuple(rows), master_seed=seed, runs=runs)
