"""Command-line front end: assess, cluster, benchmark, ablation, sweep.

The workflow mirrors the two-phase assessment procedure: ``assess`` writes
the reordered-dissimilarity image plus cut magnitudes and k suggestions for
a human to inspect, then ``cluster`` is invoked with the chosen k to emit a
partition. The benchmark subcommands wrap the evaluation protocols.

Exit codes: 0 success, 2 usage or input error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .clustering import cut_mst, suggest_k
from .constraints import ConstraintSet, generate_from_labels, read_constraints
from .data import FeatureMatrix, load_csv, normalize_minmax, synth1, synth2
from .evaluation import (
    DEFAULT_ALGORITHMS,
    SWEEP_COUNTS,
    _pool_size,
    partition_accuracy,
    run_ablation,
    run_benchmark,
    run_constraint_sweep,
)
from .metric import LearnConfig
from .rdi import SCALES, render, write_pgm
from .vat import VARIANTS, conivat_pipeline

_GENERATORS = {"synth1": synth1, "synth2": synth2}


class InputError(Exception):
    """User-supplied data or flags are unusable; maps to exit code 2."""


def _add_common(p: argparse.ArgumentParser, *, variant: bool = False, drawn: bool = True) -> None:
    """Flags every subcommand reads; ``variant`` adds the assessment's, ``drawn`` ``--n-constraints``."""
    p.add_argument("--data", action="append", default=[], metavar="CSV", help="dataset CSV path (repeatable for benchmark)")
    p.add_argument("--gen", action="append", default=[], choices=sorted(_GENERATORS), help="built-in generator (repeatable for benchmark)")
    p.add_argument("--label-column", default=None, help="class column: header name or 0-based index")
    if variant:
        p.add_argument("--constraints", default=None, metavar="FILE", help="constraint file ('S i j' / 'D i j' lines)")
    if drawn:
        p.add_argument("--n-constraints", type=int, default=30, help="constraints to draw from labels (default 30)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory (default .)")
    p.add_argument("--alpha", type=float, default=LearnConfig.alpha, help="metric-learning step size")
    p.add_argument("--epsilon", type=float, default=LearnConfig.epsilon, help="objective-change stop threshold")
    p.add_argument("--max-iters", type=int, default=LearnConfig.max_iters, help="gradient-ascent iteration cap")
    if variant:
        p.add_argument("--variant", default="conivat", choices=VARIANTS, help="pipeline variant (default conivat)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conivat", description="Constraint-driven visual cluster tendency assessment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="write RDI image, cut magnitudes, and k suggestions")
    _add_common(p, variant=True)
    p.add_argument("--scale", default="linear", choices=SCALES, help="pixel scaling (default linear)")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("cluster", help="cut the MST at a chosen k and write the partition")
    _add_common(p, variant=True)
    p.add_argument("--k", type=int, required=True, help="cluster count (read it off the RDI)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("benchmark", help="multi-run protocol over the standard algorithms")
    _add_common(p)
    p.add_argument("--runs", type=int, default=10, help="scored runs per pair (default 10)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("ablation", help="benchmark the four pipeline variants")
    _add_common(p)
    p.add_argument("--runs", type=int, default=10, help="scored runs per variant (default 10)")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("sweep", help="ConiVAT accuracy/time across constraint budgets")
    _add_common(p, drawn=False)
    p.add_argument("--runs", type=int, default=10, help="scored runs per count (default 10)")
    p.add_argument("--counts", default=",".join(str(c) for c in SWEEP_COUNTS), help="comma-separated constraint counts")
    p.set_defaults(func=cmd_sweep)
    return parser


def _parse_label_column(raw: str | None):
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def _load_datasets(args) -> list[tuple[str, FeatureMatrix]]:
    out: list[tuple[str, FeatureMatrix]] = []
    label_col = _parse_label_column(args.label_column)
    for path in args.data:
        try:
            data, dropped = load_csv(path, label_column=label_col)
        except (OSError, ValueError) as e:
            raise InputError(str(e)) from e
        try:
            data = normalize_minmax(data)  # once, for every command; fail here, where the file is named
        except ValueError as e:
            raise InputError(f"{path}: {e}") from e
        if dropped:
            print(f"note: {path}: dropped {dropped} unparseable row(s)", file=sys.stderr)
        out.append((Path(path).stem, data))
    for name in args.gen:
        out.append((name, normalize_minmax(_GENERATORS[name](args.seed))))
    return out


def _load_one_dataset(args) -> tuple[str, FeatureMatrix]:
    sets = _load_datasets(args)
    if len(sets) != 1:
        raise InputError("exactly one of --data/--gen is required here")
    return sets[0]


def _load_constraints(args, name: str, data: FeatureMatrix) -> ConstraintSet:
    if args.constraints is not None:
        try:
            return read_constraints(args.constraints, data.n)
        except (OSError, ValueError) as e:
            raise InputError(str(e)) from e
    # an assessment draws its pairs from all n objects
    _check_drawn_counts([(name, data)], [args.n_constraints], "--n-constraints", pool_size=lambda n: n)
    if data.labels is None:
        if args.n_constraints == 0:
            return ConstraintSet.empty(data.n)
        raise InputError("cannot draw constraints: dataset has no labels (pass --constraints or --label-column)")
    return generate_from_labels(data, args.n_constraints, seed=args.seed)


def _read_text(path: str) -> str | None:
    """The contents of a system file, or None where it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _memory_budget() -> int | None:
    """The lowest of physical memory and the cgroup memory limits over this process, in bytes; None where none is known.

    The cgroup's path in each hierarchy comes from ``/proc/self/cgroup``: v2
    keeps its limit in ``memory.max``, v1 in the memory controller's
    ``memory.limit_in_bytes``, both under ``/sys/fs/cgroup``. A limit on any
    group from the process's own up to the root binds it, so every one is
    read. "max", a file that cannot be read and a value of 2^62 or more (an
    unlimited v1 group reports 2^63 - 1 rounded down to a page) mean no
    limit.
    """
    budgets = []
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        pages = size = 0
    if pages > 0 and size > 0:
        budgets.append(pages * size)
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, group = fields
        if not controllers:
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = group.rstrip("/").split("/")
        for depth in range(1, len(parts) + 1):
            raw = _read_text(f"{root}{'/'.join(parts[:depth])}/{name}")
            if raw is not None and raw.strip().isdigit() and int(raw) < 2 ** 62:
                budgets.append(int(raw))
    return min(budgets, default=None)


def _check_memory(sets, bytes_per_entry: int) -> None:
    """Reject, before any run, a dataset whose n x n matrices exceed ``_memory_budget``.

    The peak is estimated as ``bytes_per_entry`` * n^2: 8 for ``cluster``,
    ``ablation`` and ``sweep`` (one float matrix at a time), 9 for
    ``assess`` (plus the 8-bit image) and 16 for ``benchmark`` (the
    baselines' Euclidean matrix plus one working copy).
    """
    budget = _memory_budget()
    if budget is None:
        return
    for name, data in sets:
        need = bytes_per_entry * data.n ** 2
        if need > budget:
            raise InputError(
                f"dataset {name!r} has {data.n} objects: its n x n matrices need about "
                f"{need} bytes, more than the {budget} bytes of memory available "
                "(physical memory, or the cgroup limit where lower)"
            )


def _learn_config(args) -> LearnConfig:
    try:
        return LearnConfig(alpha=args.alpha, epsilon=args.epsilon, max_iters=args.max_iters)
    except ValueError as e:
        raise InputError(str(e)) from e


def _outdir(args) -> Path:
    out = Path(args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _run_variant(args, name: str, data: FeatureMatrix):
    cs = _load_constraints(args, name, data) if args.variant != "ivat" else None
    return conivat_pipeline(data, cs, _learn_config(args), variant=args.variant)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header``, then one ``a,b`` line per row of Python scalars, each in its repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in rows)


def cmd_assess(args) -> int:
    name, data = _load_one_dataset(args)
    _check_memory([(name, data)], 9)
    vat, report = _run_variant(args, name, data)
    out = _outdir(args)
    write_pgm(render(vat, scale=args.scale), out / "rdi.pgm")
    _write_csv(out / "cuts.csv", "position,magnitude", enumerate(vat.cut_magnitudes.tolist(), start=1))
    suggestions = suggest_k(vat) if vat.n >= 2 else []
    _write_csv(out / "suggestions.csv", "k,score", suggestions)
    if report is not None and report.learned:
        _write_csv(out / "metric_report.csv", "iteration,objective", enumerate(report.objective_trace))
        print(
            f"metric: {report.iterations_used} objective evaluations, "
            f"c1 residual {report.c1_residual:.2e}, min eigenvalue {report.min_eigenvalue:.2e}"
        )
    print(f"wrote {out / 'rdi.pgm'} ({vat.n}x{vat.n})")
    for k, score in suggestions[:3]:
        print(f"suggest k={k} (gap {score:.4f})")
    return 0


def cmd_cluster(args) -> int:
    name, data = _load_one_dataset(args)
    if not 1 <= args.k <= data.n:
        raise InputError(f"--k must be in [1, {data.n}], got {args.k}")
    _check_memory([(name, data)], 8)
    vat, _ = _run_variant(args, name, data)
    out = _outdir(args)
    part = cut_mst(vat, args.k)
    _write_csv(out / "partition.csv", "index,label", enumerate(part.labels.tolist()))
    print(f"wrote {out / 'partition.csv'} (k={args.k})")
    if data.labels is not None:
        print(f"PA: {partition_accuracy(part, data.labels):.2f}")
    return 0


def _write_report(report, out: Path, filename: str) -> int:
    with open(out / filename, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(report.to_table(), end="")
    print(f"wrote {out / filename}")
    return 0


def _check_drawn_counts(sets, counts, flag: str, pool_size=_pool_size) -> None:
    """Reject, before any draw, a constraint count that cannot be drawn.

    Each draw takes distinct pairs from a pool of ``pool_size(n)`` objects;
    a protocol run's pool is ``_pool_size(n)``.
    """
    for count in counts:
        if count < 0:
            raise InputError(f"{flag} must be >= 0, got {count}")
    for name, data in sets:
        pool = pool_size(data.n)
        limit = pool * (pool - 1) // 2
        for count in counts:
            if count > limit:
                raise InputError(
                    f"{flag} must be <= {limit} for dataset {name!r}, the distinct pairs "
                    f"in its constraint pool of {pool} objects, got {count}"
                )


def _check_protocol(args, sets, bytes_per_entry: int) -> list[int]:
    """Check labels, ``--runs``, the drawn counts and memory before a protocol command runs; return the counts."""
    for name, data in sets:
        if data.labels is None:
            raise InputError(f"dataset {name!r} has no labels; {args.command} needs ground truth")
    if args.runs < 1:
        raise InputError("--runs must be >= 1")
    if args.command == "sweep":
        flag = "--counts"
        try:
            counts = [int(c) for c in args.counts.split(",") if c.strip()]
        except ValueError as e:
            raise InputError(f"--counts must be comma-separated integers: {e}") from e
        if not counts:
            raise InputError("--counts needs at least one non-negative integer")
    else:
        flag, counts = "--n-constraints", [args.n_constraints]
    _check_drawn_counts(sets, counts, flag)
    _check_memory(sets, bytes_per_entry)
    return counts


def cmd_benchmark(args) -> int:
    sets = _load_datasets(args)
    if not sets:
        raise InputError("at least one --data/--gen is required")
    _check_protocol(args, sets, 16)
    report = run_benchmark(dict(sets), DEFAULT_ALGORITHMS, args.n_constraints, args.runs, args.seed, _learn_config(args))
    return _write_report(report, _outdir(args), "benchmark.csv")


def cmd_ablation(args) -> int:
    name, data = _load_one_dataset(args)
    _check_protocol(args, [(name, data)], 8)
    report = run_ablation(data, args.n_constraints, args.runs, args.seed, _learn_config(args), name=name)
    return _write_report(report, _outdir(args), "ablation.csv")


def cmd_sweep(args) -> int:
    name, data = _load_one_dataset(args)
    counts = _check_protocol(args, [(name, data)], 8)
    report = run_constraint_sweep(data, counts, args.runs, args.seed, _learn_config(args), name=name)
    return _write_report(report, _outdir(args), "sweep.csv")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # before any dataset is drawn or --out is made
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
