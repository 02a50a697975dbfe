"""Write every CLI output at the default seeds, for a byte-identity gate.

Usage, from the repository root:

    python3 tools/cli_outputs.py OUTDIR

It runs, in process and against the package in ``src/`` next to this
directory, for each of the bundled iris CSV, ``--gen synth1`` and
``--gen synth2``:

* ``benchmark``, ``ablation`` and ``sweep``;
* ``benchmark --n-constraints 100``, whose ``ccl`` column covers long
  chains of must-link rows handed on in the endpoint closure;
* ``assess`` for every variant at both render scales;
* ``cluster`` for every variant at k = 2, 3, 4 and 5.

Each run writes into its own directory, ``OUTDIR/<dataset>/<run>/``.
The standard output of ``assess`` and ``cluster`` goes to ``stdout.txt``
there, its run directory replaced by ``<out>``, so the gate also covers
the printed PA, k suggestions and learner summary. The standard output of
``benchmark``, ``ablation`` and ``sweep`` is discarded, because their
tables print wall time. To check that a change leaves every output
byte-identical, run this in two checkouts and compare the trees:

    diff -r OUTDIR_A OUTDIR_B

BLAS is pinned to one thread before NumPy is imported: the Gram-matrix
distances sum in an order that follows the thread count, so outputs are
byte-reproducible only at a fixed count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402 - the thread count must be set before numpy loads
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from conivat import cli  # noqa: E402
from conivat.vat import VARIANTS  # noqa: E402
from conivat.rdi import SCALES  # noqa: E402

DATASETS = {
    "iris": ["--data", str(SRC / "conivat" / "datasets" / "iris.csv"), "--label-column", "species"],
    "synth1": ["--gen", "synth1"],
    "synth2": ["--gen", "synth2"],
}
KS = (2, 3, 4, 5)


def runs():
    """(dataset, run name, argv without --out) for every output the tool writes."""
    for name, source in DATASETS.items():
        for command in ("benchmark", "ablation", "sweep"):
            yield name, command, [command, *source]
        yield name, "benchmark-c100", ["benchmark", *source, "--n-constraints", "100"]
        for variant in VARIANTS:
            for scale in SCALES:
                yield name, f"assess-{variant}-{scale}", ["assess", *source, "--variant", variant, "--scale", scale]
            for k in KS:
                yield name, f"cluster-{variant}-k{k}", ["cluster", *source, "--variant", variant, "--k", str(k)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    failed = 0
    for name, run, run_argv in runs():
        out = root / name / run
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main([*run_argv, "--out", str(out)])
        if rc != 0:
            print(f"{name}/{run}: exit {rc}", file=sys.stderr)
            failed += 1
        elif run_argv[0] in ("assess", "cluster"):
            (out / "stdout.txt").write_text(stdout.getvalue().replace(str(out), "<out>"), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
