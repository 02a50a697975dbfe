"""The traced benchmark's targets exist in the package and see its work.

``bench/spans.py`` wraps package functions that it looks up by module and
name. The bench is not part of this suite, so its target table is read
here with ``ast``, without importing it, and each entry is resolved. The
dense kernels are timed through the functions that call them, so those
functions must be the route the work takes.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conivat import (
    ConstraintSet,
    VatResult,
    clustering,
    conivat_pipeline,
    euclidean_dissimilarity,
    generate_from_labels,
    metric,
    render,
    vat,
)
from conivat.evaluation import run_algorithm
from conivat.rdi import SCALES

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def bench_targets():
    """The literal ``TARGETS`` tuple of ``bench/spans.py``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_every_traced_function_resolves():
    targets = bench_targets()
    assert targets
    for span, module, function in targets:
        assert callable(getattr(importlib.import_module(module), function, None)), (span, module, function)


def count_calls(monkeypatch, module, name) -> list:
    """Swap every reference to ``module.name`` held by a package module for a counting wrapper, as the tracer does."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "conivat" or mod_name.startswith("conivat."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("variant", vat.VARIANTS)
def test_pipeline_calls_the_traced_distance_function_once(iris_norm, monkeypatch, variant):
    calls = count_calls(monkeypatch, metric, "dissimilarity_under_metric")
    conivat_pipeline(iris_norm, generate_from_labels(iris_norm, 30, seed=0), variant=variant)
    assert len(calls) == 1


@pytest.mark.parametrize("scale", SCALES)
def test_render_calls_the_running_max_kernel_once(monkeypatch, scale):
    calls = count_calls(monkeypatch, vat, "_running_max_matrix")
    render(VatResult(order=np.arange(5), cut_magnitudes=np.array([1.0, 3.0, 0.0, 2.0])), scale)
    assert len(calls) == 1


def test_ccl_baseline_makes_one_closure_and_one_merge_loop(iris_norm, monkeypatch):
    calls = count_calls(monkeypatch, clustering, "ccl")
    closures = count_calls(monkeypatch, clustering, "_close_through_endpoints")
    merges = count_calls(monkeypatch, clustering, "_complete_linkage")
    d = euclidean_dissimilarity(iris_norm)
    run_algorithm("ccl", iris_norm, d, generate_from_labels(iris_norm, 30, seed=0), 3)
    assert (len(calls), len(closures), len(merges)) == (1, 1, 1)


def test_hac_cl_baseline_runs_through_hac(iris_norm, monkeypatch):
    calls = count_calls(monkeypatch, clustering, "hac")
    merges = count_calls(monkeypatch, clustering, "_complete_linkage")
    d = euclidean_dissimilarity(iris_norm)
    run_algorithm("hac-cl", iris_norm, d, ConstraintSet.empty(iris_norm.n), 3)
    assert (len(calls), len(merges)) == (1, 1)


def load_pairs():
    """``tools/pairs.py`` as a module, without running it."""
    path = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT_OPS = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # quartiles 0.9925 and 1.01


@pytest.mark.parametrize("change, better, bound, want", [
    ([p * 0.9 for p in PARENT_OPS], "lower", 0.25, "gain"),
    ([p * 0.9 for p in PARENT_OPS[:8]] + [1.5, 1.5], "lower", 0.25, "within bound"),  # 8/10 wins
    ([p - 0.005 for p in PARENT_OPS], "lower", 0.25, "within bound"),  # 10/10 wins, gap inside the IQR
    ([p * 1.2 for p in PARENT_OPS], "lower", 0.25, "within bound"),
    ([p * 1.3 for p in PARENT_OPS], "lower", 0.25, "regression"),
    ([p * 1.3 for p in PARENT_OPS], "higher", 0.25, "gain"),
    ([p * 0.7 for p in PARENT_OPS], "higher", 0.25, "regression"),
    (PARENT_OPS, "lower", 0.01, "unresolved"),  # IQR 0.0175 > 0.01 x 1.0
    ([p - 0.1 for p in PARENT_OPS], "higher", 0.01, "regression"),
    ([1.0] * 10, "higher", 0.01, "unresolved"),
])
def test_pairs_verdict(change, better, bound, want):
    pairs = load_pairs()
    assert pairs.verdict(PARENT_OPS, change, better, bound) == want


def test_pairs_wins_quartiles_and_a_wide_parent_beaten_by_every_run():
    pairs = load_pairs()
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "lower") == 1  # the tie counts for neither
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "higher") == 1
    assert pairs.quartiles(PARENT_OPS) == pytest.approx((0.9925, 1.0, 1.01))
    assert pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    # a parent spread wider than the bound, but every change run reads better
    assert pairs.verdict([0.0, 0.1, 1.0, 1.0, 1.0], [1.01] * 5, "higher", 0.01) == "within bound"
