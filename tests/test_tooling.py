"""The traced benchmark's targets exist in the package.

``bench/spans.py`` wraps package functions that it looks up by module and
name. The bench is not part of this suite, so its target table is read
here with ``ast``, without importing it, and each entry is resolved.
"""

import ast
import importlib
from pathlib import Path

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
