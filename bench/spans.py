"""Layer spans and counters recorded from outside the conivat package.

The traced run wraps the package's public layer functions in place: every
module namespace (and module-level dict, such as the CLI's generator table)
that holds one of the original function objects gets a wrapper for the
duration of one op, so calls made inside the package are traced too. The
wrappers record one span per call (name, start, end, parent span, op id)
into an in-memory list that is written once when the run ends.

Counters come from the same boundaries: ``sanitize`` is replaced by its two
steps, ``transitive_closure`` then ``remove_inconsistent``, so the constraint
audit can be counted; the learner's ``LearnReport`` gives iterations and
convergence; ``minimax_transform`` exposes the matrix it receives, which
``run.py`` uses for a validation probe outside the op.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

import conivat
from conivat import constraints
from workloads import learner_problems

# (span name, module, function). Span names are "<layer>.<function>"; ``hac``
# is split by its linkage argument into ``hac_sl`` and ``hac_cl``.
TARGETS = (
    ("cli.main", "conivat.cli", "main"),
    ("evaluation.run_benchmark", "conivat.evaluation", "run_benchmark"),
    ("evaluation.partition_accuracy", "conivat.evaluation", "partition_accuracy"),
    ("data.load_csv", "conivat.data", "load_csv"),
    ("data.normalize_minmax", "conivat.data", "normalize_minmax"),
    ("data.synth2", "conivat.data", "synth2"),
    ("constraints.generate_from_labels", "conivat.constraints", "generate_from_labels"),
    ("constraints.transitive_closure", "conivat.constraints", "transitive_closure"),
    ("constraints.remove_inconsistent", "conivat.constraints", "remove_inconsistent"),
    ("metric.learn_metric", "conivat.metric", "learn_metric"),
    ("metric.dissimilarity_under_metric", "conivat.metric", "dissimilarity_under_metric"),
    ("vat.impose_similar", "conivat.vat", "impose_similar"),
    ("vat.minimax_transform", "conivat.vat", "minimax_transform"),
    ("vat.vat_reorder", "conivat.vat", "vat_reorder"),
    ("rdi.render", "conivat.rdi", "render"),
    ("rdi.write_pgm", "conivat.rdi", "write_pgm"),
    ("clustering.cut_mst", "conivat.clustering", "cut_mst"),
    ("clustering.suggest_k", "conivat.clustering", "suggest_k"),
    ("clustering.hac", "conivat.clustering", "hac"),
    ("clustering.ssl", "conivat.clustering", "ssl"),
    ("clustering.ccl", "conivat.clustering", "ccl"),
)
SPAN_NAMES = tuple(
    n for name, _, _ in TARGETS for n in (("clustering.hac_sl", "clustering.hac_cl") if name == "clustering.hac" else (name,))
)
MODULES = ("conivat", "conivat.cli", "conivat.evaluation", "conivat.data", "conivat.constraints",
           "conivat.metric", "conivat.vat", "conivat.rdi", "conivat.clustering")


@dataclass(frozen=True)
class Span:
    op: int
    id: int
    parent: int  # -1 for a span no other span encloses
    name: str
    start: float
    end: float


def _hac_name(args, kwargs) -> str:
    linkage = args[2] if len(args) > 2 else kwargs.get("linkage", "single")
    return "clustering.hac_sl" if linkage == "single" else "clustering.hac_cl"


# position of the ``k`` argument of each partitioning function
_K_ARG = {"clustering.cut_mst": 1, "clustering.hac_sl": 1, "clustering.hac_cl": 1, "clustering.ssl": 2, "clustering.ccl": 2}


class Tracer:
    """Spans and counters for the ops of one traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []
        self.converged: list[bool] = []
        self.minimax_input: np.ndarray | None = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = {"rdi.bytes_written": 0}
        self.problems = []
        self.minimax_input = None

    def _wrap(self, name, fn, after):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(self.op, sid, parent, span_name, start - self.t0, end - self.t0)
            if after is not None:
                after(span_name, args, kwargs, out)
            return out

        return traced

    # counter hooks; each runs after its span has closed

    def _after_learn(self, _name, args, kwargs, out):
        _, report = out
        cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or conivat.LearnConfig()
        self.counts.setdefault("metric.iterations", report.iterations_used)
        # the objective is evaluated once before the first step, so a run
        # that hits the cap reports max_iters + 1 evaluations
        self.converged.append(report.iterations_used < cfg.max_iters + 1)
        self.problems += learner_problems(report)

    def _after_minimax(self, _name, args, kwargs, _out):
        d = args[0] if args else kwargs["d"]
        self.minimax_input = d
        self.counts.setdefault("vat.matrix_bytes", 8 * d.shape[0] * d.shape[0])

    def _after_write_pgm(self, _name, args, kwargs, _out):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["rdi.bytes_written"] += os.path.getsize(path)

    def _after_partition(self, name, args, kwargs, part):
        k = kwargs["k"] if "k" in kwargs else args[_K_ARG[name]]
        if part.k != k or not np.array_equal(np.unique(part.labels), np.arange(k)):
            self.problems.append(f"{name}: partition does not cover exactly the ids 0..{k - 1}")

    def _audited_sanitize(self, cs):
        closed = constraints.transitive_closure(cs)
        clean, removed = constraints.remove_inconsistent(closed)
        # the first sanitize of an op sees the raw draw; later ones see closed sets
        for key, value in (
            ("constraints.pairs_raw", len(cs)),
            ("constraints.similar_closed", len(closed.similar)),
            ("constraints.dissimilar_closed", len(closed.dissimilar)),
            ("constraints.conflicts_removed", len(removed)),
        ):
            self.counts.setdefault(key, value)
        return clean

    def _replacements(self) -> dict[int, object]:
        """Wrapper for each traced function, keyed by the original's id."""
        hooks = {
            "metric.learn_metric": self._after_learn,
            "vat.minimax_transform": self._after_minimax,
            "rdi.write_pgm": self._after_write_pgm,
        }
        out = {id(constraints.sanitize): self._audited_sanitize}
        for name, module, func in TARGETS:
            fn = getattr(importlib.import_module(module), func)
            partitions = name.startswith("clustering.") and name != "clustering.suggest_k"
            after = self._after_partition if partitions else hooks.get(name)
            out[id(fn)] = self._wrap(_hac_name if name == "clustering.hac" else name, fn, after)
        return out

    @contextmanager
    def installed(self):
        """Swap every reference to a traced function for its wrapper, then restore."""
        swaps = self._replacements()
        undo = []
        for mod_name in MODULES:
            ns = vars(importlib.import_module(mod_name))
            for holder in [ns] + [v for v in ns.values() if isinstance(v, dict) and v is not ns]:
                for key, value in list(holder.items()):
                    if id(value) in swaps:
                        undo.append((holder, key, value))
                        holder[key] = swaps[id(value)]
        try:
            yield self
        finally:
            for holder, key, value in reversed(undo):
                holder[key] = value

    def op_layers(self, op: int) -> dict[str, tuple[float, float, int]]:
        """Per span name: (busy seconds, self seconds, calls) within one op."""
        spans = [s for s in self.spans if s.op == op]
        child = {}
        for s in spans:
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        out = {}
        for s in spans:
            busy, own, calls = out.get(s.name, (0.0, 0.0, 0))
            dur = s.end - s.start
            out[s.name] = (busy + dur, own + dur - child.get(s.id, 0.0), calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
