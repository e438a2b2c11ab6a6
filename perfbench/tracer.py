"""Span tracing from outside the package, by rebinding its public functions.

A wrapped function opens a span when called and closes it when it returns.
Each span's self time is its duration minus the durations of the spans
opened inside it, so self times add up to the outermost spans with nothing
counted twice.  Spans are aggregated in memory by name.

Wrapping rule: a caller finds a function through the name bound in some
module (``splinetree.grow``, ``splinetree.tree.grow``, or the
``fit_node`` that ``tree`` imported from ``gram``), so every binding of the
function object in every ``splinetree`` module is replaced, and restored by
:meth:`Tracer.uninstall`.  ``numpy.linalg.eigh`` serves both the batched
split sweep and the scalar node fit; its span is named after the span that
called it.  The stack assumes one thread, which holds for the library
default ``GrowConfig.threads == 1`` that every workload uses.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span name).  Every layer the benchmark reports.
TRACED = [
    ("basis", "build_spec", "basis.build_spec"),
    ("basis", "design_matrix", "basis.design_matrix"),
    ("tree", "grow", "tree.grow"),
    ("tree", "best_split", "tree.best_split"),
    ("tree", "bin_grams", "tree.bin_grams"),
    ("tree", "candidate_edges", "tree.root_binning"),
    ("tree", "bin_values", "tree.root_binning"),
    ("tree", "split_mask", "tree.split_mask"),
    ("tree", "route", "tree.route"),
    ("tree", "predict", "tree.predict"),
    ("tree", "prune", "tree.prune"),
    ("gram", "fit_node", "gram.fit_node"),
    ("diagnostics", "leaf_importance", "diagnostics.leaf_importance"),
    ("diagnostics", "split_contribution", "diagnostics.split_contribution"),
    ("diagnostics", "effect_curve", "diagnostics.effect_curve"),
    ("io", "write_csv", "io.write_csv"),
    ("io", "load_csv", "io.load_csv"),
    ("io", "save_tree", "io.save_tree"),
    ("io", "load_tree", "io.load_tree"),
    ("io", "export_diagnostics", "io.export_diagnostics"),
    ("simdata", "simulate", "simdata.simulate"),
    ("cli", "main", "cli"),
]

SWEEP_PARENT = "tree.best_split"


class Tracer:
    """Aggregated spans: self time and call count per name, plus work counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # self time by (outermost open span, span): what each operation spent
        self.by_op: defaultdict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self._paused = False
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.by_op.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            _, child = self._stack.pop()
            top = self._stack[0][0] if self._stack else name
            self.self_s[name] += duration - child
            self.by_op[(top, name)] += duration - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording their calls."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def _wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = name(self._stack) if callable(name) else name
            if count is not None:
                count(span, args)
            with self.span(span):
                return fn(*args, **kwargs)

        return wrapper

    def _count_bin_grams(self, span, args):
        self.counts["tree.bin_grams.rows"] += np.shape(args[0])[0]

    def _count_eigh(self, span, args):
        if span != "tree.sweep.eigh":
            return
        shape = np.shape(args[0])
        batch = int(np.prod(shape[:-2], dtype=np.int64))
        self.counts["tree.sweep.eigh_matrices"] += batch
        self.counts["tree.sweep.eigh_m3"] += batch * shape[-1] ** 3

    def install(self) -> None:
        """Rebind every traced function in every loaded splinetree module."""
        if self._installed:
            return
        for module in {module for module, _, _ in TRACED}:
            importlib.import_module("splinetree." + module)
        package = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "splinetree" or name.startswith("splinetree."))
        }
        counters = {"tree.bin_grams": self._count_bin_grams}
        for module, attr, span in TRACED:
            original = getattr(package["splinetree." + module], attr)
            wrapper = self._wrap(original, span, counters.get(span))
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, value))
                        setattr(mod, key, wrapper)
        eigh = np.linalg.eigh
        self._installed.append((np.linalg, "eigh", eigh))
        np.linalg.eigh = self._wrap(eigh, _eigh_span, self._count_eigh)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._installed):
            setattr(mod, key, value)
        self._installed.clear()


def _eigh_span(stack) -> str:
    if stack and stack[-1][0] == SWEEP_PARENT:
        return "tree.sweep.eigh"
    return "linalg.eigh"


class NullTracer:
    """Stand-in used for untraced iterations: records nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield
