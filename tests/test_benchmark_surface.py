"""The benchmark's tracer wraps package functions by name; they must resolve."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    """The tracer's TRACED list, read from its source without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED list")


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for module, attr, _ in traced:
        mod = importlib.import_module(f"splinetree.{module}")
        assert callable(getattr(mod, attr, None)), f"splinetree.{module}.{attr}"


def test_bin_grams_takes_the_rows_first():
    # the tracer counts tree.bin_grams.rows as the length of the first argument
    from splinetree.tree import bin_grams

    assert next(iter(inspect.signature(bin_grams).parameters)) == "rows"
