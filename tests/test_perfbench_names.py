"""The benchmark's tracer names functions of the package by string.

`perfbench/tracing.py` wraps each (module, function) pair in its `WRAPPED`
table, and a traced run fails when one is missing.  Reading the table here,
without importing or running the tracer, makes a rename fail this suite
rather than the traced benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_table():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_wrapped_function_exists():
    table = wrapped_table()
    assert table
    missing = [f"{module}.{func}" for module, func, _ in table
               if not callable(getattr(importlib.import_module(f"bellrecycle.{module}"), func, None))]
    assert missing == []
