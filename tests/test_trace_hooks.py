"""The benchmark's tracer wraps eikolab names listed in perfbench/tracer.py.

The list is read from the source, not imported, so the check runs nothing
from perfbench/.  A deletion or rename of a wrapped name fails here instead
of at `perfbench/run.py --trace 1`.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> list[tuple[str, str]]:
    """(module, attribute) of every ENTRY_POINTS row in the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no ENTRY_POINTS list in {TRACER}")


def test_every_traced_entry_point_resolves():
    points = _entry_points()
    assert len(points) >= 30
    missing = [(module, attr) for module, attr in points
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
