"""The benchmark's tracer wraps hyperinc functions by name; every name must
still resolve, or a traced run would fail only outside this test suite."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def patch_points() -> tuple[str, ...]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no PATCH_POINTS")


def test_every_patch_point_resolves_to_a_callable():
    points = patch_points()
    assert points
    for point in points:
        module_name, _, attr = point.partition(".")
        module = importlib.import_module(f"hyperinc.{module_name}")
        assert callable(getattr(module, attr, None)), point
