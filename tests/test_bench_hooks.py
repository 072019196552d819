"""The benchmark's tracer wraps hyperinc functions by name and files some
calls by the types of their arguments; both must keep matching the package,
or a traced run would fail, or misfile time, only outside this test suite."""

import ast
import importlib
import importlib.util
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


def test_root_of_unity_vectors_are_traced_as_cyclotomic():
    """The tracer files a matvec under ``cyclotomic.matvec`` when the vector
    has a ``hyperinc.cyclotomic.CyclotomicNumber`` entry.  A root-of-unity
    certificate's induced vector must keep such entries, or that layer would
    silently read zero."""
    from hyperinc import cyclotomic, edge_vertex_incidence, linalg, uniform_cycle
    from hyperinc.kernels import root_of_unity_certificate

    h = uniform_cycle(12, 8)
    vector = root_of_unity_certificate(h, 4, 1).induced_vector(h)
    assert vector.entries
    assert all(isinstance(v, cyclotomic.CyclotomicNumber) for v in vector.entries.values())

    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    name = tracer._span_name(linalg.matvec, (edge_vertex_incidence(h), vector), {})
    assert name == "cyclotomic.matvec"
