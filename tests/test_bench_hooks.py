"""The benchmark's tracer wraps hyperinc functions by name and files some
calls by the types of their arguments; both must keep matching the package,
or a traced run would fail, or misfile time, only outside this test suite."""

import ast
import importlib
import importlib.util
import re
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


TRACER_ONLY = re.compile(r"#\s*(?:(\w+): )?unused here; bench/spans\.py wraps it under this name")


def test_tracer_only_imports_are_exactly_the_unused_patch_points():
    """An import kept only for the tracer carries the mark "unused here;
    bench/spans.py wraps it under this name" (after ``name: `` when its line
    imports several names).  Each marked name must be a patch point its module
    never uses, and each imported patch point its module never uses must be
    marked, so the list of such imports stays exact."""
    points = set(patch_points())
    package = Path(importlib.util.find_spec("hyperinc").origin).parent
    marked_count = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imported = {}  # bound name -> line of its alias
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.lineno
        marked = set()
        for number, line in enumerate(source.splitlines(), start=1):
            match = TRACER_ONLY.search(line)
            if match:
                on_line = [name for name, at in imported.items() if at == number]
                name = match.group(1) or (on_line[0] if len(on_line) == 1 else None)
                assert name in on_line, f"{path.name}:{number} marks no single import"
                marked.add(name)
        for name in imported:
            point = f"{path.stem}.{name}"
            if name in marked:
                assert point in points, f"{point} is marked but is no patch point"
                assert name not in used, f"{point} is marked but used in its module"
            elif point in points:
                assert name in used, f"{point} is used only by the tracer but is not marked"
        marked_count += len(marked)
    assert marked_count  # the mark is still matched at all
