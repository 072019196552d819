"""A fuzz of ``cli.main`` over arbitrary input files.

Hypergraph files (JSON, text or junk), certificate JSON and weight JSON are
drawn by ``hypothesis``, root orders and powers up to 10^6 among them, and
run through ``rank``, ``units``, ``contract``, ``verify``, ``spectra`` and
``find`` of every kind.  Whatever the input, ``main`` must return 0, 1 or 2
and raise nothing: a malformed input is an exit-2 report, and a search whose
counted work passes the finder bound is refused with exit 2 instead of run.
The certificate a ``verify --json`` reports loads back to the one verified.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from hyperinc.cli import main
from hyperinc.formats import certificate_from_json, load_certificate, load_hypergraph
from hyperinc.kernels import ALL_KINDS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

# labels the constructor accepts, "0".."5" so that root-of-unity
# certificates can apply, and labels it must refuse
LABELS = st.sampled_from([*"012345a", "x1"])
BAD_LABELS = st.sampled_from(["b x", "#", "", "v:x", "vertices"])
KINDS = sorted(ALL_KINDS)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
FRACTIONS = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-2, 9)).map(lambda q: f"{q[0]}/{q[1]}"),
    st.sampled_from(["1.5", "-0.25", "1e3", "", "x", "1/0"]),
    st.integers(-2, 5),
    st.floats(allow_nan=False) | st.booleans() | st.none(),
)


def hypergraph_file(draw, vertices):
    """Mostly a well-formed hypergraph on ``vertices`` in the JSON or text
    form; else one with a refused label or a repeated edge name, any JSON,
    or any text."""
    how = draw(st.sampled_from(["well-formed"] * 6 + ["bad label", "repeated name", "any json", "any text"]))
    if how == "any json":
        return json.dumps(draw(JSON))
    if how == "any text":
        return draw(st.text(max_size=40))
    edges = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, unique=True), min_size=1, max_size=7, unique_by=frozenset
    ))
    names = [f"e{i + 1}" for i in range(len(edges))]
    if how == "bad label":
        edges[-1] = edges[-1] + [draw(BAD_LABELS)]
    if how == "repeated name":
        names[-1] = names[0]
    header = draw(st.booleans())
    if draw(st.booleans()):
        data = {"edges": dict(zip(names, edges))}
        if header:
            data["vertices"] = vertices
        return json.dumps(data)
    lines = [f"{name}: {' '.join(edge)}" for name, edge in zip(names, edges)]
    if header:
        lines.insert(0, "vertices: " + " ".join(vertices))
    return "\n".join(lines) + "\n"


SET_NAMES = {
    "equal_edge_partition": "UV", "ratio_edge_partition": "UV", "three_set_relation": "UVW",
    "general_combination": "", "unit_pair": "uv", "root_of_unity_cycle": "",
    "equal_vertex_partition": "EF", "ratio_vertex_partition": "EF", "nonsense": "UV",
}


# the fields each kind states besides its sets; a unit pair may state u and v
# as labels instead of sets, and the loader refuses any other field
KIND_FIELDS = {
    "ratio_edge_partition": ("ratio",), "three_set_relation": ("ratio",), "ratio_vertex_partition": ("ratio",),
    "general_combination": ("parts",), "root_of_unity_cycle": ("order", "power"),
}
FIELDS = {
    "ratio": FRACTIONS,
    "order": st.integers(-2, 12) | st.integers(-2, 10**6) | st.booleans() | st.text(max_size=3),
    "power": st.integers(-2, 12) | st.integers(-2, 10**6) | st.none(),
    "parts": st.lists(st.tuples(st.lists(LABELS, max_size=3, unique=True), FRACTIONS).map(list), max_size=3) | JSON,
}


def certificate_file(draw, vertices):
    """Mostly the fields of one kind alone: the sets it names, disjoint and
    drawn from the instance's labels, and its other fields, which may be
    malformed; sometimes, besides them, fields of other kinds or a key the
    loader does not read; else any JSON."""
    if draw(st.sampled_from([False] * 9 + [True])):
        return json.dumps(draw(JSON))
    kind = draw(st.sampled_from(sorted(SET_NAMES)))
    stray = draw(st.sampled_from([False] * 4 + [True]))
    names = SET_NAMES[kind] if draw(st.sampled_from([True] * 3 + [False])) else draw(
        st.sampled_from(["UVWEFuv", "U", ""])
    )
    pool = ["e1", "e2", "e3", "e4"] if names == "EF" else vertices
    sets = {name: [] for name in names}
    for i, label in enumerate(pool):
        # label i goes to set i mod the names and None, shifted by the draw
        name = [*names, None][(i + draw(st.integers(0, len(names)))) % (len(names) + 1)]
        if name:
            sets[name].append(label)
    data = {"kind": kind}
    if kind == "unit_pair" and draw(st.booleans()):
        data.update(u=draw(st.sampled_from(vertices)), v=draw(st.sampled_from(vertices)))
    elif names or stray:
        data["sets"] = sets
    for key, values in FIELDS.items():
        if key in KIND_FIELDS.get(kind, ()) or stray and draw(st.booleans()):
            data[key] = draw(values)
    if stray and draw(st.booleans()):
        data[draw(st.sampled_from(["ratoi", "u", "w", "valid", "residual"]))] = draw(FRACTIONS)
    return json.dumps(data)


WEIGHTS = st.one_of(
    st.sampled_from(["unit", "banerjee"]),
    st.dictionaries(st.sampled_from(["e1", "e2", "e3", "e4", "zz"]), FRACTIONS, max_size=5).map(json.dumps),
    JSON.map(json.dumps),
)


def run_main(argv) -> tuple[int, str]:
    """The exit code and standard output of ``main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main(argv), out.getvalue()


def verify_exit(files) -> int:
    """The exit code of ``verify`` on a hypergraph file and a certificate file."""
    with tempfile.TemporaryDirectory() as scratch:
        graph, cert = Path(scratch, "h.hg"), Path(scratch, "c.json")
        for path, text in zip((graph, cert), files):
            path.write_text(text, encoding="utf-8")
        return run_main(["verify", str(graph), "--certificate", str(cert)])[0]


@st.composite
def inputs(draw):
    """A hypergraph file and a certificate file on the same labels."""
    vertices = draw(st.lists(LABELS, min_size=1, max_size=8, unique=True))
    return hypergraph_file(draw, vertices), certificate_file(draw, vertices)


@settings(max_examples=250, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    inputs(),
    st.sampled_from(["rank", "units", "contract", "verify", "spectra", *(f"find {kind}" for kind in KINDS)]),
    WEIGHTS,
    st.booleans(),
)
@example(("vertices: " + " ".join(map(str, range(14))), "{}"), "find three_set_relation", "unit", True)
@example(("vertices: " + " ".join(map(str, range(14))), "{}"), "find unit_pair", "unit", True)
@example(("e1: 0 1 2 3\ne2: 2 3 4 5", '{"kind": "root_of_unity_cycle", "order": 999983, "power": 1000000}'),
         "verify", "unit", True)
@example(("e1: 0 1\ne2: 1 2\ne3: 2 0", '{"kind": "root_of_unity_cycle", "order": 1000000, "power": 999999}'),
         "verify", "unit", False)
# certificates that verify, one of each way a file states its sets, to load back
@example(("e1: 0 1\ne2: 2 3\n", '{"kind": "equal_edge_partition", "sets": {"U": ["0", "2"], "V": ["1", "3"]}}'),
         "verify", "unit", True)
@example(("e1: 0 1 2\ne2: 1 2 3\n", '{"kind": "general_combination", "parts": [[["0"], "1"], [["3"], "-1"]]}'),
         "verify", "unit", True)
@example(("e1: 0 1\ne2: 0 1 2\n", '{"kind": "unit_pair", "u": "0", "v": "1"}'), "verify", "unit", True)
@example(("e1: 0\ne2: 1\ne3: 0 1\n", '{"kind": "equal_vertex_partition", "sets": {"E": ["e3"], "F": ["e1", "e2"]}}'),
         "verify", "unit", True)
@example(("e1: 0 1\ne2: 1 2\ne3: 2 3\ne4: 3 0\n", '{"kind": "root_of_unity_cycle", "order": 2, "power": 1}'),
         "verify", "unit", True)
def test_main_exits_0_1_or_2(files, command, weights, as_json):
    hypergraph, certificate = files
    with tempfile.TemporaryDirectory() as scratch:
        graph = Path(scratch, "h.hg")
        graph.write_text(hypergraph, encoding="utf-8")
        name, *kind = command.split()
        argv = [name, str(graph)]
        if kind:
            argv += ["--kind", *kind]
        elif name == "verify":
            cert = Path(scratch, "c.json")
            cert.write_text(certificate, encoding="utf-8")
            argv += ["--certificate", str(cert)]
        elif name == "spectra":
            if weights not in ("unit", "banerjee"):
                Path(scratch, "w.json").write_text(weights, encoding="utf-8")
                weights = str(Path(scratch, "w.json"))
            argv += ["--weighting", weights, "--matrix"]
        if as_json:
            argv.append("--json")
        code, out = run_main(argv)
        assert code in (0, 1, 2)
        if name == "verify" and as_json and code != 2:
            # the certificate reported loads back to the certificate verified
            h = load_hypergraph(str(graph))
            assert certificate_from_json(h, json.loads(out)["certificate"]) == load_certificate(h, str(cert))


def test_drawn_verify_inputs_load():
    """Drawn inputs, not only the ``@example``s above, reach ``verify``'s
    exit 0 and exit 1: most drawn certificate files state only their kind's
    fields, so many of them load."""
    codes = []

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs())
    def run(files):
        codes.append(verify_exit(files))

    run()
    assert set(codes) == {0, 1, 2}
    assert codes.count(0) + codes.count(1) >= len(codes) // 10
