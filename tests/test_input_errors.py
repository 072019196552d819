"""Malformed input raises its ``HyperincError`` subclass, and the CLI, run in
this process, exits 2 with the JSON error report and nothing else.

``tests/test_cli.py`` runs most error paths in child processes; these cases
run ``main`` here, one per rejecting branch of the readers, the certificate
constructors and the generators that the CLI reaches, and the library calls
that no subcommand makes.
"""

import io
import json
from fractions import Fraction

import pytest

from hyperinc import (
    CyclotomicNumber,
    KernelCertificate,
    NullspaceBasis,
    RationalMatrix,
    VertexVector,
    build_hypergraph,
    custom_weighting,
    cyclotomic_polynomial,
    edge_vertex_incidence,
    equal_partition_certificate,
    extension_theorem_check,
    induced_subhypergraph,
    is_finer,
    matvec,
    random_hypergraph,
    root_of_unity_certificate,
    root_of_unity_vector,
    sw_subspace,
    uniform_cycle,
    verify_certificate,
    zeta,
)
from hyperinc.cli import main
from hyperinc.errors import DimensionMismatch, EmptySubset, InvalidParameters
from hyperinc.kernels import GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE, SET_KINDS, UNIT_PAIR, _coefficients
from hyperinc.linalg import _integer_matrix, proven_kernel

H = "e1: 1 2 3 5\ne2: 1 3 4 5\ne3: 1 2 4 5\n"  # vertices 1..5, edges e1..e3


def certificate(payload: dict) -> tuple:
    """``verify`` of H with ``payload`` as the certificate on standard input."""
    return ["verify", "{h}", "--certificate", "-"], None, json.dumps(payload)


CLI_CASES = {
    # the readers of formats.py
    "hypergraph on stdin, no name before ':'": (["rank", "-"], None, ": 1 2\n", "ParseError"),
    "not UTF-8": (["rank", "{file}"], "e1: caf\xe9 1\n".encode("latin-1"), None, "FileAccessError"),
    "weight file not JSON": (["spectra", "{h}", "--weighting", "{file}"], "{e1: 1", None, "BadWeightFile"),
    "unwritable -o": (["generate", "cycle", "5", "2", "-o", "{missing}"], None, None, "FileAccessError"),
    "second vertices header": (["rank", "{file}"], "vertices: 1 2\nvertices: 1 2\ne1: 1 2\n", None, "ParseError"),
    "edge with no vertices": (["rank", "{file}"], "vertices: 1 2\ne1:\n", None, "ParseError"),
    "edges not an object": (["rank", "{file}"], '{"edges": [["1", "2"]]}', None, "ParseError"),
    "certificate kind not a string": (*certificate({"kind": ["equal_edge_partition"]}), "ParseError"),
    "certificate missing a set": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": ["1"]}}), "ParseError"
    ),
    "parts not an array": (
        *certificate({"kind": "general_combination", "parts": {"U1": ["1"]}}), "ParseError"
    ),
    "neither parts nor coefficients": (*certificate({"kind": "general_combination"}), "ParseError"),
    "missing coefficient": (
        *certificate({"kind": "general_combination", "sets": {"U1": ["1"]}, "coefficients": {}}),
        "ParseError",
    ),
    # labels resolved by hypergraph.py, and the constructors of kernels.py
    "unknown vertex": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["9"]}}), "UnknownVertex"
    ),
    "unknown edge": (
        *certificate({"kind": "equal_vertex_partition", "sets": {"E": ["e1"], "F": ["e9"]}}), "UnknownEdge"
    ),
    "empty set, equal": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": [], "V": ["1"]}}), "EmptySubset"
    ),
    "empty set, ratio": (
        *certificate({"kind": "ratio_edge_partition", "sets": {"U": ["1"], "V": []}, "ratio": "2"}),
        "EmptySubset",
    ),
    "empty set, edge side": (
        *certificate({"kind": "equal_vertex_partition", "sets": {"E": [], "F": ["e1"]}}), "EmptySubset"
    ),
    "root order below 2": (
        *certificate({"kind": "root_of_unity_cycle", "order": 1, "power": 1}), "ParseError"
    ),
    "vertices not 0..n-1": (
        *certificate({"kind": "root_of_unity_cycle", "order": 2, "power": 1}), "UnknownVertex"
    ),
    # a field the kind does not have is refused, not dropped
    "general combination with a ratio, on side I": (
        *certificate({"kind": "general_combination", "parts": [[["1"], "1"]], "ratio": "5", "side": "I"}),
        "ParseError",
    ),
    **{
        f"root of unity stating {field}": (
            *certificate({"kind": "root_of_unity_cycle", "order": 2, "power": 1, field: value}), "ParseError"
        )
        for field, value in {"ratio": "2", "sets": {"U": ["1"]}, "coefficients": {"U": "1"}, "side": "I"}.items()
    },
    "equal partition stating an order": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["2"]}, "order": 3}), "ParseError"
    ),
    "parts on an equal partition": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["2"]}, "parts": [[["1"], "1"]]}),
        "ParseError",
    ),
    "parts and sets": (
        *certificate({"kind": "general_combination", "parts": [[["1"], "1"]], "sets": {"U1": ["1"]}}), "ParseError"
    ),
    # a key the loader does not read is refused, not dropped
    "misspelt ratio": (
        *certificate({"kind": "ratio_edge_partition", "sets": {"U": ["1"], "V": ["2"]}, "ratoi": "2"}), "ParseError"
    ),
    "u on an equal partition": (
        *certificate({"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["2"]}, "u": "1"}), "ParseError"
    ),
    "unknown key on a unit pair": (*certificate({"kind": "unit_pair", "u": "1", "v": "2", "w": "3"}), "ParseError"),
}


@pytest.mark.parametrize("argv, content, stdin, error", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_exits_two_with_the_error_report(tmp_path, monkeypatch, capsys, argv, content, stdin, error):
    paths = {"h": tmp_path / "h.txt", "file": tmp_path / "case", "missing": tmp_path / "no_dir" / "out"}
    paths["h"].write_text(H, encoding="utf-8")
    if content is not None:
        write = paths["file"].write_bytes if isinstance(content, bytes) else paths["file"].write_text
        write(content)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert main([arg.format(**paths) for arg in argv] + ["--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"error", "message"}
    assert report["error"] == error


h = build_hypergraph(["1", "2", "3"], [["1", "2"], ["2", "3"], ["1", "3"]])
cycle = uniform_cycle(12, 8)
square = build_hypergraph(["1", "2", "3", "4"], [["1", "2"], ["3", "4"], ["1", "3"], ["2", "4"]])
ONE_TWO = (("U", ("1",)), ("V", ("2",)))
# hand-built certificates whose side, set names or coefficients at their ratio
# are not their kind's, with one coefficient too few, or whose numbers are
# not exact
STRAY_CERTIFICATES = {
    "equal edge partition on side I": (
        square, KernelCertificate("equal_edge_partition", "I", (("U", ("e1", "e2")), ("V", ("e3", "e4"))), (1, -1))
    ),
    "side 'b'": (h, KernelCertificate("equal_edge_partition", "b", ONE_TWO, (1, -1))),
    "equal partition of three sets": (
        square, KernelCertificate("equal_edge_partition", "B", (*ONE_TWO, ("W", ("3",))), (1, -1, 0))
    ),
    "set names E and F on side B": (
        square, KernelCertificate("equal_edge_partition", "B", (("E", ("1", "4")), ("F", ("2", "3"))), (1, -1))
    ),
    "ratio coefficient off its ratio": (
        square, KernelCertificate("ratio_edge_partition", "B", (("U", ("1", "4")), ("V", ("2", "3"))), (1, -1), 2)
    ),
    "ratio kind with no ratio": (
        square, KernelCertificate("ratio_edge_partition", "B", (("U", ("1", "4")), ("V", ("2", "3"))), (1, -1))
    ),
    "general combination on side I": (
        square, KernelCertificate("general_combination", "I", (("U1", ("e1", "e2")), ("U2", ("e3", "e4"))), (1, -1))
    ),
    "general combination, one coefficient for two sets": (
        h, KernelCertificate("general_combination", "B", ONE_TWO, (0,))
    ),
    "root of unity on side I": (cycle, KernelCertificate(ROOT_OF_UNITY_CYCLE, "I", (), (), order=4, power=1)),
    # a ratio is stated exactly when a coefficient reads it
    "equal edge partition at ratio 7": (
        square, KernelCertificate("equal_edge_partition", "B", (("U", ("1", "4")), ("V", ("2", "3"))), (1, -1), 7)
    ),
    # coefficients are ints or Fractions, also where no product reads them
    "float coefficient on an empty set": (cycle, KernelCertificate("general_combination", "B", (("U1", ()),), (0.5,))),
    "coefficient 0.0": (cycle, KernelCertificate("general_combination", "B", (("U1", ("0",)),), (0.0,))),
    "True on an empty set": (cycle, KernelCertificate("general_combination", "B", (("U1", ()),), (True,))),
    # an order and a power belong to a root-of-unity certificate, which states no set
    "equal edge partition with an order and a power": (
        uniform_cycle(6, 3),
        KernelCertificate("equal_edge_partition", "B", (("U", ("0", "3")), ("V", ("1", "4"))), (1, -1), order=3, power=7),
    ),
    "root of unity with a set U": (
        uniform_cycle(6, 3), KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (("U", ("0",)),), (1,), order=3, power=1)
    ),
    # a str is one label, not the set of its characters
    "equal edge partition of two str sets": (
        build_hypergraph(["1", "2", "3", "4", "12", "34"], [["1", "3"], ["2", "4"], ["12", "34"]]),
        KernelCertificate("equal_edge_partition", "B", (("U", "12"), ("V", "34")), (1, -1)),
    ),
}


def all_sets_empty(kind):
    """A certificate of ``kind`` whose sets are all empty, its coefficients
    otherwise the kind's at ratio 2 (if a coefficient reads it)."""
    if kind == GENERAL_COMBINATION:
        return KernelCertificate(kind, "B", (("U1", ()), ("U2", ())), (1, -1))
    side, names, pairs = SET_KINDS[kind]
    r = Fraction(2) if any(b for _, b in pairs) else None
    return KernelCertificate(kind, side, tuple((name, ()) for name in names), _coefficients(pairs, r), r)


labels_12 = STRAY_CERTIFICATES["equal edge partition of two str sets"][0]
API_CASES = {
    "unknown kind to verify_certificate": (
        lambda: verify_certificate(h, KernelCertificate("no_such_kind", "B", (), ())), InvalidParameters
    ),
    **{
        f"verify {name}": (lambda g=g, c=c: verify_certificate(g, c), InvalidParameters)
        for name, (g, c) in STRAY_CERTIFICATES.items()
    },
    # a unit pair's sets are one vertex each, so empty ones are not a unit pair's
    **{
        f"verify {kind} with every set empty": (
            lambda kind=kind: verify_certificate(square, all_sets_empty(kind)),
            InvalidParameters if kind == UNIT_PAIR else EmptySubset,
        )
        for kind in [*SET_KINDS, GENERAL_COMBINATION]
    },
    "row longer than the column labels": (lambda: RationalMatrix([[1, 2]], ["r"], ["a"]), DimensionMismatch),
    "more row labels than rows": (lambda: RationalMatrix([[1]], ["r", "s"], ["a"]), DimensionMismatch),
    "weight sequence of the wrong length": (lambda: custom_weighting(h, [1, 1]), InvalidParameters),
    "overlapping blocks": (lambda: is_finer([{"1", "2"}, {"2", "3"}], [{"1", "2", "3"}]), InvalidParameters),
    "rank and nullity off the column count": (
        lambda: NullspaceBasis(pivots=(0,), cols=3, vectors=()), DimensionMismatch
    ),
    "set name the certificate lacks": (
        lambda: equal_partition_certificate(h, ["1"], ["2"]).named_set("W"), KeyError
    ),
    "cyclotomic order 0": (lambda: CyclotomicNumber(0, [1]), InvalidParameters),
    "root order 0": (lambda: zeta(0), InvalidParameters),
    # orders, powers and cycle sizes are ints: a bool or a float is refused, not
    # read as the int it is close to
    "zeta power True": (lambda: zeta(4, True), InvalidParameters),
    "zeta power 1.5": (lambda: zeta(4, 1.5), InvalidParameters),
    "zeta order 4.0": (lambda: zeta(4.0), InvalidParameters),
    "cyclotomic order 4.0": (lambda: CyclotomicNumber(4.0, [1, 2]), InvalidParameters),
    "cyclotomic order True": (lambda: CyclotomicNumber(True, [1]), InvalidParameters),
    "Phi order 4.0": (lambda: cyclotomic_polynomial(4.0), InvalidParameters),
    "vector root order 4.0": (lambda: root_of_unity_vector(12, 4.0, 1), InvalidParameters),
    "vector power True": (lambda: root_of_unity_vector(12, 4, True), InvalidParameters),
    "vector length True": (lambda: root_of_unity_vector(True, 4, 1), InvalidParameters),
    "vector length 4.0": (lambda: root_of_unity_vector(4.0, 4, 1), InvalidParameters),
    "vector length -1": (lambda: root_of_unity_vector(-1, 4, 1), InvalidParameters),
    "certificate power True": (lambda: root_of_unity_certificate(cycle, 4, True), InvalidParameters),
    "certificate order 4.0": (lambda: root_of_unity_certificate(cycle, 4.0, 1), InvalidParameters),
    "certificate power 1.0": (lambda: root_of_unity_certificate(cycle, 4, 1.0), InvalidParameters),
    "verify order 4.0": (
        lambda: verify_certificate(cycle, KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), order=4.0, power=1)),
        InvalidParameters,
    ),
    "cycle size 4.0": (lambda: uniform_cycle(4.0, 2), InvalidParameters),
    "cycle size True": (lambda: uniform_cycle(True, 2), InvalidParameters),
    "window size 2.0": (lambda: uniform_cycle(4, 2.0), InvalidParameters),
    "random vertex count True": (lambda: random_hypergraph(True, 1), InvalidParameters),
    "random vertex count 4.0": (lambda: random_hypergraph(4.0, 2), InvalidParameters),
    "random edge count 2.0": (lambda: random_hypergraph(4, 2.0), InvalidParameters),
    "random edge count True": (lambda: random_hypergraph(4, True, None, 1), InvalidParameters),
    "random max size True": (lambda: random_hypergraph(4, 2, True, 1), InvalidParameters),
    "random max size 2.5": (lambda: random_hypergraph(4, 2, 2.5, 1), InvalidParameters),
    # a str or bytes is a sequence, but of characters or bytes, not of weights
    "weights as a str": (lambda: custom_weighting(h, "123"), InvalidParameters),
    "weights as bytes": (lambda: custom_weighting(h, b"\x01\x02\x03"), InvalidParameters),
    "weights as a bytearray": (lambda: custom_weighting(h, bytearray(b"\x01\x02\x03")), InvalidParameters),
    # labels are strings, so 1 and "1" are one label, given twice
    "vector keys 1 and '1'": (lambda: VertexVector({1: 2, "1": 3}), InvalidParameters),
    "vector keys 1 and '1', one zero": (lambda: VertexVector({1: 0, "1": 3}), InvalidParameters),
    "matvec keys 1 and '1'": (lambda: matvec(edge_vertex_incidence(h), {1: 2, "1": 3}), InvalidParameters),
    # a bool is an int to Python, but no number to the arithmetic, as a float is not
    "zeta + True": (lambda: zeta(4) + True, TypeError),
    "True - zeta": (lambda: True - zeta(4), TypeError),
    "zeta * False": (lambda: zeta(4) * False, TypeError),
    # every row of an elimination has n_cols entries
    "kernel row longer than n_cols": (lambda: proven_kernel(_integer_matrix([[1, 0, 1]], 2)), InvalidParameters),
    "kernel rows of two lengths": (lambda: proven_kernel(_integer_matrix([[1, 0], [1]], 2)), InvalidParameters),
    "kernel row shorter than n_cols": (lambda: proven_kernel(_integer_matrix([[1, 0], [1, 1]], 3)), InvalidParameters),
    # a set of labels given as a str, where "12" is a vertex besides "1" and "2"
    "partition sets as str": (lambda: equal_partition_certificate(labels_12, "12", "34"), InvalidParameters),
    "S_W of a str": (lambda: sw_subspace(labels_12, "12"), InvalidParameters),
    "induced by a str": (lambda: induced_subhypergraph(labels_12, "12"), InvalidParameters),
    "extension check on a str": (lambda: extension_theorem_check(labels_12, "12"), InvalidParameters),
}
# a vector value that is no number, beside a rational one, on both row forms of B_H
b = edge_vertex_incidence(h)
ROW_FORMS = {"mask rows": b, "dense rows": RationalMatrix(b.entries, b.row_labels, b.col_labels)}
API_CASES.update(
    {
        f"{kind} vector value, {form}": (lambda m=m, v=v: matvec(m, {"1": 1, "2": v}), InvalidParameters)
        for kind, v in {"str": "x", "object": object(), "list": [1], "True": True, "False": False}.items()
        for form, m in ROW_FORMS.items()
    }
)


@pytest.mark.parametrize("call, error", API_CASES.values(), ids=API_CASES)
def test_library_call_raises(call, error):
    with pytest.raises(error):
        call()
