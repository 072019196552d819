"""Incidence matrices read off the hypergraph's masks.

``edge_vertex_incidence`` and ``vertex_edge_incidence`` keep their 0/1 rows as
the hypergraph's edge and star masks and build dense rows only when asked.
A mask-backed matrix must compare equal to the dense-built one and give the
same transpose and kernel; ``verify`` and ``units`` must never build dense
rows; and a wrong incidence cell, in either form, must still make the two
sides of ``verify_certificate`` disagree, also on a certificate ``find``
reports.
"""

import json
import random
import sys

import pytest

from hyperinc import (
    Hypergraph,
    dual_side_certificate,
    edge_vertex_incidence,
    equal_partition_certificate,
    rank_and_nullspace,
    vertex_edge_incidence,
    verify_certificate,
)
from hyperinc import kernels, linalg
from hyperinc.cli import main
from hyperinc.formats import serialize_hypergraph_text
from hyperinc.linalg import RationalMatrix

from conftest import random_instance


def dense_copy(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([list(row) for row in m.entries], m.row_labels, m.col_labels)


def test_mask_and_dense_forms_agree():
    rng = random.Random(22004)
    for _ in range(40):
        h = random_instance(rng, max_vertices=10, max_edges=9)
        for make in (edge_vertex_incidence, vertex_edge_incidence):
            m, dense = make(h), dense_copy(make(h))
            assert m == dense and dense == m
            t, dt = m.transpose(), dense.transpose()
            assert (t.row_labels, t.col_labels, t.entries) == (
                dt.row_labels, dt.col_labels, dt.entries
            )
            assert rank_and_nullspace(make(h)) == rank_and_nullspace(dense)
        assert edge_vertex_incidence(h).transpose() == vertex_edge_incidence(h)


def sparse_files(tmp_path, rng, n_vertices=200, n_edges=900):
    """A sparse instance with an equal partition U, V planted on vertices
    1..12: every edge meets U and V equally often.  Returns the instance path
    and the paths of a valid and an invalid certificate."""
    u, v = [str(i) for i in range(1, 7)], [str(i) for i in range(7, 13)]
    free = [str(i) for i in range(13, n_vertices + 1)]
    seen, lines = set(), ["vertices: " + " ".join(map(str, range(1, n_vertices + 1)))]
    while len(seen) < n_edges:
        k = rng.choice((0, 0, 1, 2))
        e = frozenset(rng.sample(u, k) + rng.sample(v, k) + rng.sample(free, rng.randint(2, 6)))
        if e not in seen:
            seen.add(e)
            lines.append(f"e{len(seen)}: " + " ".join(sorted(e, key=int)))
    path = tmp_path / "sparse.txt"
    path.write_text("\n".join(lines) + "\n")
    certs = []
    bad_u = u[1:] + [free[0]]  # free[0] lies in some edge that meets no vertex of V
    for name, sets in (("valid", {"U": u, "V": v}), ("invalid", {"U": bad_u, "V": v})):
        cert = tmp_path / f"{name}.json"
        cert.write_text(json.dumps({"kind": "equal_edge_partition", "sets": sets}))
        certs.append(str(cert))
    return str(path), certs


def test_verify_and_units_build_no_dense_rows(tmp_path, monkeypatch, capsys):
    path, (valid, invalid) = sparse_files(tmp_path, random.Random(22005))

    def refuse(*args):
        raise AssertionError("dense incidence rows built")

    monkeypatch.setattr(linalg, "_mask_rows", refuse)
    assert main(["verify", path, "--certificate", valid, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["valid"] is True
    assert main(["verify", path, "--certificate", invalid, "--json"]) == 1
    assert main(["units", path, "--json"]) == 0
    assert main(["verify", path, "--certificate", valid]) == 0


def flipped(m: RationalMatrix, i: int, j: int, dense: bool) -> RationalMatrix:
    """``m`` with cell (i, j) changed: a flipped bit, or a dense cell plus one."""
    if not dense:
        masks, col_masks = list(m._masks), list(m._col_masks)
        masks[i] ^= 1 << j
        col_masks[j] ^= 1 << i
        return RationalMatrix._from_masks(masks, col_masks, m.row_labels, m.col_labels)
    rows = [list(row) for row in m.entries]
    rows[i][j] += 1
    return RationalMatrix(rows, m.row_labels, m.col_labels)


def inject(monkeypatch, name: str, bad: RationalMatrix) -> None:
    """Make the ``name`` matrix that ``verify_certificates`` builds be ``bad``;
    every other build in ``kernels`` (the finder's) stays true."""
    true = getattr(kernels, name)

    def build(h):
        return bad if sys._getframe(1).f_code is kernels.verify_certificates.__code__ else true(h)

    monkeypatch.setattr(kernels, name, build)


SIDES = (  # (side, fixture, certificate, the incidence matrix it certifies)
    ("B", "equal_partition_example",
     lambda h: equal_partition_certificate(h, ["1", "5"], ["2", "3", "4"]), "edge_vertex_incidence"),
    ("I", "k4_graph",
     lambda h: dual_side_certificate(h, ["e1", "e2"], ["e3", "e6"]), "vertex_edge_incidence"),
)


def support_column(m: RationalMatrix, h, cert) -> int:
    return m.col_labels.index(sorted(cert.induced_vector(h).support())[0])


@pytest.mark.parametrize("dense", [False, True], ids=["mask", "dense"])
def test_wrong_incidence_cell_is_caught_on_both_sides(request, monkeypatch, dense):
    for _, fixture, make_cert, name in SIDES:
        h = request.getfixturevalue(fixture)
        cert, m = make_cert(h), getattr(linalg, name)(h)
        assert verify_certificate(h, cert).valid
        j = support_column(m, h, cert)
        for i in range(m.rows):
            inject(monkeypatch, name, flipped(m, i, j, dense))
            with pytest.raises(ArithmeticError, match="counting and algebra disagree"):
                verify_certificate(h, cert)
            monkeypatch.undo()


@pytest.mark.parametrize("dense", [False, True], ids=["mask", "dense"])
def test_wrong_incidence_cell_is_caught_by_find(request, tmp_path, monkeypatch, capsys, dense):
    """``find`` checks every certificate it reports both ways too: with a cell
    of the verifying matrix wrong in a column of a found certificate, it raises."""
    for side, fixture, make_cert, name in SIDES:
        h = request.getfixturevalue(fixture)
        path = tmp_path / f"{fixture}.txt"
        path.write_text(serialize_hypergraph_text(h))
        kind = "equal_edge_partition" if side == "B" else "equal_vertex_partition"
        argv = ["find", str(path), "--kind", kind, "--json"]
        assert main(argv) == 0
        assert make_cert(h) in kernels.find_certificates_exhaustive(h, kind)
        capsys.readouterr()
        m = getattr(linalg, name)(h)
        j = support_column(m, h, make_cert(h))
        for i in range(m.rows):
            inject(monkeypatch, name, flipped(m, i, j, dense))
            with pytest.raises(ArithmeticError, match="counting and algebra disagree"):
                main(argv)
            monkeypatch.undo()


def test_a_hypergraph_with_no_edges_has_empty_incidence():
    h = Hypergraph(["1", "2"], [])
    assert h.star_masks == (0, 0)
    assert edge_vertex_incidence(h).entries == []
    assert vertex_edge_incidence(h).entries == [[], []]
