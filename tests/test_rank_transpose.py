"""``hyperinc rank`` against the two-elimination handler it replaced.

``rank_reference`` below is the body of the earlier ``cli.cmd_rank``, kept
as a test-only reference: it eliminated B_H and its transpose I_H in full.
The current handler eliminates one side first, I_H when B_H has fewer
distinct columns than rows and B_H otherwise, and the other side only on
its rows at the first side's pivot columns, not at all when those are as
many as its distinct columns; both ranks are still proven on all rows.  The
reports and both ``NullspaceBasis`` results must agree exactly, and a row
set that does not span the row space, or that claims more independent rows
than there are, must fail the proof; row indices that repeat or index no
row are refused as InvalidParameters.
"""

import argparse
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import random_instance, with_extra_vertices
from hyperinc import build_hypergraph, cli, linalg
from hyperinc.cli import _basis_json, main
from hyperinc.errors import InvalidParameters
from hyperinc.formats import load_hypergraph, serialize_hypergraph_text
from hyperinc.generators import random_hypergraph
from hyperinc.hypergraph import Hypergraph
from hyperinc.linalg import edge_vertex_incidence, rank_and_nullspace, vertex_edge_incidence

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_INSTANCES = sorted((ROOT / "tests" / "golden").glob("*.txt"))


def rank_reference(path: str):
    """The report of the two-elimination ``rank``, and its two bases."""
    h = load_hypergraph(path)
    b = edge_vertex_incidence(h)
    i = vertex_edge_incidence(h)
    ns_b = rank_and_nullspace(b)
    ns_i = rank_and_nullspace(i)
    failures = []
    if ns_b.rank != ns_i.rank:
        failures.append("rank(B_H) != rank(I_H)")
    report = {
        "command": "rank",
        "file": path,
        "vertices": h.n_vertices,
        "edges": h.n_edges,
        "rank": str(ns_b.rank),
        "nullity": str(ns_b.nullity),
        "kernel_basis": _basis_json(ns_b),
        "transpose_rank": str(ns_i.rank),
        "transpose_nullity": str(ns_i.nullity),
        "transpose_kernel_basis": _basis_json(ns_i),
        "failures": failures,
    }
    return report, ns_b, ns_i


def bench_workloads():
    """``bench/workloads.py``, loaded by path: the rank-dense shapes and
    their generator are the benchmark's own."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def rank_cases(tmp_path: Path) -> list[Path]:
    """Instance files: the golden corpus, three seeded instances of each
    rank-dense slot of the benchmark, and seeded random hypergraphs with more
    edges than vertices, with units, with isolated vertices, edgeless and
    with a single edge."""
    paths = list(GOLDEN_INSTANCES)
    workloads = bench_workloads()
    rng = random.Random(3001)
    for index in range(3):
        for slot, shape in enumerate(workloads.DENSE_SLOTS):
            path = tmp_path / f"dense{slot}_{index}.txt"
            path.write_text(workloads.dense_instance(rng, *shape).text(), encoding="utf-8")
            paths.append(path)
    hypergraphs = [build_hypergraph(["1", "2", "3"], []), build_hypergraph(["a", "b", "c", "d"], [["b", "c"]])]
    for index in range(30):
        h = random_instance(rng, max_vertices=9, max_edges=7)
        n = rng.randint(2, 6)
        hypergraphs += [
            h,
            with_extra_vertices(rng, h, rng.randint(1, 4), 0),
            with_extra_vertices(rng, h, 0, rng.randint(1, 3)),
            with_extra_vertices(rng, h, rng.randint(1, 3), rng.randint(1, 2)),
            random_hypergraph(n, rng.randint(n + 1, 2**n - 1), seed=rng),
            build_hypergraph([str(v) for v in range(n)], []),
            random_hypergraph(n + 2, 1, seed=rng),
        ]
    for index, h in enumerate(hypergraphs):
        path = tmp_path / f"random_{index}.txt"
        path.write_text(serialize_hypergraph_text(h), encoding="utf-8")
        paths.append(path)
    return paths


def recorded_bases(monkeypatch) -> list:
    """Record every ``NullspaceBasis`` the ``rank`` handler receives."""
    bases = []
    call = cli.rank_and_nullspace

    def recording(*args):
        bases.append(call(*args))
        return bases[-1]

    monkeypatch.setattr(cli, "rank_and_nullspace", recording)
    return bases


def basis_fields(ns) -> tuple:
    """Every field of a basis, and each vector's entries in their order."""
    return ns.rank, ns.cols, ns.nullity, [list(v.entries.items()) for v in ns.vectors]


def i_h_first(h: Hypergraph) -> bool:
    """Whether ``rank`` eliminates I_H first: B_H has fewer distinct columns than rows."""
    return len(set(h.star_masks)) < h.n_edges


def test_matches_two_elimination_reference(monkeypatch, tmp_path):
    paths = rank_cases(tmp_path)
    bases = recorded_bases(monkeypatch)
    shapes = set()
    for path in map(str, paths):
        bases.clear()
        report = cli.cmd_rank(argparse.Namespace(file=path))
        expected, ns_b, ns_i = rank_reference(path)
        assert json.dumps(report, indent=2) == json.dumps(expected, indent=2), path
        first = i_h_first(load_hypergraph(path))
        in_order = [ns_i, ns_b] if first else [ns_b, ns_i]
        assert bases == in_order, path
        assert list(map(basis_fields, bases)) == list(map(basis_fields, in_order)), path
        edges, vertices = report["edges"], report["vertices"]
        shapes.add(
            ("rank |E|" if ns_b.rank == edges else "rank < |E|")
            + (", |E| > |V|" if edges > vertices else "")
            + (", edgeless" if not edges else "")
            + (", one edge" if edges == 1 else "")
            + (", I_H first" if first else "")
        )
    assert {
        "rank |E|", "rank < |E|", "rank |E|, edgeless", "rank |E|, one edge",
        "rank < |E|, I_H first", "rank < |E|, |E| > |V|, I_H first",  # |E| > |V| takes I_H first
    } <= shapes, shapes


def test_one_full_elimination_per_rank(monkeypatch, tmp_path, capsys):
    """``rank`` eliminates the distinct rows of its first side, I_H when B_H
    has fewer distinct columns than rows, and the other side on rank(B_H)
    rows, or not at all when the first side's distinct rows, which are the
    other side's distinct columns, number rank(B_H); rank-dense's slot of 20
    clones takes one elimination, of its 42 distinct stars.
    ``cli.rank_and_nullspace``, which the benchmark's elimination span wraps,
    is still entered twice."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(len(rows)) or eliminate(rows))
    bases = recorded_bases(monkeypatch)
    counts = {(first, once): 0 for first in (False, True) for once in (False, True)}
    for path in rank_cases(tmp_path):
        eliminated.clear()
        bases.clear()
        assert main(["rank", str(path), "--json"]) == 0, path.name
        report = json.loads(capsys.readouterr().out)
        h = load_hypergraph(str(path))
        rank, first = int(report["rank"]), i_h_first(h)
        assert len(bases) == 2, path.name
        distinct = len(set(h.star_masks)) if first else h.n_edges  # edges are distinct
        assert eliminated == ([distinct] if rank == distinct else [distinct, rank]), path.name
        counts[first, rank == distinct] += 1
        if path.name.startswith("dense3_"):
            assert first and eliminated == [42], path.name
    assert min(counts.values()) >= 5, counts


# -- the transpose's proof is its own ------------------------------------------------

FULL_ROW_RANK = build_hypergraph(
    ["1", "2", "3", "4", "5"], [["1", "2"], ["2", "3", "4"], ["4", "5"]]
)  # rank 3 = |E|
DEFICIENT = build_hypergraph(
    ["1", "2", "3", "4", "5"], [["1", "2", "5"], ["3", "4"], ["1", "3", "5"], ["2", "4"]]
)  # rank 3 < |E| = 4 (e1 + e2 = e3 + e4), and rows 0 and 4 of I_H are equal (the unit {1, 5})


I_H_FIRST = build_hypergraph(
    ["1", "2", "3", "4"], [["1", "2", "4"], ["2", "3"], ["1", "3", "4"], ["1", "2", "3", "4"]]
)  # 4 shares 1's star: 3 distinct stars < |E| = 4, rank 3


def pivot_rows(h: Hypergraph) -> list[int]:
    """B_H's pivot columns, from a separate elimination."""
    return linalg.proven_kernel(edge_vertex_incidence(h).entries, h.n_vertices)[0]


def test_instances_are_what_they_claim():
    assert pivot_rows(FULL_ROW_RANK) == [0, 1, 3]
    assert pivot_rows(DEFICIENT) == [0, 1, 2]
    for h in (FULL_ROW_RANK, DEFICIENT):
        i = vertex_edge_incidence(h)
        assert rank_and_nullspace(i, pivot_rows(h)) == rank_and_nullspace(i)


@pytest.mark.parametrize(
    "h, rows",
    [
        (FULL_ROW_RANK, [0, 1]),  # two of three pivot rows: one kernel vector too many
        (FULL_ROW_RANK, [2, 4]),
        (DEFICIENT, [0, 1]),
        (DEFICIENT, [3]),
        (DEFICIENT, [0, 4, 1]),  # rank(B_H) rows, two of them equal
        (DEFICIENT, []),
    ],
    ids=["full 0 1", "full 2 4", "deficient 0 1", "deficient 3", "deficient 0 4 1", "deficient none"],
)
def test_rows_that_do_not_span_fail_re_multiplication(h, rows):
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        rank_and_nullspace(vertex_edge_incidence(h), rows)


@pytest.mark.parametrize(
    "h, rows",
    [
        (DEFICIENT, [0, 1, 2, 3]),  # |E| distinct rows of a matrix of rank |E| - 1
        (DEFICIENT, [0, 4, 1, 2]),  # |E| rows, two of them equal
    ],
    ids=["distinct rows", "two equal rows"],
)
def test_as_many_dependent_rows_as_columns_fail_the_rank(h, rows):
    """As many rows as columns are claimed independent with no elimination;
    the modular rank of all of I_H's rows refutes the claim."""
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        rank_and_nullspace(vertex_edge_incidence(h), rows)


@pytest.mark.parametrize(
    "rows",
    [[5], [-1], [0, 0], [0, 4, 4, 1], [0, 1, 9, 2]],
    ids=["past the end", "negative", "repeated", "as many as columns, repeated", "as many as columns, one past"],
)
def test_bad_row_indices_are_invalid_parameters(rows):
    """I_H of ``DEFICIENT`` has 5 rows and 4 columns: a row index that is not
    one of its rows, or that repeats, is refused before any elimination."""
    with pytest.raises(InvalidParameters, match="spanning rows"):
        rank_and_nullspace(vertex_edge_incidence(DEFICIENT), rows)


def run_rank(h: Hypergraph, tmp_path: Path) -> dict:
    path = tmp_path / "h.txt"
    path.write_text(serialize_hypergraph_text(h), encoding="utf-8")
    return cli.cmd_rank(argparse.Namespace(file=str(path)))


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("h", [FULL_ROW_RANK, DEFICIENT], ids=["full row rank", "deficient"])
def test_wrong_modular_rank_of_i_h_is_caught(monkeypatch, tmp_path, h, shift):
    """A modular rank one off on I_H alone, the second proof of ``rank``;
    B_H's, taken first, stays right."""
    modular_rank = linalg._modular_rank
    calls = []

    def shifted(rows, ceiling):
        calls.append(len(rows))
        return modular_rank(rows, ceiling) + (shift if len(calls) == 2 else 0)

    assert run_rank(h, tmp_path)["failures"] == []
    monkeypatch.setattr(linalg, "_modular_rank", shifted)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        run_rank(h, tmp_path)
    assert calls == [h.n_edges, h.n_vertices]


def test_wrong_entry_in_the_i_h_elimination_is_caught(monkeypatch, tmp_path):
    """On a rank-deficient H, a wrong entry in the second elimination, of
    I_H's pivot rows, fails the re-multiplication through all of I_H."""
    eliminate = linalg._fraction_free_rref
    calls = []

    def corrupted(rows):
        calls.append(len(rows))
        pivots, reduced, d = eliminate(rows)
        if len(calls) == 2:
            reduced[0][0] += 1
        return pivots, reduced, d

    monkeypatch.setattr(linalg, "_fraction_free_rref", corrupted)
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        run_rank(DEFICIENT, tmp_path)
    assert calls == [4, 3]


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("call", [1, 2], ids=["I_H, eliminated first", "B_H, not eliminated, with a copy"])
def test_wrong_modular_rank_on_the_i_h_first_path_is_caught(monkeypatch, tmp_path, call, shift):
    """``rank`` on ``I_H_FIRST`` eliminates I_H's 3 distinct rows, then takes
    B_H's rows at I_H's 3 pivot columns, as many as B_H's distinct columns,
    and eliminates nothing; column 4 copies column 1.  A modular rank one
    off on either side is caught."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(len(rows)) or eliminate(rows))
    report = run_rank(I_H_FIRST, tmp_path)
    assert i_h_first(I_H_FIRST) and report["rank"] == "3" and report["failures"] == []
    assert report["kernel_basis"] == [{"1": "-1", "4": "1"}] and eliminated == [3]
    modular_rank = linalg._modular_rank
    calls = []

    def shifted(rows, ceiling):
        calls.append(len(rows))
        return modular_rank(rows, ceiling) + (shift if len(calls) == call else 0)

    monkeypatch.setattr(linalg, "_modular_rank", shifted)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        run_rank(I_H_FIRST, tmp_path)
    assert calls == [I_H_FIRST.n_vertices, I_H_FIRST.n_edges][:call]
