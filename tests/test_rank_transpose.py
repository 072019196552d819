"""``hyperinc rank`` against the two-elimination handler it replaced.

``rank_reference`` below is the earlier ``cli.cmd_rank``, kept as a
test-only reference: it eliminated B_H and its transpose I_H in full, every
row and column.  The current handler eliminates each side at most once, on
the basis rows of its rank stage of highest rank and its distinct columns,
and not at all when two stages show its rank is its count of distinct
columns; both ranks are still proven on all rows.  The reports and both
``NullspaceBasis`` results must agree exactly.  Rows a stage chooses that
do not span the row space fail the product and every distinct row is
eliminated instead; rows a stage claims independent that are not fail the
rank.
"""

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import bench_workloads, random_instance, shifted_ladder, with_extra_vertices
from hyperinc import build_hypergraph, cli, linalg
from hyperinc.cli import _basis_json, main
from hyperinc.formats import load_hypergraph, serialize_hypergraph_text
from hyperinc.generators import random_hypergraph
from hyperinc.hypergraph import Hypergraph, VertexVector
from hyperinc.linalg import NullspaceBasis, edge_vertex_incidence, rank_and_nullspace, vertex_edge_incidence

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_INSTANCES = sorted((ROOT / "tests" / "golden").glob("*.txt"))


def full_elimination(m) -> NullspaceBasis:
    """The kernel basis of a fraction-free elimination of every row and
    column of ``m``, each vector read in order: 1 at its free column f, then
    minus f's RREF entry in each pivot row."""
    pivots, reduced, d = linalg._fraction_free_rref([list(row) for row in m.entries])
    free = [f for f in range(m.cols) if f not in pivots]
    vectors = []
    for k, f in enumerate(free):
        coords = {m.col_labels[f]: Fraction(1)}
        for p, row in zip(pivots, reduced):
            if row[k]:
                coords[m.col_labels[p]] = Fraction(-row[k], d)
        vectors.append(VertexVector(coords))
    return NullspaceBasis(pivots=tuple(pivots), cols=m.cols, vectors=tuple(vectors))


def rank_reference(path: str):
    """The report of the two-elimination ``rank``, and its two bases."""
    h = load_hypergraph(path)
    b = edge_vertex_incidence(h)
    i = vertex_edge_incidence(h)
    ns_b = full_elimination(b)
    ns_i = full_elimination(i)
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


def test_matches_two_elimination_reference(monkeypatch, tmp_path):
    paths = rank_cases(tmp_path)
    bases = recorded_bases(monkeypatch)
    shapes = set()
    for path in map(str, paths):
        bases.clear()
        report = cli.cmd_rank(argparse.Namespace(file=path))
        expected, ns_b, ns_i = rank_reference(path)
        assert json.dumps(report, indent=2) == json.dumps(expected, indent=2), path
        assert bases == [ns_b, ns_i], path
        assert list(map(basis_fields, bases)) == list(map(basis_fields, [ns_b, ns_i])), path
        edges, vertices = report["edges"], report["vertices"]
        shapes.add(
            ("rank |E|" if ns_b.rank == edges else "rank < |E|")
            + (", |E| > |V|" if edges > vertices else "")
            + (", edgeless" if not edges else "")
            + (", one edge" if edges == 1 else "")
            + (", units" if len(set(load_hypergraph(path).star_masks)) < vertices else "")
        )
    assert {
        "rank |E|", "rank < |E|", "rank |E|, edgeless, units", "rank |E|, one edge",
        "rank < |E|, units", "rank < |E|, |E| > |V|, units",
    } <= shapes, shapes


def test_one_full_elimination_per_rank(monkeypatch, tmp_path, capsys):
    """``rank`` eliminates each side on rank(B_H) of its rows and its
    distinct columns, or not at all when the rank is its count of distinct
    columns, in either order, B_H then I_H; rank-dense's slot of 20 clones
    takes one elimination, of I_H's 42 distinct stars.  Both ways occur on
    both sides.  ``cli.rank_and_nullspace``, which the benchmark's
    elimination span wraps, is still entered twice."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(len(rows)) or eliminate(rows))
    bases = recorded_bases(monkeypatch)
    counts = {(b, i): 0 for b in (False, True) for i in (False, True)}
    for path in rank_cases(tmp_path):
        eliminated.clear()
        bases.clear()
        assert main(["rank", str(path), "--json"]) == 0, path.name
        rank = int(json.loads(capsys.readouterr().out)["rank"])
        h = load_hypergraph(str(path))
        assert len(bases) == 2, path.name
        # the distinct columns of B_H are the distinct stars; edges are distinct
        sides = [rank < len(set(h.star_masks)), rank < h.n_edges]
        assert eliminated == [rank] * sum(sides), path.name
        counts[tuple(sides)] += 1
        if path.name.startswith("dense3_"):
            assert sides == [False, True] and eliminated == [42], path.name
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
    return linalg.proven_kernel(edge_vertex_incidence(h))[0]


def test_instances_are_what_they_claim():
    assert pivot_rows(FULL_ROW_RANK) == [0, 1, 3]
    assert pivot_rows(DEFICIENT) == [0, 1, 2]
    for h in (FULL_ROW_RANK, DEFICIENT):
        i = vertex_edge_incidence(h)
        assert rank_and_nullspace(i) == full_elimination(i)


def chosen(monkeypatch, rows: list[int], reached: int = 0) -> list:
    """Make the stages that choose the rows ``proven_kernel`` eliminates, on
    the first matrix they run on, answer with ``rows``, a basis of their
    rank; log the rows of each elimination."""
    ladder = linalg._ladder
    eliminated, calls = [], []

    def choose(m, ceiling, needed=1, primes=True):
        calls.append(primes)
        if not primes and calls.count(False) == 1:
            return len(rows), list(rows), reached
        return ladder(m, ceiling, needed, primes)

    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_ladder", choose)
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda block: eliminated.append(len(block)) or eliminate(block))
    return eliminated


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
def test_rows_that_do_not_span_fail_re_multiplication(monkeypatch, h, rows):
    """Independent rows of I_H that do not span its row space leave a kernel
    too large, which fails the product with the rows left out: every
    distinct row is eliminated, and the basis is the one of all rows.  Rows
    with two equal give fewer pivots than the rank claimed for them."""
    i = vertex_edge_incidence(h)
    expected = rank_and_nullspace(i)
    eliminated = chosen(monkeypatch, rows)
    if len(set(map(tuple, (i.entries[k] for k in rows)))) < len(rows):
        with pytest.raises(ArithmeticError, match="rank disagreement"):
            rank_and_nullspace(i)
        return
    assert rank_and_nullspace(i) == expected
    assert eliminated == [len(rows), len(set(h.star_masks))]


@pytest.mark.parametrize(
    "h, rows",
    [
        (DEFICIENT, [0, 1, 2, 3]),  # |E| distinct rows of a matrix of rank |E| - 1
        (DEFICIENT, [0, 4, 1, 2]),  # |E| rows, two of them equal
    ],
    ids=["distinct rows", "two equal rows"],
)
def test_as_many_dependent_rows_as_columns_fail_the_rank(monkeypatch, h, rows):
    """As many rows as columns, claimed independent by one stage, would leave
    nothing to eliminate if a second stage agreed; with one stage they are
    eliminated, and fewer pivots than rows fail the rank."""
    eliminated = chosen(monkeypatch, rows, reached=1)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        rank_and_nullspace(vertex_edge_incidence(h))
    assert eliminated == [4]


def run_rank(h: Hypergraph, tmp_path: Path) -> dict:
    path = tmp_path / "h.txt"
    path.write_text(serialize_hypergraph_text(h), encoding="utf-8")
    return cli.cmd_rank(argparse.Namespace(file=str(path)))


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("h", [FULL_ROW_RANK, DEFICIENT], ids=["full row rank", "deficient"])
def test_wrong_modular_rank_of_i_h_is_caught(monkeypatch, tmp_path, h, shift):
    """A modular rank one off on I_H alone, the second proof of ``rank``;
    B_H's, taken first, stays right.  Where I_H needs no elimination, the
    proof after it is shifted too."""
    assert run_rank(h, tmp_path)["failures"] == []
    calls = []
    on_i_h = shifted_ladder(monkeypatch, shift, lambda m: calls.append(m.rows) or m.row_labels == h.vertices)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        run_rank(h, tmp_path)
    assert calls[:2] == [h.n_edges, h.n_vertices] and on_i_h[0] is False and all(on_i_h[1:])


def test_wrong_entry_in_the_i_h_elimination_is_caught(monkeypatch, tmp_path):
    """On a rank-deficient H, a wrong entry in the eliminations of I_H, of
    the 3 rows a stage chose and then of its 4 distinct rows, fails the
    re-multiplication through all of I_H."""
    eliminate = linalg._fraction_free_rref
    calls = []

    def corrupted(rows):
        calls.append(len(rows))
        pivots, reduced, d = eliminate(rows)
        if len(calls) >= 2:
            reduced[0][0] += 1
        return pivots, reduced, d

    monkeypatch.setattr(linalg, "_fraction_free_rref", corrupted)
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        run_rank(DEFICIENT, tmp_path)
    assert calls == [3, 3, 4]


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("call", [1, 2], ids=["I_H, eliminated first", "B_H, not eliminated, with a copy"])
def test_wrong_modular_rank_on_the_i_h_first_path_is_caught(monkeypatch, tmp_path, call, shift):
    """``rank`` on ``I_H_FIRST``, which I_H once went first on, proves B_H's
    rank 3, as many as its distinct columns (column 4 copies column 1), by
    two stages with nothing eliminated, and eliminates I_H's 3 distinct
    rows.  A modular rank one off on either side is caught."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(len(rows)) or eliminate(rows))
    report = run_rank(I_H_FIRST, tmp_path)
    assert report["rank"] == "3" and report["failures"] == []
    assert report["kernel_basis"] == [{"1": "-1", "4": "1"}] and eliminated == [3]
    side = I_H_FIRST.vertices if call == 1 else I_H_FIRST.edge_labels
    shifted = shifted_ladder(monkeypatch, shift, lambda m: m.row_labels == side)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        run_rank(I_H_FIRST, tmp_path)
    assert shifted[-1]
