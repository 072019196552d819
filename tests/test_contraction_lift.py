"""``nullity_decomposition`` against the two-elimination code it replaced.

``nullity_decomposition_reference`` below is the earlier
``nullity_decomposition``, kept as a test-only reference: it ran a proven
elimination (``proven_kernel`` now) on both B_H and the unit contraction C.
The current one eliminates nothing when two rank stages (of GF(2), GF(3) and
mod 5) reach the dimension bound min(|E|, #units) on C, and otherwise only C,
lifting C's kernel basis to H; either way it proves rank(B_H) on B_H's own
rows.  Both
must agree on every field.  On both paths a fault in the lift or the unit
differences, in the contraction's vertex map or edges, or in any rank stage
must raise or leave the numbers right.
"""

import itertools
import random
from pathlib import Path

import pytest

from conftest import (
    STAGES,
    bench_workloads,
    random_instance,
    shift_stages,
    shifted_ladder,
    stage_of,
    with_extra_vertices,
)
from hyperinc import build_hypergraph, kernels, linalg
from hyperinc.cli import main
from hyperinc.formats import load_hypergraph, serialize_hypergraph_text
from hyperinc.hypergraph import Hypergraph, unit_contraction
from hyperinc.kernels import NullityDecomposition, nullity_decomposition
from hyperinc.linalg import _integer_matrix, edge_vertex_incidence, proven_kernel

GOLDEN_INSTANCES = sorted((Path(__file__).resolve().parent / "golden").glob("*.txt"))


def nullity_decomposition_reference(h: Hypergraph) -> NullityDecomposition:
    """Exact rank/nullity of B_H and of the unit contraction, with identities.

    Asserts nullity(H) = nullity(contraction) + |V| - #units, equal ranks,
    nullity >= |V| - #units, rank <= #units, and, at any size, that H is
    its own contraction when every unit is one vertex.  Both ranks come from
    ``proven_kernel`` (kernel re-multiplied, rank proven by modular ranks),
    so each nullity is the column count minus the rank.
    """
    rank = len(proven_kernel(_integer_matrix(edge_vertex_incidence(h).entries, h.n_vertices))[0])
    contracted, _, _ = contraction = unit_contraction(h)
    n_units = contracted.n_vertices
    contraction_rank = len(proven_kernel(_integer_matrix(edge_vertex_incidence(contracted).entries, n_units))[0])
    nullity, contraction_nullity = h.n_vertices - rank, n_units - contraction_rank
    deficiency = h.n_vertices - n_units

    if nullity != contraction_nullity + deficiency:
        raise ArithmeticError("nullity decomposition identity failed")
    if rank != contraction_rank:
        raise ArithmeticError("rank is not preserved by unit contraction")
    if nullity < deficiency or rank > n_units:
        raise ArithmeticError("unit bounds on rank/nullity failed")
    if deficiency == 0 and contracted != h:
        raise ArithmeticError("a hypergraph of single-vertex units is not its own contraction")
    return NullityDecomposition(
        rank=rank,
        nullity=nullity,
        contraction_rank=contraction_rank,
        contraction_nullity=contraction_nullity,
        n_units=n_units,
        units_deficiency=deficiency,
        contraction=contraction,
    )


def dense_instance(rng: random.Random, n_base: int, n_clones: int, n_edges: int) -> Hypergraph:
    """Distinct edges of about half of ``n_base`` vertices; each of the
    ``n_clones`` extra vertices copies the star of a random base vertex, so
    the two share a unit."""
    base = [str(i) for i in range(1, n_base + 1)]
    clone_of = {str(n_base + 1 + j): rng.choice(base) for j in range(n_clones)}
    edges: list[frozenset[str]] = []
    while len(edges) < n_edges:
        e = frozenset(v for v in base if rng.random() < 0.5)
        if len(e) >= 2 and e not in edges:
            edges.append(e)
    edges = [e | {c for c, b in clone_of.items() if b in e} for e in edges]
    return build_hypergraph(base + list(clone_of), edges)


def agreement_cases():
    rng = random.Random(2611)
    cases = []
    for index in range(3):
        cases += [
            (f"30x50 with 10 clones #{index}", dense_instance(rng, 40, 10, 30)),
            (f"36x46 #{index}", dense_instance(rng, 46, 0, 36)),
            (f"44x62 with 20 clones #{index}", dense_instance(rng, 42, 20, 44)),
        ]
    for index in range(40):
        h = random_instance(rng, max_vertices=9, max_edges=7)
        cases += [
            (f"random #{index}", h),
            (f"random #{index} with units", with_extra_vertices(rng, h, rng.randint(1, 4), 0)),
            (f"random #{index} isolated", with_extra_vertices(rng, h, 0, rng.randint(1, 3))),
        ]
    cases += [
        ("edgeless, one vertex", build_hypergraph(["a"], [])),
        ("edgeless, three vertices", build_hypergraph(["1", "2", "3"], [])),
        ("one edge on every vertex", build_hypergraph(["a", "b", "c", "d"], [["a", "b", "c", "d"]])),
        ("one isolated vertex", build_hypergraph(["a", "b", "c"], [["a", "b"], ["b"]])),
        ("isolated vertices and units", build_hypergraph(["a", "b", "c", "d", "e"], [["a", "b"]])),
    ]
    return cases




def with_edges(h: Hypergraph, *edges) -> Hypergraph:
    """``h`` with more edges, named on from its last."""
    names = [f"e{h.n_edges + i}" for i in range(1, len(edges) + 1)]
    return build_hypergraph(h.vertices, [*h.edges, *edges], [*h.edge_labels, *names])


# on ``unit_example`` (C is 5 x 6 of rank 5 = |E|): e2 + e4 keeps the units and
# makes C 6 x 6 of rank 5; {1, 2, 10} and {3, 4, 11} make it 7 x 6 of rank 6 = #units
DEFICIENT = [str(i) for i in range(1, 10)]
TALL = (["1", "2", "10"], ["3", "4", "11"])
# a 0/1 matrix of determinant -3: rank 4 over Q, GF(2) and mod 5, 3 over GF(3)
DET_3 = build_hypergraph(["a", "b", "c", "d"], [["c", "d"], ["b", "d"], ["a", "d"], ["a", "b", "c"]])
# a 0/1 matrix of determinant 6, of distinct columns: rank 6 over Q and mod 5,
# less over GF(2) and GF(3)
DET_6 = build_hypergraph(
    list("abcdef"), [list("abce"), list("bcde"), list("abd"), list("acdf"), list("adef"), list("acde")]
)
C7 = Path(__file__).resolve().parent / "golden" / "empty_kernel_c7.txt"  # determinant 2


def stages_reach(h: Hypergraph) -> bool:
    """Whether two of the contraction's ranks mod 2, 3 and 5, by
    ``_rank_mod_p``, reach min(|E|, #units): exactly then ``contract``
    eliminates nothing."""
    contracted = unit_contraction(h)[0]
    rows = edge_vertex_incidence(contracted).entries
    bound = min(contracted.n_edges, contracted.n_vertices)
    return sum(linalg._rank_mod_p(rows, p)[0] == bound for p in (2, 3, 5)) >= 2


def count_eliminations(monkeypatch) -> list:
    """Log the rows of each fraction-free elimination."""
    calls = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: calls.append(rows) or eliminate(rows))
    return calls


def test_matches_two_elimination_reference(monkeypatch):
    """Agreement on every case, and the cases take both paths: no
    elimination, and the one elimination of C."""
    cases = agreement_cases()
    assert any(nullity_decomposition(h).units_deficiency == 0 for _, h in cases)
    assert any(nullity_decomposition(h).contraction[0].n_edges == 0 for _, h in cases)
    calls = count_eliminations(monkeypatch)
    paths = set()
    for label, h in cases:
        calls.clear()
        found = nullity_decomposition(h)
        paths.add(len(calls))
        assert len(calls) == (not stages_reach(h)), label
        expected = nullity_decomposition_reference(h)
        assert found == expected, label
        assert found.contraction == expected.contraction, label
    assert paths == {0, 1}


def test_one_elimination_per_contract(monkeypatch, tmp_path, capsys):
    """``contract`` eliminates nothing when two of the contraction's ranks
    mod 2, 3 and 5 reach the dimension bound, and the contraction alone
    otherwise, on every golden instance and every rank-dense shape; both
    happen.  The reference, counted the same way, makes two on the slot of
    10 clones, where B_H and C have rank 30, below their 40 distinct
    columns."""
    rng = random.Random(26)
    paths = list(GOLDEN_INSTANCES)
    for shape in ((40, 10, 30), (46, 0, 36), (42, 20, 44)):
        path = tmp_path / f"dense_{shape[0] + shape[1]}.txt"
        path.write_text(serialize_hypergraph_text(dense_instance(rng, *shape)), encoding="utf-8")
        paths.append(path)
    calls = count_eliminations(monkeypatch)
    seen = set()
    for path in paths:
        calls.clear()
        assert main(["contract", str(path), "--json"]) == 0, path.name
        expected = 0 if stages_reach(load_hypergraph(str(path))) else 1
        assert len(calls) == expected, path.name
        seen.add(expected)
    assert seen == {0, 1}
    capsys.readouterr()
    calls.clear()
    nullity_decomposition_reference(dense_instance(rng, 40, 10, 30))
    assert len(calls) == 2


def test_gf3_falling_short_takes_the_elimination_path(monkeypatch):
    """GF(2) and mod 5 reach rank 4 on ``DET_3`` and GF(3) does not: two
    stages prove it, and nothing is eliminated.  On ``DET_6`` GF(2) and GF(3)
    agree on rank 5, below the rank 6 that mod 5 alone would reach, so C is
    eliminated on GF(2)'s 5 basis rows, whose kernel fails the product with
    the sixth, and then on all 6.  The numbers are the reference's."""
    calls = count_eliminations(monkeypatch)
    for h, ranks, eliminations in ((DET_3, (4, 3, 4), 0), (DET_6, (5, 5, 6), 2)):
        rows = edge_vertex_incidence(h).entries
        assert tuple(linalg._rank_mod_p(rows, p)[0] for p in (2, 3, 5)) == ranks
        calls.clear()
        found = nullity_decomposition(h)
        assert len(calls) == eliminations and found.rank == h.n_vertices
        assert found == nullity_decomposition_reference(h)


@pytest.mark.parametrize("seed", [47003, 47009])
def test_contraction_short_mod_2_tries_no_large_prime(monkeypatch, tmp_path, capsys, seed):
    """On rank-dense's slot of 20 clones at these seeds, the contraction (44 x
    42, of full column rank) falls short mod 2, and GF(3) and mod 5 prove its
    rank: neither ``rank`` nor ``contract`` tries a prime above 2**20, and
    ``contract`` eliminates nothing."""
    bench_workloads().build_pool("rank-dense", seed, tmp_path)
    path = str(tmp_path / "dense3.txt")
    h = load_hypergraph(path)
    contracted = unit_contraction(h)[0]
    assert (contracted.n_edges, contracted.n_vertices) == (44, 42)
    assert linalg._rank_gf2(contracted.edge_masks)[0] < 42
    log = shift_stages(monkeypatch)
    calls = count_eliminations(monkeypatch)
    for command in ("rank", "contract"):
        log.clear()
        calls.clear()
        assert main([command, path, "--json"]) == 0
        assert log and max(log) < 2**20, command
    assert calls == []
    capsys.readouterr()


# -- the proof is wired in, on both paths ------------------------------------------


def moved(h: Hypergraph, vector: dict[int, int]) -> dict[int, int]:
    """``vector`` with its first entry moved to a column outside its support
    whose star differs: a member of another unit."""
    c = next(iter(vector))
    j = next(
        j for j in range(h.n_vertices)
        if j not in vector and h.star_masks[j] != h.star_masks[c]
    )
    vector = dict(vector)
    vector[j] = vector.pop(c)
    return vector


def faulty_kernel(monkeypatch, h: Hypergraph, fault: str) -> list:
    """Patch ``_proven_rank`` in ``kernels`` to move or drop the first unit
    difference, or the last vector; log the length of each vector given."""
    prove = kernels._proven_rank
    seen = []

    def faulty(m, kernel, lower=0):
        kernel = list(kernel)
        seen.append([len(v) for v in kernel])
        index = -1 if "basis" in fault else 0
        if fault.startswith("move"):
            kernel[index] = moved(h, kernel[index])
        else:
            del kernel[index]
        return prove(m, kernel, lower)

    monkeypatch.setattr(kernels, "_proven_rank", faulty)
    return seen


@pytest.mark.parametrize(
    "fault, message",
    [
        ("move a unit difference", "re-multiplication"),
        ("move a lifted basis vector", "re-multiplication"),
        ("drop a unit difference", "rank disagreement"),
        ("drop a lifted basis vector", "rank disagreement"),
    ],
)
def test_wrong_lift_is_caught(monkeypatch, unit_example, fault, message):
    """A lifted vector on a member of the wrong unit fails the re-multiplication
    through B_H; a vector too few claims a rank that the modular rank of B_H
    refutes.  C is rank-deficient here, so it is eliminated; the differences
    come first, the one lifted basis vector last."""
    h = with_edges(unit_example, DEFICIENT)
    assert not stages_reach(h)
    assert nullity_decomposition(h).contraction_nullity == 1
    seen = faulty_kernel(monkeypatch, h, fault)
    with pytest.raises(ArithmeticError, match=message):
        nullity_decomposition(h)
    ((*differences, basis_vector),) = seen
    assert differences == [2] * 5 and basis_vector > 2


@pytest.mark.parametrize(
    "fault, message",
    [("move a unit difference", "re-multiplication"), ("drop a unit difference", "rank disagreement")],
)
def test_wrong_difference_is_caught_on_the_full_rank_path(monkeypatch, unit_example, fault, message):
    """rank(C) = #units < |E|, proven mod 2 and mod 3: rank(B_H) is proven
    from the five unit differences alone, and the same faults are caught."""
    h = with_edges(unit_example, *TALL)
    assert stages_reach(h)
    assert nullity_decomposition(h).contraction_rank == 6 < h.n_edges
    seen = faulty_kernel(monkeypatch, h, fault)
    with pytest.raises(ArithmeticError, match=message):
        nullity_decomposition(h)
    assert seen == [[2] * 5]


def test_vertex_map_merging_a_non_unit_is_caught(monkeypatch):
    """A vertex map that sends b, which shares no star with c and d, into
    their unit keeps every rank and count, so only the re-multiplication of
    B_H = B_C S at b's column sees it: on a contraction of full rank, and on
    one made rank-deficient by the edge {a, b, c, d} and the isolated e."""
    contract = kernels.unit_contraction

    def merged(h):
        contracted, vertex_map, edge_map = contract(h)
        return contracted, {**vertex_map, "b": vertex_map["c"]}, edge_map

    for extra, full in (([], True), ([["a", "b", "c", "d"]], False)):
        h = build_hypergraph(["a", "b", "c", "d", "e"], [["a", "b"], ["c", "d"], *extra])
        assert stages_reach(h) == full
        assert nullity_decomposition(h).rank == 2
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "unit_contraction", merged)
            with pytest.raises(ArithmeticError, match="re-multiplication"):
                nullity_decomposition(h)


@pytest.mark.parametrize("path", ["full rank", "rank-deficient"])
def test_corrupted_contraction_edge_is_caught(monkeypatch, path):
    """A contraction whose first edge gains the unit of x keeps its path: C
    stays of full rank, or keeps e's zero column and rank 3 < 4.  B_H's
    columns no longer match C's."""
    edges = [["a", "b"], ["c", "d"], ["x"]] + [["a", "b", "c", "d"]] * (path != "full rank")
    h = build_hypergraph(["a", "b", "c", "d", "x", "e"], edges)
    contract = kernels.unit_contraction

    def corrupted(h):
        contracted, vertex_map, edge_map = contract(h)
        edges = [set(e) for e in contracted.edges]
        edges[0].add(vertex_map["x"])
        return Hypergraph(contracted.vertices, edges, contracted.edge_labels), vertex_map, edge_map

    assert stages_reach(h) == (path == "full rank")
    assert nullity_decomposition(h).rank == 3
    monkeypatch.setattr(kernels, "unit_contraction", corrupted)
    assert stages_reach(h) == (path == "full rank")
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        nullity_decomposition(h)


@pytest.mark.parametrize("shift", [1, -1])
def test_wrong_modular_rank_of_b_h_is_caught(monkeypatch, unit_example, shift):
    """A modular rank of B_H one too high or one too low; the contraction's,
    taken first, has fewer columns and stays right.  C is rank-deficient
    here, so it is eliminated, on the rows its ladder chose."""
    h = with_edges(unit_example, DEFICIENT)
    on_h = shifted_ladder(monkeypatch, shift, lambda m: m.cols == h.n_vertices)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        nullity_decomposition(h)
    assert on_h == [False, True]


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("stage", ["_rank_gf2", "_rank_gf3", "_modular_rank"])
def test_wrong_rank_of_b_h_is_caught_on_the_full_rank_path(monkeypatch, unit_example, stage, shift):
    """With rank(C) = |E| (``unit_example``) the GF(2) and GF(3) ranks of
    B_H's rows, taken after C's, prove rank(B_H); with rank(C) = #units <
    |E| the ladder in ``_proven_rank`` does (``_modular_rank`` stands for it).
    One too high or one too low on B_H, and only there, is caught."""
    assert stages_reach(unit_example) and stages_reach(with_edges(unit_example, *TALL))
    if stage == "_modular_rank":
        h = with_edges(unit_example, *TALL)
        calls = shifted_ladder(monkeypatch, shift, lambda m: m.cols == h.n_vertices)
    else:
        h = unit_example
        real = getattr(linalg, stage)
        calls = []

        def shifted(rows, limit=None):
            rank, basis = real(rows, limit)
            calls.append(len(calls) == 1)  # the second call, on B_H
            return rank + shift * calls[-1], basis

        monkeypatch.setattr(linalg, stage, shifted)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        nullity_decomposition(h)
    assert calls == [False, True]


def test_b_h_below_rank_c_is_caught(monkeypatch, unit_example):
    """rank(C) = |E| by GF(2) and GF(3), taken first; with both one too low on
    B_H's rows, they agree below |E| and prove no rank for B_H, and rank(B_H)
    must equal rank(C)."""
    log = shift_stages(monkeypatch, -1, ("GF(2)", "GF(3)"), at={2, 3})
    with pytest.raises(ArithmeticError, match=r"rank\(B_H\) is not rank\(C\)"):
        nullity_decomposition(unit_example)
    assert log == [2, 3, 2, 3]


# each routine shifted, by the stages of ``_ladder`` it runs: ``_rank_mod_p``
# runs mod 5 and the primes, and ``_modular_rank``, the name the ladder had,
# stands for every stage
SHIFTED = {"_rank_gf2": ("GF(2)",), "_rank_gf3": ("GF(3)",), "_rank_mod_p": ("mod 5", "primes"), "_modular_rank": STAGES}


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("stage", sorted(SHIFTED))
def test_no_shifted_rank_stage_gives_a_wrong_rank(monkeypatch, unit_example, stage, shift):
    """Each rank stage one too high or one too low, at each of its calls in
    turn and at all of them, on contractions of full row rank, of full
    column rank, rank-deficient, and of full rank where GF(2) (C7), GF(3)
    (``DET_3``) or both (``DET_6``) fall short: ``nullity_decomposition``
    raises or returns the reference's numbers, never a wrong rank.  A stage
    of GF(2), GF(3) or ``_rank_mod_p`` one too high names a row outside its
    basis too, and one too low drops a basis row, or the rank moves alone.
    Every stage at once names a row outside its basis only one too low: all
    of them naming a dependent row is no single fault, and only an
    elimination would see it where two stages reach the dimension bound."""
    cases = {
        "full row rank": unit_example,
        "full column rank": with_edges(unit_example, *TALL),
        "rank-deficient": with_edges(unit_example, DEFICIENT),
        "GF(2) short": load_hypergraph(str(C7)),
        "GF(3) short": DET_3,
        "GF(2) and GF(3) short": DET_6,
    }
    stages = SHIFTED[stage]
    modes = [False] if stages == STAGES and shift > 0 else [False, True]
    raised = 0
    for (label, h), consistent in itertools.product(cases.items(), modes):
        expected = nullity_decomposition_reference(h)
        with monkeypatch.context() as patch:
            log = shift_stages(patch, shift, stages, consistent, at=())  # shift no call: count them
            assert nullity_decomposition(h) == expected, label
            n_calls = sum(stage_of(p) in stages for p in log)
        for at in [{k} for k in range(n_calls)] + [None]:
            with monkeypatch.context() as patch:
                shift_stages(patch, shift, stages, consistent, at)
                try:
                    found = nullity_decomposition(h)
                except ArithmeticError as exc:
                    assert "disagreement" in str(exc), label
                    raised += 1
                else:
                    assert found == expected, (label, consistent, at)
    assert raised
