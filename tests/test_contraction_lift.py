"""``nullity_decomposition`` against the two-elimination code it replaced.

``nullity_decomposition_reference`` below is the earlier
``nullity_decomposition``, kept as a test-only reference: it ran a proven
elimination (``proven_kernel`` now) on both B_H and the unit contraction C.
The current one eliminates only C, lifts C's kernel basis to H and proves
rank(B_H) on B_H's own rows.  Both must agree on every field, and a fault in
the lift, in the contraction's vertex map or in the modular rank of B_H must
raise.
"""

import random
from pathlib import Path

import pytest

from conftest import random_instance, with_extra_vertices
from hyperinc import build_hypergraph, kernels, linalg
from hyperinc.cli import main
from hyperinc.formats import serialize_hypergraph_text
from hyperinc.hypergraph import Hypergraph, unit_contraction
from hyperinc.kernels import NullityDecomposition, nullity_decomposition
from hyperinc.linalg import edge_vertex_incidence, proven_kernel

GOLDEN_INSTANCES = sorted((Path(__file__).resolve().parent / "golden").glob("*.txt"))


def nullity_decomposition_reference(h: Hypergraph) -> NullityDecomposition:
    """Exact rank/nullity of B_H and of the unit contraction, with identities.

    Asserts nullity(H) = nullity(contraction) + |V| - #units, equal ranks,
    nullity >= |V| - #units, rank <= #units, and, at any size, that H is
    its own contraction when every unit is one vertex.  Both ranks come from
    ``proven_kernel`` (kernel re-multiplied, rank proven by modular ranks),
    so each nullity is the column count minus the rank.
    """
    rank = len(proven_kernel(edge_vertex_incidence(h).entries, h.n_vertices)[0])
    contracted, _, _ = contraction = unit_contraction(h)
    n_units = contracted.n_vertices
    contraction_rank = len(proven_kernel(edge_vertex_incidence(contracted).entries, n_units)[0])
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


def test_matches_two_elimination_reference():
    cases = agreement_cases()
    assert any(nullity_decomposition(h).units_deficiency == 0 for _, h in cases)
    assert any(nullity_decomposition(h).contraction[0].n_edges == 0 for _, h in cases)
    for label, h in cases:
        found, expected = nullity_decomposition(h), nullity_decomposition_reference(h)
        assert found == expected, label
        assert found.contraction == expected.contraction, label


def test_one_elimination_per_contract(monkeypatch, tmp_path, capsys):
    """``contract`` eliminates the contraction alone: one fraction-free
    elimination per call, on every golden instance and every rank-dense shape.
    The reference, counted the same way, makes two."""
    rng = random.Random(26)
    paths = list(GOLDEN_INSTANCES)
    for shape in ((40, 10, 30), (46, 0, 36), (42, 20, 44)):
        path = tmp_path / f"dense_{shape[0] + shape[1]}.txt"
        path.write_text(serialize_hypergraph_text(dense_instance(rng, *shape)), encoding="utf-8")
        paths.append(path)
    calls = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: calls.append(rows) or eliminate(rows))
    for path in paths:
        calls.clear()
        assert main(["contract", str(path), "--json"]) == 0, path.name
        assert len(calls) == 1, path.name
    capsys.readouterr()
    calls.clear()
    nullity_decomposition_reference(dense_instance(rng, 42, 20, 44))
    assert len(calls) == 2


# -- the new proof is wired in ---------------------------------------------------


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
    refutes.  In the unit example the differences come first, the one lifted
    basis vector last."""
    prove = kernels._proven_rank
    seen = []

    def faulty(rows, n_cols, kernel):
        kernel = list(kernel)
        seen.append([len(v) for v in kernel])
        index = -1 if "basis" in fault else 0
        if fault.startswith("move"):
            kernel[index] = moved(unit_example, kernel[index])
        else:
            del kernel[index]
        return prove(rows, n_cols, kernel)

    assert nullity_decomposition(unit_example).contraction_nullity == 1
    monkeypatch.setattr(kernels, "_proven_rank", faulty)
    with pytest.raises(ArithmeticError, match=message):
        nullity_decomposition(unit_example)
    ((*differences, basis_vector),) = seen
    assert differences == [2] * 5 and basis_vector > 2


def test_vertex_map_merging_a_non_unit_is_caught(monkeypatch):
    """A vertex map that sends b, which shares no star with c and d, into
    their unit keeps every rank and count, so only the re-multiplication of
    e_c - e_b through B_H sees it."""
    h = build_hypergraph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
    contract = kernels.unit_contraction

    def merged(h):
        contracted, vertex_map, edge_map = contract(h)
        return contracted, {**vertex_map, "b": vertex_map["c"]}, edge_map

    assert nullity_decomposition(h).rank == 2
    monkeypatch.setattr(kernels, "unit_contraction", merged)
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        nullity_decomposition(h)


@pytest.mark.parametrize("shift", [1, -1])
def test_wrong_modular_rank_of_b_h_is_caught(monkeypatch, unit_example, shift):
    """A modular rank of B_H one too high or one too low; the contraction's,
    taken first, has fewer columns and stays right."""
    modular_rank = linalg._modular_rank
    on_h = []

    def shifted(rows, ceiling):
        on_h.append(bool(rows) and len(rows[0]) == unit_example.n_vertices)
        return modular_rank(rows, ceiling) + (shift if on_h[-1] else 0)

    monkeypatch.setattr(linalg, "_modular_rank", shifted)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        nullity_decomposition(unit_example)
    assert on_h == [False, True]
