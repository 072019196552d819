import random

import pytest

from hyperinc import (
    are_isomorphic,
    build_hypergraph,
    compute_units,
    dual,
    induced_subhypergraph,
    uniform_cycle,
    unit_contraction,
)
from hyperinc.errors import (
    CycleTooShort,
    DuplicateEdge,
    EmptyEdge,
    EmptySubset,
    EmptyVertexSet,
    InstanceTooLarge,
    IsolatedVertex,
    UnknownVertexInEdge,
)
from hyperinc.hypergraph import label_sort_key
from conftest import random_instance, star_edges


def brute_force_units(h):
    """Independent oracle: O(|V|^2) pairwise star comparison."""
    stars = {v: star_edges(h, v) for v in h.vertices}
    blocks = []
    for v in h.vertices:
        for block in blocks:
            if stars[block[0]] == stars[v]:
                block.append(v)
                break
        else:
            blocks.append([v])
    return {frozenset(b) for b in blocks}


class TestBuild:
    def test_unit_example_shape(self, unit_example):
        assert unit_example.n_vertices == 11
        assert unit_example.n_edges == 5
        assert unit_example.vertices == tuple(str(i) for i in range(1, 12))

    def test_edges_derived_from_masks(self, unit_example):
        assert "edges" not in type(unit_example).__slots__
        assert unit_example.edges[1] == frozenset({"1", "2", "3", "4"})
        # canonical order: numeric labels sort numerically
        assert unit_example.mask_labels(unit_example.edge_masks[2]) == ["3", "4", "10"]

    def test_minimal_hypergraph(self):
        h = build_hypergraph(["v"], [["v"]])
        assert h.n_vertices == 1 and h.n_edges == 1

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_hypergraph(["1", "2"], [["1"], ["1"]])

    def test_empty_vertex_set(self):
        with pytest.raises(EmptyVertexSet):
            build_hypergraph([], [])

    def test_empty_edge(self):
        with pytest.raises(EmptyEdge):
            build_hypergraph(["1"], [[]])

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(UnknownVertexInEdge):
            build_hypergraph(["1"], [["1", "2"]])


class TestUniformCycle:
    def test_c84_window_family(self):
        h = uniform_cycle(8, 4)
        expected = {frozenset(str((i + j) % 8) for j in range(4)) for i in range(8)}
        assert set(h.edges) == expected
        assert h.n_edges == 8
        assert all(len(e) == 4 for e in h.edges)

    def test_k2_is_cycle_graph(self):
        for n in (3, 4, 7):
            h = uniform_cycle(n, 2)
            expected = {frozenset({str(i), str((i + 1) % n)}) for i in range(n)}
            assert set(h.edges) == expected

    def test_c64(self):
        h = uniform_cycle(6, 4)
        assert h.n_edges == 6
        assert all(len(e) == 4 for e in h.edges)

    def test_too_short(self):
        with pytest.raises(CycleTooShort):
            uniform_cycle(3, 4)

    def test_full_window_collapses(self):
        # n == k: all windows coincide, set semantics leave a single edge
        h = uniform_cycle(5, 5)
        assert h.n_edges == 1
        assert h.edges[0] == frozenset(str(i) for i in range(5))


class TestStar:
    def test_unit_example_vertex_10(self, unit_example):
        names = {unit_example.edge_labels[i] for i in star_edges(unit_example, "10")}
        assert names == {"e1", "e3", "e5"}

    def test_single_edge(self):
        h = build_hypergraph(["a"], [["a"]])
        assert star_edges(h, "a") == frozenset({0})

    def test_c84_vertex_1(self):
        # oracle: enumerate the windows covering residue 1
        h = uniform_cycle(8, 4)
        windows = {i for i in range(8) if 1 in {(i + j) % 8 for j in range(4)}}
        expected = {f"e{i}" for i in windows}
        got = {h.edge_labels[i] for i in star_edges(h, "1")}
        assert got == expected == {"e0", "e1", "e6", "e7"}


class TestInduced:
    def test_seven_vertex_gives_c63(self, seven_vertex_example):
        hu, edge_map = induced_subhypergraph(seven_vertex_example, [str(i) for i in range(1, 7)])
        assert are_isomorphic(hu, uniform_cycle(6, 3)) is not None
        assert len(edge_map) == 6

    def test_full_vertex_set_identity(self, unit_example):
        hu, edge_map = induced_subhypergraph(unit_example, unit_example.vertices)
        assert set(hu.edges) == set(unit_example.edges)
        assert edge_map == {i: i for i in range(unit_example.n_edges)}

    def test_induced_cycle_example_gives_c64(self, induced_cycle_example):
        hu, _ = induced_subhypergraph(induced_cycle_example, [str(i) for i in range(1, 7)])
        assert are_isomorphic(hu, uniform_cycle(6, 4)) is not None

    def test_empty_subset(self, unit_example):
        with pytest.raises(EmptySubset):
            induced_subhypergraph(unit_example, [])

    def test_dedup_with_edge_map(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2"], ["1", "3"], ["2", "3"]])
        hu, edge_map = induced_subhypergraph(h, ["1"])
        assert hu.n_edges == 1
        assert edge_map == {0: 0, 1: 0}


class TestUnits:
    def test_unit_example_partition(self, unit_example):
        partition = compute_units(unit_example)
        members = [u.members for u in partition.units]
        assert members == [
            ("1", "2"), ("3", "4"), ("5", "6", "7"), ("8", "9"), ("10",), ("11",),
        ]
        generators = [
            sorted(unit_example.edge_labels[i] for i in u.generator)
            for u in partition.units
        ]
        assert generators == [
            ["e1", "e2"], ["e2", "e3"], ["e1", "e4"], ["e4", "e5"],
            ["e1", "e3", "e5"], ["e1", "e5"],
        ]

    def test_all_distinct_stars(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2"], ["2", "3"]])
        assert all(len(u.members) == 1 for u in compute_units(h).units)
        assert len(compute_units(h)) == h.n_vertices

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(30):
            h = random_instance(rng, max_vertices=9, max_edges=6)
            assert set(compute_units(h).member_sets()) == brute_force_units(h)


class TestContraction:
    def test_unit_example_contraction(self, unit_example):
        hc, vertex_map, edge_map = unit_contraction(unit_example)
        assert hc.n_vertices == 6
        assert hc.n_edges == 5
        assert vertex_map["5"] == vertex_map["6"] == vertex_map["7"] == "5+6+7"
        # contracted edge structure, written in terms of unit labels
        images = {
            frozenset(vertex_map[v] for v in e) for e in unit_example.edges
        }
        assert images == set(hc.edges)
        assert sorted(edge_map) == [0, 1, 2, 3, 4]

    def test_joined_label_colliding_with_a_vertex_label(self):
        # the unit {1, 2} joins to "1+2", which the singleton unit {1+2} already holds
        h = build_hypergraph(["1", "2", "1+2"], [["1", "2"], ["1+2"]])
        hc, vertex_map, _ = unit_contraction(h)
        assert vertex_map == {"1": "1+2'", "2": "1+2'", "1+2": "1+2"}
        assert set(hc.edges) == {frozenset({"1+2'"}), frozenset({"1+2"})}
        # two joins that collide with each other: {a, b+c} and {a+b, c}
        h = build_hypergraph(["a", "b+c", "a+b", "c"], [["a", "b+c"], ["a+b", "c"]])
        _, vertex_map, _ = unit_contraction(h)
        assert vertex_map == {"a": "a+b+c", "b+c": "a+b+c", "a+b": "a+b+c'", "c": "a+b+c'"}

    def test_non_contractible_isomorphic(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2"], ["2", "3"]])
        hc, _, _ = unit_contraction(h)
        assert are_isomorphic(h, hc) is not None

    def test_cycles_are_non_contractible(self):
        # oracle: stars as window sets are pairwise distinct when n > k
        for n, k in [(5, 2), (6, 3), (8, 4), (9, 3)]:
            h = uniform_cycle(n, k)
            stars = [star_edges(h, v) for v in h.vertices]
            assert len(set(stars)) == n
            hc, _, _ = unit_contraction(h)
            assert are_isomorphic(h, hc) is not None


class TestDual:
    def test_k4_dual_is_the_four_stars(self, k4_graph):
        hd, vertex_map = dual(k4_graph)
        assert hd.n_vertices == 6
        assert hd.n_edges == 4
        expected = {
            frozenset({"e1", "e3", "e4"}),
            frozenset({"e1", "e5", "e6"}),
            frozenset({"e2", "e3", "e5"}),
            frozenset({"e2", "e4", "e6"}),
        }
        assert set(hd.edges) == expected
        assert len(vertex_map) == 4

    def test_single_edge(self):
        h = build_hypergraph(["a", "b"], [["a", "b"]])
        hd, _ = dual(h)
        assert hd.n_vertices == 1 and hd.n_edges == 1

    def test_unit_example_dual(self, unit_example):
        hd, _ = dual(unit_example)
        assert hd.n_vertices == 5
        assert hd.n_edges == 6

    def test_isolated_vertex_rejected(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2"]])
        with pytest.raises(IsolatedVertex):
            dual(h)


class TestIsomorphism:
    def test_unit_example_transversal(self, unit_example):
        hu, _ = induced_subhypergraph(unit_example, ["1", "3", "5", "8", "10", "11"])
        hc, _, _ = unit_contraction(unit_example)
        mapping = are_isomorphic(hu, hc)
        assert mapping is not None
        # the witness maps edges onto edges
        for e in hu.edges:
            assert frozenset(mapping[v] for v in e) in set(hc.edges)

    def test_identity(self, unit_example):
        mapping = are_isomorphic(unit_example, unit_example)
        assert mapping is not None

    def test_different_edge_sizes(self):
        assert are_isomorphic(uniform_cycle(6, 3), uniform_cycle(6, 4)) is None

    def test_size_bound(self):
        big = uniform_cycle(13, 2)
        with pytest.raises(InstanceTooLarge):
            are_isomorphic(big, big)

    def test_non_isomorphic_same_profile(self):
        # same degree/size profiles, different structure: C6 vs two triangles
        c6 = uniform_cycle(6, 2)
        two_triangles = build_hypergraph(
            [str(i) for i in range(6)],
            [["0", "1"], ["1", "2"], ["0", "2"], ["3", "4"], ["4", "5"], ["3", "5"]],
        )
        assert are_isomorphic(c6, two_triangles) is None


# ASCII, Arabic-Indic, Devanagari and fullwidth zeros; each script's digits follow its zero
DIGIT_ZEROS = ("0", "٠", "०", "０")


class TestLabelOrder:
    @staticmethod
    def int_key(label):
        """The key as it was: decimal labels by their int() value."""
        return (0, int(label), label) if label.isdecimal() else (1, 0, label)

    def test_matches_integer_order(self):
        """Decimal labels order as their integer values, with leading zeros
        and non-ASCII digits, and words after them, as int() ordered them."""
        rng = random.Random(5)
        labels = ["a", "x10", "²", "b", "10a"]
        for _ in range(500):
            value = str(rng.choice([rng.randint(0, 30), rng.randint(0, 10 ** rng.randint(1, 40))]))
            digits = "0" * rng.choice([0, 0, 1, 3]) + value
            labels.append("".join(chr(ord(rng.choice(DIGIT_ZEROS)) + int(c)) for c in digits))
        assert len(set(map(label_sort_key, labels))) == len(set(labels))
        assert sorted(labels, key=label_sort_key) == sorted(labels, key=self.int_key)

    def test_label_longer_than_int_limit(self):
        long_label = "1" * 5000
        h = build_hypergraph([long_label, "2", "0" + long_label], [["2"]])
        # equal values fall back to the label itself, as with int()
        assert h.vertices == ("2", "0" + long_label, long_label)


def incidence_graph(h):
    """The bipartite incidence graph of ``h``, each node marked with its side."""
    networkx = pytest.importorskip("networkx")
    g = networkx.Graph()
    g.add_nodes_from((("v", v) for v in h.vertices), side="vertex")
    g.add_nodes_from((("e", i) for i in range(h.n_edges)), side="edge")
    g.add_edges_from((("v", v), ("e", i)) for i, e in enumerate(h.edges) for v in e)
    return g


def relabelled(rng, h):
    """``h`` under a random bijection onto fresh labels, edges shuffled."""
    labels = [f"x{i}" for i in rng.sample(range(100), h.n_vertices)]
    rename = dict(zip(h.vertices, labels))
    edges = [[rename[v] for v in e] for e in rng.sample(h.edges, h.n_edges)]
    return build_hypergraph(rng.sample(labels, len(labels)), edges)


def one_edge_changed(rng, h):
    """``h`` with one vertex added to or taken from one edge, or None when
    that empties the edge or repeats another."""
    i, v = rng.randrange(h.n_edges), rng.choice(h.vertices)
    edges = list(h.edges)
    edges[i] = edges[i] ^ {v}
    if not edges[i] or len(set(edges)) < len(edges):
        return None
    return build_hypergraph(h.vertices, edges)


def test_are_isomorphic_matches_networkx():
    """Against networkx's isomorphism of side-preserving bipartite incidence
    graphs, on seeded instances of up to 12 vertices: random relabellings
    (always isomorphic) and copies with one edge changed (near misses).  A
    returned mapping must carry E(h1) onto E(h2)."""
    networkx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_node_match

    same_side = categorical_node_match("side", None)
    rng = random.Random(8128)
    verdicts = {True: 0, False: 0}
    for _ in range(80):
        h1 = random_instance(rng, max_vertices=12, max_edges=10)
        for h2 in (relabelled(rng, h1), one_edge_changed(rng, h1)):
            if h2 is None:
                continue
            h2 = relabelled(rng, h2)
            expected = networkx.is_isomorphic(incidence_graph(h1), incidence_graph(h2), node_match=same_side)
            mapping = are_isomorphic(h1, h2)
            assert (mapping is not None) == expected
            if mapping is not None:
                assert sorted(mapping.values()) == sorted(h2.vertices)
                assert {frozenset(mapping[v] for v in e) for e in h1.edges} == set(h2.edges)
            verdicts[expected] += 1
    assert verdicts[True] >= 80 and verdicts[False] >= 40, verdicts
