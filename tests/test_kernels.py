import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperinc import (
    Hypergraph,
    build_hypergraph,
    dual_side_certificate,
    edge_vertex_incidence,
    equal_partition_certificate,
    extension_theorem_check,
    find_certificates_exhaustive,
    general_combination_certificate,
    matvec,
    nullity_decomposition,
    rank_and_nullspace,
    ratio_partition_certificate,
    root_of_unity_certificate,
    span_dimension,
    sw_subspace,
    three_set_certificate,
    uniform_cycle,
    unit_pair_certificate,
    verify_certificate,
    zeta,
    VertexVector,
)
from hyperinc import cyclotomic, kernels
from hyperinc.errors import (
    EmptySubset,
    InstanceTooLarge,
    InvalidParameters,
    OverlappingSets,
    SubsetTooSmall,
)
from hyperinc.kernels import (
    EQUAL_EDGE_PARTITION,
    EQUAL_VERTEX_PARTITION,
    RATIO_EDGE_PARTITION,
    RATIO_VERTEX_PARTITION,
    THREE_SET_RELATION,
    UNIT_PAIR,
    KernelCertificate,
)
from hyperinc.generators import random_hypergraph
from hyperinc.hypergraph import DEFAULT_ISO_BOUND
from conftest import random_instance


def count_finder_steps(monkeypatch) -> dict[str, int]:
    """Counts, while the finder runs, of the patterns ``_patterns`` yields
    and of the calls to ``_assignment`` (one per vector built), ``_spread`` and
    ``_mask_certificate``."""
    counts = dict.fromkeys(["_patterns", "_assignment", "_spread", "_mask_certificate"], 0)
    patterns = kernels._patterns

    def counting_patterns(*args):
        for pattern in patterns(*args):
            counts["_patterns"] += 1
            yield pattern

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "_patterns", counting_patterns)
    for name in ("_assignment", "_spread", "_mask_certificate"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    return counts


@pytest.fixture
def ratio_example():
    return build_hypergraph(
        ["1", "2", "3", "4", "5"], [["1", "3", "4"], ["2", "4", "5"]], ["e1", "e2"]
    )


@pytest.fixture
def three_set_example():
    return build_hypergraph(
        ["1", "2", "3", "4", "5", "6"],
        [["1", "3", "4"], ["2", "4", "5"], ["1", "3", "4", "5", "6"]],
        ["e1", "e2", "e3"],
    )


@pytest.fixture
def combination_example():
    return build_hypergraph(
        ["1", "2", "3", "4", "5", "6"],
        [["1", "5", "3", "6"], ["1", "2"], ["2", "6"], ["3", "4"], ["4", "5", "6"]],
        ["e1", "e2", "e3", "e4", "e5"],
    )


@pytest.fixture
def star_four_edges():
    """4 edges all through vertex 1; {e1,e3} vs {e2,e4} splits every star evenly."""
    return build_hypergraph(
        ["1", "2", "3", "4", "5"],
        [["1", "2", "3"], ["1", "3", "4"], ["1", "4", "5"], ["1", "5", "2"]],
        ["e1", "e2", "e3", "e4"],
    )


class TestEqualPartition:
    def test_worked_example(self, equal_partition_example):
        cert = equal_partition_certificate(equal_partition_example, ["1", "5"], ["2", "3", "4"])
        check = verify_certificate(equal_partition_example, cert)
        assert check.valid
        assert all(v == 0 for v in check.residual.values())
        assert cert.induced_vector(equal_partition_example) == VertexVector(
            {"1": 1, "5": 1, "2": -1, "3": -1, "4": -1}
        )

    def test_invalid_pair(self, equal_partition_example):
        cert = equal_partition_certificate(equal_partition_example, ["1"], ["2", "3"])
        check = verify_certificate(equal_partition_example, cert)
        assert not check.valid
        assert any(v != 0 for v in check.residual.values())

    def test_overlap_rejected(self, equal_partition_example):
        with pytest.raises(OverlappingSets):
            equal_partition_certificate(equal_partition_example, ["1", "2"], ["2", "3"])

    def test_repeated_label_rejected(self):
        # unchecked, the counting side would see "1" once and the vector twice
        h = build_hypergraph(["1", "2", "3"], [["1", "2", "3"], ["1", "2"]])
        with pytest.raises(OverlappingSets, match="'1'"):
            equal_partition_certificate(h, ["1", "1"], ["2"])
        built = KernelCertificate(
            EQUAL_EDGE_PARTITION, "B", (("U", ("1", "1")), ("V", ("2",))), (1, -1)
        )
        with pytest.raises(OverlappingSets, match="'1'"):
            verify_certificate(h, built)


class TestRatioPartition:
    def test_one_to_two(self, ratio_example):
        cert = ratio_partition_certificate(ratio_example, ["1", "2"], ["3", "4", "5"], Fraction(1, 2))
        assert verify_certificate(ratio_example, cert).valid
        # chi(U) - r chi(V) is proportional to 2 chi(U) - chi(V)
        vec = cert.induced_vector(ratio_example)
        doubled = {k: 2 * v for k, v in vec.entries.items()}
        assert doubled == {"1": 2, "2": 2, "3": -1, "4": -1, "5": -1}

    def test_violating_edge(self, ratio_example):
        cert = ratio_partition_certificate(ratio_example, ["1"], ["3", "4", "5"], Fraction(1, 2))
        check = verify_certificate(ratio_example, cert)
        assert not check.valid
        assert check.residual["e2"] != 0


class TestThreeSet:
    def test_ratio_two(self, three_set_example):
        cert = three_set_certificate(three_set_example, ["3", "4", "5"], ["6"], ["1", "2"], 2)
        assert verify_certificate(three_set_example, cert).valid
        vec = cert.induced_vector(three_set_example)
        assert vec == VertexVector({"1": 2, "2": 2, "3": -1, "4": -1, "5": -1, "6": 1})

    def test_induced_cycle_example_half(self, induced_cycle_example):
        cert = three_set_certificate(
            induced_cycle_example, ["2", "4"], ["7", "8"], ["1", "3", "5"], Fraction(1, 2)
        )
        assert verify_certificate(induced_cycle_example, cert).valid

    def test_mismatched_ratio(self, three_set_example):
        cert = three_set_certificate(three_set_example, ["3", "4", "5"], ["6"], ["1", "2"], 3)
        assert not verify_certificate(three_set_example, cert).valid

    def test_w_must_be_nonempty(self, three_set_example):
        with pytest.raises(EmptySubset):
            three_set_certificate(three_set_example, ["3"], ["6"], [], 1)


class TestGeneralCombination:
    def test_mixed_coefficients(self, combination_example):
        cert = general_combination_certificate(
            combination_example,
            [
                (["1", "6"], 1),
                (["2"], -1),
                (["4"], Fraction(1, 2)),
                (["3"], Fraction(-1, 2)),
                (["5"], Fraction(-3, 2)),
            ],
        )
        assert verify_certificate(combination_example, cert).valid

    def test_zero_coefficient_is_trivially_valid(self, combination_example):
        cert = general_combination_certificate(combination_example, [(["1", "2"], 0)])
        check = verify_certificate(combination_example, cert)
        assert check.valid
        assert cert.induced_vector(combination_example).is_zero()

    def test_empty_combination_rejected(self, combination_example):
        for parts in ([], [([], 1)], [([], 1), ([], -2)]):
            with pytest.raises(EmptySubset):
                general_combination_certificate(combination_example, parts)

    def test_unit_example_combination(self, unit_example):
        cert = general_combination_certificate(
            unit_example,
            [
                (["1", "10"], Fraction(-2, 3)),
                (["3"], Fraction(2, 3)),
                (["5"], Fraction(1, 3)),
                (["8"], Fraction(-1, 3)),
                (["11"], 1),
            ],
        )
        assert verify_certificate(unit_example, cert).valid


class TestUnitPair:
    def test_equal_stars(self, unit_example):
        cert = unit_pair_certificate(unit_example, "1", "2")
        assert verify_certificate(unit_example, cert).valid

    def test_different_stars(self, unit_example):
        cert = unit_pair_certificate(unit_example, "10", "11")
        check = verify_certificate(unit_example, cert)
        assert not check.valid
        assert check.residual["e3"] != 0

    def test_same_vertex_rejected(self, unit_example):
        with pytest.raises(InvalidParameters):
            unit_pair_certificate(unit_example, "1", "1")


class TestRootOfUnity:
    def test_c84_order_four(self):
        h = uniform_cycle(8, 4)
        cert = root_of_unity_certificate(h, 4, 1)
        check = verify_certificate(h, cert)
        assert check.valid and check.combinatorial

    def test_trivial_root_not_in_kernel(self):
        h = uniform_cycle(8, 4)
        cert = root_of_unity_certificate(h, 4, 4)
        check = verify_certificate(h, cert)
        assert not check.valid and not check.combinatorial

    def test_wrong_order_on_non_matching_cycle(self):
        h = uniform_cycle(7, 3)  # gcd(3,7) = 1: no root-of-unity kernel vectors
        cert = root_of_unity_certificate(h, 3, 1)
        check = verify_certificate(h, cert)
        assert not check.valid and not check.combinatorial

    def test_induced_vector_builds_n_terms_not_r(self, monkeypatch):
        """At order 10**6 the induced vector is built from its 12 entries, one
        term each; a table of all r powers of zeta is never built.  Entries at
        equal exponents are one object, and one number is built per distinct
        exponent, so never more than n."""

        def table(r):
            raise AssertionError(f"built a table of {r} powers")

        real = cyclotomic.CyclotomicNumber._of_terms.__func__
        built = []

        def counting(cls, order, terms):
            built.append(order)
            return real(cls, order, terms)

        monkeypatch.setattr(cyclotomic, "zeta_power_table", table)
        monkeypatch.setattr(kernels, "zeta_power_table", table)
        monkeypatch.setattr(cyclotomic.CyclotomicNumber, "_of_terms", classmethod(counting))
        h, r = uniform_cycle(12, 8), 10**6
        vector = root_of_unity_certificate(h, r, 3).induced_vector(h)
        assert {k: v._terms for k, v in vector.entries.items()} == {
            str(i): {3 * i: 1} for i in range(12)
        }
        assert all(v.order == r for v in vector.entries.values())
        assert len(built) == 12
        # order 8, power 6: exponents 6i mod 8 take the four values 0, 6, 4 and 2
        for order, power, distinct in ((8, 6, 4), (4, 4, 1), (10**6, 3, 12)):
            built.clear()
            entries = root_of_unity_certificate(h, order, power).induced_vector(h).entries
            assert len(built) == distinct <= h.n_vertices
            for i, j in itertools.combinations(range(12), 2):
                same = power * i % order == power * j % order
                assert (entries[str(i)] is entries[str(j)]) == same


class TestDualSide:
    def test_star_four_edges_equal_partition(self, star_four_edges):
        cert = dual_side_certificate(star_four_edges, ["e1", "e3"], ["e2", "e4"], 1)
        assert cert.kind == EQUAL_VERTEX_PARTITION
        assert verify_certificate(star_four_edges, cert).valid

    def test_k4_matching_ratio(self, k4_graph):
        cert = dual_side_certificate(
            k4_graph, ["e1", "e2"], ["e3", "e4", "e5", "e6"], Fraction(1, 2)
        )
        assert cert.kind == RATIO_VERTEX_PARTITION
        assert verify_certificate(k4_graph, cert).valid
        # chi(E) - r chi(F) is proportional to 2 chi(E) - chi(F)
        vec = cert.induced_vector(k4_graph)
        assert {k: 2 * v for k, v in vec.entries.items()} == {
            "e1": 2, "e2": 2, "e3": -1, "e4": -1, "e5": -1, "e6": -1,
        }

    def test_even_cycle_alternating(self):
        h = uniform_cycle(6, 2)
        odd = [f"e{i}" for i in range(6) if i % 2 == 1]
        even = [f"e{i}" for i in range(6) if i % 2 == 0]
        cert = dual_side_certificate(h, odd, even, 1)
        assert verify_certificate(h, cert).valid

    def test_invalid_split(self, k4_graph):
        cert = dual_side_certificate(k4_graph, ["e1"], ["e2"], 1)
        assert not verify_certificate(k4_graph, cert).valid

    def test_repeated_edge_rejected(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2", "3"], ["1", "2"]])
        with pytest.raises(OverlappingSets, match="'e1'"):
            dual_side_certificate(h, ["e1", "e1"], ["e2"], 1)


class TestSWSubspace:
    def test_unit_of_size_three(self, unit_example):
        report = sw_subspace(unit_example, ["5", "6", "7"])
        assert report.contained_in_kernel
        assert report.maximal
        assert len(report.subspace.basis) == 2
        b = edge_vertex_incidence(unit_example)
        for vec in report.subspace.basis:
            assert all(v == 0 for v in matvec(b, vec).values())

    def test_contained_but_not_maximal(self, unit_example):
        report = sw_subspace(unit_example, ["5", "6"])
        assert report.contained_in_kernel
        assert not report.maximal

    def test_not_contained(self, unit_example):
        report = sw_subspace(unit_example, ["1", "3"])
        assert not report.contained_in_kernel

    def test_too_small(self, unit_example):
        with pytest.raises(SubsetTooSmall):
            sw_subspace(unit_example, ["5"])

    def test_repeated_label_rejected(self, unit_example):
        with pytest.raises(OverlappingSets, match="'5'"):
            sw_subspace(unit_example, ["5", "5"])

    def test_basis_shape(self, unit_example):
        report = sw_subspace(unit_example, ["8", "9"])
        (vec,) = report.subspace.basis
        assert sum(vec.entries.values()) == 0
        assert vec.support() <= {"8", "9"}


class TestNullityDecomposition:
    def test_unit_example(self, unit_example):
        d = nullity_decomposition(unit_example)
        assert d.rank == 5 and d.contraction_rank == 5
        assert d.nullity == 6
        assert d.contraction_nullity == 1
        assert d.units_deficiency == 5
        assert d.nullity == d.contraction_nullity + d.units_deficiency

    def test_non_contractible(self):
        h = uniform_cycle(6, 3)
        d = nullity_decomposition(h)
        assert d.units_deficiency == 0
        assert d.nullity == d.contraction_nullity

    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            h = random_instance(rng, max_vertices=9, max_edges=7)
            d = nullity_decomposition(h)
            assert d.nullity == d.contraction_nullity + d.units_deficiency
            assert d.rank == d.contraction_rank

    def test_non_contractible_instance_is_its_own_contraction(self, monkeypatch):
        """With every unit one vertex, a contraction other than H itself is
        caught at every size: on the 6-cycle and on the 13-cycle, which
        ``are_isomorphic`` refuses.  Moving each edge label one edge on keeps
        every rank, so only that check sees it."""
        contract = kernels.unit_contraction

        def shifted(h):
            contracted, vertex_map, edge_map = contract(h)
            edges = contracted.edges[1:] + contracted.edges[:1]
            return Hypergraph(contracted.vertices, edges, contracted.edge_labels), vertex_map, edge_map

        assert uniform_cycle(13, 2).n_vertices > DEFAULT_ISO_BOUND
        for h in (uniform_cycle(6, 3), uniform_cycle(13, 2)):
            assert nullity_decomposition(h).contraction == contract(h)
            monkeypatch.setattr(kernels, "unit_contraction", shifted)
            with pytest.raises(ArithmeticError, match="not its own contraction"):
                nullity_decomposition(h)
            monkeypatch.undo()


class TestExtension:
    def test_induced_cycle_example(self, induced_cycle_example):
        assert extension_theorem_check(induced_cycle_example, [str(i) for i in range(1, 7)])
        # the alternating vector extends into the kernel
        y = VertexVector({str(i): Fraction((-1) ** i) for i in range(1, 7)})
        b = edge_vertex_incidence(induced_cycle_example)
        assert all(v == 0 for v in matvec(b, y).values())

    def test_full_set_trivial(self, unit_example):
        assert extension_theorem_check(unit_example, unit_example.vertices)

    def test_empty_subset(self, unit_example):
        with pytest.raises(EmptySubset):
            extension_theorem_check(unit_example, [])

    def test_cycle_induced_nullity_bound(self, induced_cycle_example, seven_vertex_example):
        # induced C_6^4 (gcd 2) forces nullity >= 1; induced C_6^3 (gcd 3) >= 2
        assert rank_and_nullspace(edge_vertex_incidence(induced_cycle_example)).nullity >= 1
        assert rank_and_nullspace(edge_vertex_incidence(seven_vertex_example)).nullity >= 2

    def test_cyclotomic_extension(self, seven_vertex_example):
        # third-root-of-unity vector on the induced 3-uniform 6-cycle, extended
        y = VertexVector({str(j): zeta(3, j % 3) for j in range(1, 7)})
        b = edge_vertex_incidence(seven_vertex_example)
        assert all(v == 0 for v in matvec(b, y).values())


class TestFinder:
    def test_equal_partition_example(self, equal_partition_example):
        certs = find_certificates_exhaustive(equal_partition_example, EQUAL_EDGE_PARTITION)
        found = {
            (frozenset(c.named_set("U")), frozenset(c.named_set("V"))) for c in certs
        }
        assert (frozenset({"1", "5"}), frozenset({"2", "3", "4"})) in found

    def test_single_edge(self):
        h = build_hypergraph(["a", "b"], [["a", "b"]])
        certs = find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION)
        found = {
            (frozenset(c.named_set("U")), frozenset(c.named_set("V"))) for c in certs
        }
        assert (frozenset({"a"}), frozenset({"b"})) in found

    def test_k4_ratio_vertex_partition(self, k4_graph):
        certs = find_certificates_exhaustive(k4_graph, RATIO_VERTEX_PARTITION)
        matching = frozenset({"e1", "e2"})
        complement = frozenset({"e3", "e4", "e5", "e6"})
        hits = [
            c
            for c in certs
            if frozenset(c.named_set("E")) == matching
            and frozenset(c.named_set("F")) == complement
        ]
        assert len(hits) == 1
        assert hits[0].ratio == Fraction(1, 2)

    def test_unit_pair_finder(self, unit_example):
        certs = find_certificates_exhaustive(unit_example, UNIT_PAIR)
        # 1 + 1 + 3 + 1 pairs inside the four multi-vertex units
        assert len(certs) == 6
        for c in certs:
            assert verify_certificate(unit_example, c).valid

    def test_three_set_finder(self, three_set_example):
        certs = find_certificates_exhaustive(three_set_example, THREE_SET_RELATION)
        hits = [
            c
            for c in certs
            if frozenset(c.named_set("W")) == frozenset({"1", "2"})
            and frozenset(c.named_set("U")) == frozenset({"3", "4", "5"})
            and frozenset(c.named_set("V")) == frozenset({"6"})
        ]
        assert len(hits) == 1 and hits[0].ratio == 2

    def test_found_vectors_live_in_kernel(self, equal_partition_example):
        ns = rank_and_nullspace(edge_vertex_incidence(equal_partition_example))
        base_dim = span_dimension(ns.vectors)
        for kind in (EQUAL_EDGE_PARTITION, RATIO_EDGE_PARTITION):
            for cert in find_certificates_exhaustive(equal_partition_example, kind):
                vec = cert.induced_vector(equal_partition_example)
                assert span_dimension(list(ns.vectors) + [vec]) == base_dim

    def test_instance_too_large(self, monkeypatch):
        """Each family is refused before it is built, shown by counting the
        finder's steps: the r = 0 choices of 2^58 - 1 sets V beside the
        zero vector, a three-set spread over 11 zero columns (4^11),
        C(1500, 2) unit pairs, the output of a unit of 600 twins, and a walk
        of 3^10 patterns with one cell per pivot for each of them."""
        counts = count_finder_steps(monkeypatch)
        path = build_hypergraph(
            [str(i) for i in range(1, 61)], [[str(i), str(i + 1)] for i in range(1, 59)]
        )  # vertex 60 is isolated; 58 pivots and one free column, walked once
        # the first pattern, all zero, is built at r = 1; at r = 0 each of its
        # 58 pivots may take V, and those choices are refused before any is built
        with pytest.raises(InstanceTooLarge, match=f"at least {3 * 58 + 2**58 - 1} counted"):
            find_certificates_exhaustive(path, RATIO_EDGE_PARTITION)
        assert counts == {"_patterns": 1, "_assignment": 1, "_spread": 0, "_mask_certificate": 0}

        counts.update(dict.fromkeys(counts, 0))
        one_edge = build_hypergraph([str(i) for i in range(13)], [["0", "1"]])
        with pytest.raises(InstanceTooLarge):
            find_certificates_exhaustive(one_edge, THREE_SET_RELATION)
        assert counts["_spread"] == 0 and counts["_patterns"] == 4

        counts.update(dict.fromkeys(counts, 0))
        assert math.comb(1500, 2) > kernels.FINDER_BOUND
        with pytest.raises(InstanceTooLarge, match="over the finder bound"):
            find_certificates_exhaustive(build_hypergraph([str(i) for i in range(1500)], []), UNIT_PAIR)
        assert counts["_mask_certificate"] == 0

        # 600 twins in 40 edges: C(600, 2) pairs pass the finder bound, but
        # checking each reads 640 columns and 2 * 40 rows, over the output bound
        twins = [f"t{i}" for i in range(600)]
        unit = build_hypergraph(twins + [f"p{i}" for i in range(40)], [twins + [f"p{i}"] for i in range(40)])
        cells = math.comb(600, 2) * (640 + 2 * 40)
        assert math.comb(600, 2) <= kernels.FINDER_BOUND and kernels.OUTPUT_BOUND < cells
        with pytest.raises(InstanceTooLarge, match=f"takes {cells} incidence cells"):
            find_certificates_exhaustive(unit, UNIT_PAIR)
        assert counts["_mask_certificate"] == 0

        # 80 edges on 30 vertices, and a twin for each of ten of them
        base = random_hypergraph(30, 80, None, random.Random(20))
        twin = {str(i): str(i + 30) for i in range(1, 11)}
        tall = build_hypergraph(
            [str(i) for i in range(1, 41)], [e | {twin[v] for v in e if v in twin} for e in base.edges]
        )
        ns = rank_and_nullspace(edge_vertex_incidence(tall))
        assert (ns.rank, ns.nullity) == (30, 10)
        assert 3**10 < kernels.FINDER_BOUND < 3**10 * 30
        with pytest.raises(InstanceTooLarge, match=f"at least {3**10 * 30} counted"):
            find_certificates_exhaustive(tall, EQUAL_EDGE_PARTITION)
        assert counts["_patterns"] == 0

    def test_output_cells_counted_before_certificates(self, monkeypatch, ratio_example):
        """Per certificate, one cell per column and one per row and element
        of its sets: admitted at that count, refused one below it before a
        certificate is built."""
        found = find_certificates_exhaustive(ratio_example, RATIO_EDGE_PARTITION)
        rows, columns = ratio_example.n_edges, ratio_example.n_vertices
        cells = sum(columns + rows * (len(c.named_set("U")) + len(c.named_set("V"))) for c in found)
        assert found and cells > 0
        monkeypatch.setattr(kernels, "OUTPUT_BOUND", cells)
        assert find_certificates_exhaustive(ratio_example, RATIO_EDGE_PARTITION) == found
        monkeypatch.setattr(kernels, "OUTPUT_BOUND", cells - 1)
        built = []
        monkeypatch.setattr(kernels, "_mask_certificate", lambda *args: built.append(args))
        with pytest.raises(InstanceTooLarge, match=f"takes {cells} incidence cells"):
            find_certificates_exhaustive(ratio_example, RATIO_EDGE_PARTITION)
        assert built == []

    def test_searches_the_old_cap_admitted_are_admitted(self, monkeypatch):
        """The edgeless 10-vertex three-set search counts 4^10 - 1 (one empty
        core spread over ten zero columns) and the edgeless 12-vertex pair
        searches 3^12 - 1; one edge through all of 10 vertices counts its walk
        (4^9 patterns, one pivot) and one more choice for each pattern whose
        pivot two symbols take: at r = 0 (|U| = |V|, unused or W) and at
        r = 1 and -1 (|U| = |V| + |W| + 1, V or W, and the mirror, U or W).
        Each is admitted at its count and refused one below it.  The spread,
        after the last charge, is stubbed out, so the searches never run; their
        outputs, 437,250 three-set and 261,625 pair certificates of at most
        10 or 12 elements, are within the output bound."""
        bound = kernels.FINDER_BOUND

        def reached(*args):
            raise RuntimeError("reached")

        def multinomial(*parts):  # of the nine free columns
            return math.factorial(9) // math.prod(math.factorial(p) for p in (*parts, 9 - sum(parts)))

        ties = sum(
            multinomial(u, v, w) * ((u == v > 0) + (u == v + w + 1) + (v == u + w + 1))
            for u, v, w in itertools.product(range(10), repeat=3)
            if u + v + w <= 9
        )
        assert 4**9 + ties == 345_550
        ten = [str(i) for i in range(10)]
        for h, kind, work in [
            (build_hypergraph(ten, []), THREE_SET_RELATION, 4**10 - 1),
            (build_hypergraph([str(i) for i in range(12)], []), EQUAL_EDGE_PARTITION, 3**12 - 1),
            (build_hypergraph([str(i) for i in range(12)], []), RATIO_EDGE_PARTITION, 3**12 - 1),
            (build_hypergraph(ten, [ten]), THREE_SET_RELATION, 4**9 + ties),
        ]:
            monkeypatch.setattr(kernels, "_spread", reached)
            monkeypatch.setattr(kernels, "FINDER_BOUND", bound)
            with pytest.raises(RuntimeError, match="reached"):
                find_certificates_exhaustive(h, kind)
            monkeypatch.setattr(kernels, "FINDER_BOUND", work - 1)
            with pytest.raises(InstanceTooLarge, match=f"at least {work} counted"):
                find_certificates_exhaustive(h, kind)
            monkeypatch.undo()
        assert 437_250 * (10 + 1 * 10) <= kernels.OUTPUT_BOUND
        assert 261_625 * 12 <= kernels.OUTPUT_BOUND

    def test_unsupported_kind(self, equal_partition_example):
        with pytest.raises(InvalidParameters):
            find_certificates_exhaustive(equal_partition_example, "general_combination")


class TestMonotoneSpecialization:
    def test_equal_is_ratio_is_combination(self, equal_partition_example):
        h = equal_partition_example
        u, v = ["1", "5"], ["2", "3", "4"]
        as_equal = equal_partition_certificate(h, u, v)
        as_ratio = ratio_partition_certificate(h, u, v, 1)
        as_combination = general_combination_certificate(h, [(u, 1), (v, -1)])
        checks = [verify_certificate(h, c) for c in (as_equal, as_ratio, as_combination)]
        assert all(c.valid for c in checks)
        vecs = {tuple(sorted(c.induced_vector(h).entries.items())) for c in (as_equal, as_ratio, as_combination)}
        assert len(vecs) == 1
