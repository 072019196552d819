import random
from fractions import Fraction

import pytest

from hyperinc import (
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
)
from conftest import random_instance


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

    def test_instance_too_large(self):
        h = uniform_cycle(13, 2)
        with pytest.raises(InstanceTooLarge):
            find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION)

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
