import random
from fractions import Fraction

import pytest

from hyperinc import (
    EdgeWeighting,
    banerjee_weighting,
    build_hypergraph,
    column_inner_product,
    compute_units,
    custom_weighting,
    is_finer,
    matrix_equivalence,
    matvec,
    predict_class_eigenpairs,
    predict_unit_eigenpairs,
    uniform_cycle,
    unit_weighting,
    weighted_adjacency,
    RationalMatrix,
)
from hyperinc.errors import (
    GroundSetMismatch,
    InvalidParameters,
    NonSquare,
    PartitionNotFiner,
    SingletonEdgeWithBanerjeeWeight,
)
from conftest import random_instance, star_edges

UNIT_ADJACENCY = [
    [0, 2, 1, 1, 1, 1, 1, 0, 0, 1, 1],
    [2, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1],
    [1, 1, 0, 2, 0, 0, 0, 0, 0, 1, 0],
    [1, 1, 2, 0, 0, 0, 0, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 2, 2, 1, 1, 1, 1],
    [1, 1, 0, 0, 2, 0, 2, 1, 1, 1, 1],
    [1, 1, 0, 0, 2, 2, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 0, 2, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 2, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2],
    [1, 1, 0, 0, 1, 1, 1, 1, 1, 2, 0],
]

BANERJEE_ADJACENCY_TIMES_12 = [
    [0, 6, 4, 4, 2, 2, 2, 0, 0, 2, 2],
    [6, 0, 4, 4, 2, 2, 2, 0, 0, 2, 2],
    [4, 4, 0, 10, 0, 0, 0, 0, 0, 6, 0],
    [4, 4, 10, 0, 0, 0, 0, 0, 0, 6, 0],
    [2, 2, 0, 0, 0, 5, 5, 3, 3, 2, 2],
    [2, 2, 0, 0, 5, 0, 5, 3, 3, 2, 2],
    [2, 2, 0, 0, 5, 5, 0, 3, 3, 2, 2],
    [0, 0, 0, 0, 3, 3, 3, 0, 7, 4, 4],
    [0, 0, 0, 0, 3, 3, 3, 7, 0, 4, 4],
    [2, 2, 6, 6, 2, 2, 2, 4, 4, 0, 6],
    [2, 2, 0, 0, 2, 2, 2, 4, 4, 6, 0],
]


class TestWeightedAdjacency:
    def test_unit_example_unit_weights(self, unit_example):
        a = weighted_adjacency(unit_example, unit_weighting(unit_example))
        assert a.entries == [[Fraction(x) for x in row] for row in UNIT_ADJACENCY]

    def test_unit_example_banerjee(self, unit_example):
        a = weighted_adjacency(unit_example, banerjee_weighting(unit_example))
        expected = [
            [Fraction(x, 12) for x in row] for row in BANERJEE_ADJACENCY_TIMES_12
        ]
        assert a.entries == expected

    def test_never_coincident_pair(self):
        h = build_hypergraph(["1", "2", "3"], [["1", "2"], ["2", "3"]])
        a = weighted_adjacency(h, unit_weighting(h))
        assert a.entry(0, 2) == 0

    def test_symmetry_and_zero_diagonal(self, unit_example):
        a = weighted_adjacency(unit_example, banerjee_weighting(unit_example))
        assert a == a.transpose()
        assert all(a.entry(i, i) == 0 for i in range(a.rows))

    def test_banerjee_rejects_singleton_edge(self):
        h = build_hypergraph(["1", "2"], [["1"], ["1", "2"]])
        with pytest.raises(SingletonEdgeWithBanerjeeWeight):
            banerjee_weighting(h)

    def test_positive_weights_required(self, unit_example):
        for bad in (0, -1, "-1/3", Fraction(-10**40, 3)):
            with pytest.raises(InvalidParameters):
                custom_weighting(unit_example, [bad, 1, 1, 1, 1])

    def test_banerjee_builds_one_weight_per_edge_size(self, unit_example):
        w = banerjee_weighting(unit_example)
        assert w.weights == tuple(Fraction(1, len(e) - 1) for e in unit_example.edges)
        # e2 and e5 both have 4 vertices: one Fraction object serves both
        assert w.weights[1] is w.weights[4]
        assert len({id(x) for x in w.weights}) == len({len(e) for e in unit_example.edges})

    def test_float_weights_cannot_give_a_float_eigenvalue(self, unit_example):
        """0.1 and 0.2 once gave the eigenvalue -0.30000000000000004, verified."""
        for weights in ((0.1, 0.2, 1, 1, 1), (Fraction(1, 10), 0.2, 1, 1, 1)):
            with pytest.raises(InvalidParameters, match="float"):
                EdgeWeighting("custom", weights)
            with pytest.raises(InvalidParameters, match="float"):
                custom_weighting(unit_example, list(weights))
        w = EdgeWeighting("custom", ("1/10", "1/5", 1, 1, 1))
        assert all(type(x) is Fraction for x in w.weights)
        pairs = predict_unit_eigenpairs(unit_example, w)
        assert pairs and all(p.verified and type(p.eigenvalue) is Fraction for p in pairs)
        assert pairs[0].eigenvalue == -Fraction(3, 10)


class TestColumnInnerProduct:
    def test_unit_pair(self, unit_example):
        w = unit_weighting(unit_example)
        assert column_inner_product(unit_example, "1", "2", w) == 2

    def test_banerjee_pair(self, unit_example):
        w = banerjee_weighting(unit_example)
        assert column_inner_product(unit_example, "3", "4", w) == Fraction(5, 6)

    def test_self_product_is_degree(self, unit_example):
        w = unit_weighting(unit_example)
        for v in unit_example.vertices:
            assert column_inner_product(unit_example, v, v, w) == len(star_edges(unit_example, v))


class TestUnitEigenpairs:
    def test_unit_weights(self, unit_example):
        pairs = predict_unit_eigenpairs(unit_example, unit_weighting(unit_example))
        assert [p.eigenvalue for p in pairs] == [-2, -2, -2, -2]
        assert sum(p.multiplicity_lower_bound for p in pairs) == 5
        assert all(p.verified for p in pairs)

    def test_banerjee_weights(self, unit_example):
        pairs = predict_unit_eigenpairs(unit_example, banerjee_weighting(unit_example))
        by_class = {p.members: p for p in pairs}
        assert by_class[("1", "2")].eigenvalue == Fraction(-1, 2)
        assert by_class[("3", "4")].eigenvalue == Fraction(-5, 6)
        assert by_class[("5", "6", "7")].eigenvalue == Fraction(-5, 12)
        assert by_class[("5", "6", "7")].multiplicity_lower_bound == 2
        assert by_class[("8", "9")].eigenvalue == Fraction(-7, 12)
        assert all(p.verified for p in pairs)

    def test_exact_eigen_relation_recheck(self, unit_example):
        w = banerjee_weighting(unit_example)
        a = weighted_adjacency(unit_example, w)
        for p in predict_unit_eigenpairs(unit_example, w):
            for x in p.eigenvectors:
                product = matvec(a, x)
                for label in a.row_labels:
                    assert product[label] == p.eigenvalue * x.value(label)

    def test_non_contractible_gives_nothing(self):
        h = uniform_cycle(6, 3)
        assert predict_unit_eigenpairs(h, unit_weighting(h)) == []


class TestMatrixEquivalence:
    def test_triangle_fan_classes(self, triangle_fan_example):
        a = weighted_adjacency(triangle_fan_example, unit_weighting(triangle_fan_example))
        assert a.entries == [
            [0, 2, 2, 2],
            [2, 0, 1, 1],
            [2, 1, 0, 1],
            [2, 1, 1, 0],
        ]
        classes = matrix_equivalence(a)
        assert set(classes.member_sets()) == {
            frozenset({"1"}),
            frozenset({"2", "3", "4"}),
        }

    def test_distinct_diagonal_all_singletons(self):
        m = RationalMatrix(
            [[1, 0, 0], [0, 2, 0], [0, 0, 3]], ["a", "b", "c"], ["a", "b", "c"]
        )
        classes = matrix_equivalence(m)
        assert all(len(c) == 1 for c in classes.classes)

    def test_units_refine_adjacency_classes(self, unit_example):
        a = weighted_adjacency(unit_example, unit_weighting(unit_example))
        classes = matrix_equivalence(a)
        assert is_finer(compute_units(unit_example), classes)

    def test_non_square_rejected(self):
        m = RationalMatrix([[1, 0]], ["r"], ["a", "b"])
        with pytest.raises(NonSquare):
            matrix_equivalence(m)


class TestIsFiner:
    def test_singletons_finest(self):
        singletons = [{"a"}, {"b"}, {"c"}]
        assert is_finer(singletons, [{"a", "b"}, {"c"}])
        assert is_finer(singletons, [{"a", "b", "c"}])

    def test_crossing_blocks(self):
        assert not is_finer([{"1", "2"}, {"3"}], [{"1"}, {"2", "3"}])

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            is_finer([{"a"}], [{"a"}, {"b"}])


class TestClassEigenpairs:
    def test_triangle_fan_unit_weights(self, triangle_fan_example):
        pairs = predict_class_eigenpairs(
            triangle_fan_example,
            unit_weighting(triangle_fan_example),
            [{"1"}, {"2", "3", "4"}],
        )
        assert len(pairs) == 1
        assert pairs[0].eigenvalue == -1
        assert pairs[0].multiplicity_lower_bound == 2
        assert pairs[0].verified

    def test_triangle_fan_equal_custom_weights(self, triangle_fan_example):
        w = custom_weighting(triangle_fan_example, [Fraction(1, 2)] * 3)
        pairs = predict_class_eigenpairs(
            triangle_fan_example, w, [{"1"}, {"2", "3", "4"}]
        )
        assert pairs[0].eigenvalue == Fraction(-1, 2)
        # the size-normalized weighting assigns the same 1/2 to each 3-edge
        b = banerjee_weighting(triangle_fan_example)
        same = predict_class_eigenpairs(
            triangle_fan_example, b, [{"1"}, {"2", "3", "4"}]
        )
        assert same[0].eigenvalue == Fraction(-1, 2)

    def test_unit_partition_matches_unit_prediction(self, unit_example):
        w = banerjee_weighting(unit_example)
        from_units = predict_unit_eigenpairs(unit_example, w)
        from_classes = predict_class_eigenpairs(
            unit_example, w, compute_units(unit_example)
        )
        assert [(p.eigenvalue, p.members) for p in from_units] == [
            (p.eigenvalue, p.members) for p in from_classes
        ]

    def test_partition_not_finer(self, triangle_fan_example):
        with pytest.raises(PartitionNotFiner):
            predict_class_eigenpairs(
                triangle_fan_example,
                unit_weighting(triangle_fan_example),
                [{"1", "2"}, {"3", "4"}],
            )

    def test_partition_must_cover(self, triangle_fan_example):
        with pytest.raises(GroundSetMismatch):
            predict_class_eigenpairs(
                triangle_fan_example, unit_weighting(triangle_fan_example), [{"1", "2"}]
            )


class TestRandomWeightings:
    def test_units_always_refine(self):
        rng = random.Random(47)
        for _ in range(15):
            h = random_instance(rng, max_vertices=8, max_edges=6)
            for _ in range(3):
                weights = [
                    Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in h.edges
                ]
                a = weighted_adjacency(h, custom_weighting(h, weights))
                assert is_finer(compute_units(h), matrix_equivalence(a))
