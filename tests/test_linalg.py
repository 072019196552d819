import random
from fractions import Fraction

import pytest

from hyperinc import (
    RationalMatrix,
    VertexVector,
    build_hypergraph,
    edge_vertex_incidence,
    matvec,
    rank_and_nullspace,
    rank_modular_oracle,
    span_dimension,
    uniform_cycle,
    vertex_edge_incidence,
)
from hyperinc import linalg
from hyperinc.errors import DimensionMismatch, InvalidParameters, NonIntegerEntries
from conftest import random_instance

# rows e1..e5 over columns 1..11
UNIT_EXAMPLE_B = [
    [1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
]


class TestIncidence:
    def test_unit_example_matrix(self, unit_example):
        b = edge_vertex_incidence(unit_example)
        assert b.row_labels == ("e1", "e2", "e3", "e4", "e5")
        assert b.col_labels == tuple(str(i) for i in range(1, 12))
        assert b.entries == [[Fraction(x) for x in row] for row in UNIT_EXAMPLE_B]

    def test_single_vertex_loop(self):
        h = build_hypergraph(["v"], [["v"]])
        b = edge_vertex_incidence(h)
        assert b.entries == [[Fraction(1)]]

    def test_triangle_fan_rows(self, triangle_fan_example):
        b = edge_vertex_incidence(triangle_fan_example)
        assert b.entries == [
            [1, 1, 1, 0],
            [1, 0, 1, 1],
            [1, 1, 0, 1],
        ]

    def test_transpose_relation(self, unit_example):
        b = edge_vertex_incidence(unit_example)
        i = vertex_edge_incidence(unit_example)
        assert i.row_labels == b.col_labels
        assert i.col_labels == b.row_labels
        for r in range(b.rows):
            for c in range(b.cols):
                assert b.entry(r, c) == i.entry(c, r)

    def test_c42_transpose(self):
        h = uniform_cycle(4, 2)
        i = vertex_edge_incidence(h)
        # oracle: vertex v lies in the windows starting at v-1 and v
        for vi, v in enumerate(i.row_labels):
            incident = {f"e{(int(v) - 1) % 4}", f"e{int(v)}"}
            row = {i.col_labels[c] for c in range(4) if i.entry(vi, c) == 1}
            assert row == incident


class TestLabels:
    @pytest.mark.parametrize(
        "entries, rows, cols",
        [([[1], [2]], [1, "1"], ["a"]), ([[1, 2]], ["r"], [1, "1"])],
        ids=["rows", "columns"],
    )
    def test_labels_unique_once_converted_to_str(self, entries, rows, cols):
        """1 and "1" are both "1": a row would be dropped by ``matvec``, and
        a kernel vector of two columns would read as one."""
        with pytest.raises(InvalidParameters, match="unique"):
            RationalMatrix(entries, rows, cols)


class TestRankNullspace:
    def test_unit_example(self, unit_example):
        ns = rank_and_nullspace(edge_vertex_incidence(unit_example))
        assert ns.rank == 5
        assert ns.nullity == 6

    def test_odd_cycle_full_rank(self):
        ns = rank_and_nullspace(edge_vertex_incidence(uniform_cycle(5, 2)))
        assert ns.rank == 5
        assert ns.nullity == 0

    def test_duplicate_column(self):
        m = RationalMatrix([[1, 1, 0], [0, 0, 1]], ["r1", "r2"], ["a", "b", "c"])
        ns = rank_and_nullspace(m)
        assert ns.nullity == 1
        # the shared column pair gives the difference vector
        assert ns.vectors[0] == VertexVector({"a": -1, "b": 1})

    def test_zero_row_matrix(self):
        m = RationalMatrix([], [], ["a", "b"])
        ns = rank_and_nullspace(m)
        assert ns.rank == 0
        assert ns.nullity == 2

    def test_basis_remultiplies_to_zero(self, unit_example):
        for matrix in (
            edge_vertex_incidence(unit_example),
            vertex_edge_incidence(unit_example),
        ):
            ns = rank_and_nullspace(matrix)
            for v in ns.vectors:
                assert all(val == 0 for val in matvec(matrix, v).values())

    def test_rational_entries(self):
        m = RationalMatrix(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]],
            ["r1", "r2"],
            ["x", "y"],
        )
        assert rank_and_nullspace(m).rank == 2
        singular = RationalMatrix(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]],
            ["r1", "r2"],
            ["x", "y"],
        )
        ns = rank_and_nullspace(singular)
        assert ns.rank == 1
        assert ns.vectors[0] == VertexVector({"x": Fraction(-2, 3), "y": 1})


class TestModularOracle:
    def test_unit_example(self, unit_example):
        assert rank_modular_oracle(edge_vertex_incidence(unit_example)) == 5

    def test_one_by_one(self):
        m = RationalMatrix([[1]], ["r"], ["c"])
        assert rank_modular_oracle(m) == 1

    def test_c64(self):
        b = edge_vertex_incidence(uniform_cycle(6, 4))
        assert rank_modular_oracle(b) == 5
        assert rank_and_nullspace(b).rank == 5

    def test_rejects_fractions(self):
        m = RationalMatrix([[Fraction(1, 2)]], ["r"], ["c"])
        with pytest.raises(NonIntegerEntries):
            rank_modular_oracle(m)

    def test_matches_rational_rank_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            h = random_instance(rng, max_vertices=9, max_edges=7)
            b = edge_vertex_incidence(h)
            assert rank_modular_oracle(b) == rank_and_nullspace(b).rank

    def test_matches_sympy_on_large_entries(self):
        """X * diag(d) * Y with d drawn from products of the first primes
        above 2**20, so single primes often fall short, and plain random
        matrices with entries up to 10**12."""
        sympy = pytest.importorskip("sympy")
        p = [linalg._prime(i) for i in range(3)]
        diagonal = [1, p[0], p[0] * p[1], p[0] * p[1] * p[2], p[1] ** 2, 0]
        rng = random.Random(4177)
        cases = [[[1, 1], [1, 1 + p[0]]], [[1, 1], [1, 1 + p[0] * p[1]]]]
        for _ in range(30):
            n, k, c = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 6)
            x = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            d = [rng.choice(diagonal) for _ in range(k)]
            y = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            cases.append(
                [[sum(x[i][t] * d[t] * y[t][j] for t in range(k)) for j in range(c)] for i in range(n)]
            )
            cases.append([[rng.randint(-(10**12), 10**12) for _ in range(c)] for _ in range(n)])
        deficient = 0
        for rows in cases:
            expected = sympy.Matrix(rows).rank()
            deficient += expected < min(len(rows), len(rows[0]))
            rlabels = [f"r{i}" for i in range(len(rows))]
            m = RationalMatrix(rows, rlabels, [f"c{j}" for j in range(len(rows[0]))])
            assert rank_modular_oracle(m) == expected, rows
            assert rank_and_nullspace(m).rank == expected, rows
        assert deficient


class TestMatvec:
    def test_alternating_kernel_vector_c64(self):
        h = uniform_cycle(6, 4)
        y = VertexVector({str(i): Fraction((-1) ** i) for i in range(6)})
        assert all(v == 0 for v in matvec(edge_vertex_incidence(h), y).values())

    def test_zero_vector(self, unit_example):
        b = edge_vertex_incidence(unit_example)
        product = matvec(b, VertexVector({}))
        assert set(product) == set(b.row_labels)
        assert all(v == 0 for v in product.values())

    def test_mixed_coefficient_kernel_vector(self):
        h = build_hypergraph(
            ["1", "2", "3", "4", "5", "6"],
            [["1", "5", "3", "6"], ["1", "2"], ["2", "6"], ["3", "4"], ["4", "5", "6"]],
        )
        y = VertexVector(
            {
                "1": Fraction(1),
                "2": Fraction(-1),
                "3": Fraction(-1, 2),
                "4": Fraction(1, 2),
                "5": Fraction(-3, 2),
                "6": Fraction(1),
            }
        )
        assert all(v == 0 for v in matvec(edge_vertex_incidence(h), y).values())

    def test_support_outside_columns(self, unit_example):
        b = edge_vertex_incidence(unit_example)
        with pytest.raises(DimensionMismatch):
            matvec(b, VertexVector({"99": 1}))


class TestSpanDimension:
    def test_independent_pair(self):
        v1 = VertexVector({"a": 1, "b": -1})
        v2 = VertexVector({"b": 1, "c": -1})
        assert span_dimension([v1, v2]) == 2

    def test_dependent_triple(self):
        v1 = VertexVector({"a": 1, "b": -1})
        v2 = VertexVector({"b": 1, "c": -1})
        v3 = VertexVector({"a": 1, "c": -1})
        assert span_dimension([v1, v2, v3]) == 2

    def test_empty(self):
        assert span_dimension([]) == 0
