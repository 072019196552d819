"""The support-only ``matvec`` checked against the dense one it replaced.

``reference_matvec`` is the earlier dense product, kept verbatim: it scans
every column of every row by label.  ``linalg.matvec`` reads each row only at
the vector's non-zero support.  On seeded 0/1 and rational matrices, with
rational, cyclotomic and mixed vectors (some with explicit zeros), both must
give the same keys in the same order, equal values and identical ``str()``
for every entry.  The reference runs on the matrix as it used to be built,
with every cell a ``Fraction``.  Incidence matrices keep their rows as
bitmasks; their product must also match the same matrix built from dense rows.
"""

import random
from fractions import Fraction

import pytest

from hyperinc import (
    Hypergraph,
    VertexVector,
    edge_vertex_incidence,
    uniform_cycle,
    vertex_edge_incidence,
)
from hyperinc.cyclotomic import CyclotomicNumber, root_of_unity_vector, zeta
from hyperinc.errors import DimensionMismatch, InvalidParameters
from hyperinc.linalg import _ZERO, RationalMatrix, matvec

from conftest import random_instance


def reference_matvec(m: RationalMatrix, x) -> dict[str, object]:
    """Exact matrix-vector product, keyed by row labels.

    ``x`` may be a ``VertexVector`` or a plain mapping; its support must be
    covered by the column labels.  Entries may be rational or cyclotomic; the
    result lives in whichever scalar domain the inputs span.
    """
    entries = x.entries if isinstance(x, VertexVector) else {str(k): v for k, v in x.items()}
    col_set = set(m.col_labels)
    outside = [k for k, v in entries.items() if v != 0 and k not in col_set]
    if outside:
        raise DimensionMismatch(f"vector support outside matrix columns: {sorted(outside)}")
    result: dict[str, object] = {}
    for i, rlabel in enumerate(m.row_labels):
        row = m.entries[i]
        total = Fraction(0)
        for j, clabel in enumerate(m.col_labels):
            coeff = row[j]
            if coeff == 0:
                continue
            val = entries.get(clabel, 0)
            if val == 0:
                continue
            total = total + coeff * val if coeff != 1 else total + val
        result[rlabel] = total
    return result


def as_fraction_matrix(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(
        [[Fraction(x) for x in row] for row in m.entries], m.row_labels, m.col_labels
    )


def random_rational_matrix(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    pool = [0, 0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    entries = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
    return RationalMatrix(
        entries, [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]
    )


def random_scalar(rng, order):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return zeta(order, rng.randrange(order))
    return CyclotomicNumber(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)])


def random_vector(rng, labels, domain):
    """A vector over some of ``labels``: rational, cyclotomic or mixed, as a
    ``VertexVector`` or as a plain mapping that may keep explicit zeros."""
    order = rng.choice([3, 4, 5, 6, 12])
    chosen = rng.sample(labels, rng.randint(0, len(labels)))
    entries = {}
    for k in chosen:
        if domain == "rational":
            entries[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        elif domain == "cyclotomic":
            entries[k] = zeta(order, rng.randrange(order)) * rng.randint(-2, 2)
        else:
            entries[k] = random_scalar(rng, order)
    if rng.random() < 0.5:
        return VertexVector(entries)
    for k in rng.sample(labels, rng.randint(0, len(labels))):
        if rng.random() < 0.3:
            entries[k] = rng.choice([0, Fraction(0), CyclotomicNumber(order, [])])
    if rng.random() < 0.3:
        entries["not-a-column"] = Fraction(0)  # an explicit zero off the columns is allowed
    return entries


def assert_same_product(m, x):
    expected = reference_matvec(as_fraction_matrix(m), x)
    got = matvec(m, x)
    assert list(got) == list(expected)
    for k, value in expected.items():
        assert got[k] == value
        assert str(got[k]) == str(value)
        assert type(got[k]) is type(value)


def test_agrees_with_dense_reference_on_seeded_cases():
    rng = random.Random(20261018)
    cases = 0
    for _ in range(60):
        h = random_instance(rng, max_vertices=9, max_edges=8)
        matrices = [edge_vertex_incidence(h), vertex_edge_incidence(h), random_rational_matrix(rng)]
        for m in matrices:
            for domain in ("rational", "cyclotomic", "mixed"):
                assert_same_product(m, random_vector(rng, list(m.col_labels), domain))
                cases += 1
    assert cases >= 200


def test_zero_and_empty_vectors():
    m = random_rational_matrix(random.Random(1))
    for x in ({}, VertexVector({}), {c: 0 for c in m.col_labels}):
        assert_same_product(m, x)
        assert all(type(v) is Fraction and v == 0 for v in matvec(m, x).values())


def test_incidence_cells_are_ints():
    h = random_instance(random.Random(3))
    for m in (edge_vertex_incidence(h), vertex_edge_incidence(h)):
        assert all(type(x) is int and x in (0, 1) for row in m.entries for x in row)


def test_matrix_keeps_ints_and_fractions_and_converts_the_rest():
    """Fraction strings are converted; a float or a bool is refused, not converted."""
    half = Fraction(1, 2)
    m = RationalMatrix([[1, half, "3/4", " -5/2 "]], ["r"], list("abcd"))
    (row,) = m.entries
    assert row[0] == 1 and type(row[0]) is int
    assert row[1] is half
    assert [type(x) for x in row[2:]] == [Fraction] * 2
    assert row[2:] == [Fraction(3, 4), Fraction(-5, 2)]
    for bad in (2.5, True):
        with pytest.raises(InvalidParameters, match=type(bad).__name__):
            RationalMatrix([[1, bad]], ["r"], list("ab"))


@pytest.mark.parametrize("x", [{"z": 1}, VertexVector({"a": 1, "z": Fraction(-1, 2)})])
def test_support_outside_columns_raises(x):
    m = RationalMatrix([[1, 0], [0, 1]], ["r1", "r2"], ["a", "b"])
    with pytest.raises(DimensionMismatch):
        reference_matvec(m, x)
    with pytest.raises(DimensionMismatch):
        matvec(m, x)


def test_rational_vector_on_mixed_int_and_fraction_cells():
    """The integer-sum path: int and Fraction cells in one row, against a vector
    mixing ints, Fractions with different denominators and a zero."""
    m = RationalMatrix(
        [[1, Fraction(1, 2), 0, -3], [Fraction(-2, 3), 2, 1, 0], [0, 0, 0, 0]],
        ["r1", "r2", "r3"],
        list("abcd"),
    )
    for x in (
        {"a": 2, "b": Fraction(-3, 4), "c": 0, "d": Fraction(5, 6)},
        VertexVector({"a": Fraction(1, 3), "b": Fraction(2, 3), "d": 7}),
        {"b": Fraction(4, 2), "c": -1},
    ):
        assert_same_product(m, x)


def dense_copy(m: RationalMatrix) -> RationalMatrix:
    """The same cells, built from dense rows."""
    return RationalMatrix([list(row) for row in m.entries], m.row_labels, m.col_labels)


def test_mask_rows_agree_with_dense_rows_and_reference():
    """Both incidence matrices, read off their masks, against the reference and
    against the dense product on the same cells; instances with isolated
    vertices, vectors with denominators, cyclotomic, mixed and explicit zeros."""
    rng = random.Random(22003)
    cases = 0
    instances = [random_instance(rng, max_vertices=12, max_edges=10) for _ in range(60)]
    instances.append(Hypergraph(["1", "2", "3", "4", "5"], [["1", "2"], ["2", "3"]]))
    assert any(0 in h.star_masks for h in instances)  # isolated vertices
    for h in instances:
        for m in (edge_vertex_incidence(h), vertex_edge_incidence(h)):
            assert m._masks is not None
            dense = dense_copy(m)
            for domain in ("rational", "cyclotomic", "mixed"):
                x = random_vector(rng, list(m.col_labels), domain)
                assert_same_product(m, x)
                got, expected = matvec(m, x), matvec(dense, x)
                assert list(got) == list(expected)
                assert [str(v) for v in got.values()] == [str(v) for v in expected.values()]
                cases += 1
            for x in ({}, VertexVector({}), {c: 0 for c in m.col_labels}):
                assert_same_product(m, x)
    assert cases >= 300


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j])
def test_inexact_entries_raise_on_both_row_forms(bad):
    """A float once slipped through the generic branch and gave a float residual."""
    h = Hypergraph(["1", "2", "3"], [["1", "2", "3"]])
    mask = edge_vertex_incidence(h)
    for m in (mask, dense_copy(mask)):
        with pytest.raises(InvalidParameters, match="'2'"):
            matvec(m, {"1": Fraction(1, 10), "2": bad, "3": -0.3})
        with pytest.raises(InvalidParameters):
            matvec(m, VertexVector({"1": zeta(3, 1), "3": bad}))
        # an explicit zero is dropped before it is multiplied, whatever its type
        assert matvec(m, {"1": 1, "2": 0.0, "3": -1}) == {"e1": Fraction(0)}


# -- one terms map per cyclotomic row ---------------------------------------------


def both_row_forms(entries, cols):
    """The same 0/1 cells as a mask-backed incidence matrix and as dense rows."""
    h = Hypergraph(cols, [[c for c, x in zip(cols, row) if x] for row in entries])
    mask = edge_vertex_incidence(h)
    return mask, dense_copy(mask)


def test_row_that_cancels_is_a_zero_number():
    for m in both_row_forms([[1, 1, 0], [0, 1, 1]], ["a", "b", "c"]):
        x = {"a": zeta(5, 2), "b": -zeta(5, 2), "c": zeta(5, 1)}
        assert_same_product(m, x)
        got = matvec(m, x)["e1"]
        assert type(got) is CyclotomicNumber and got.is_zero() and str(got) == "Cyc(0)"


def test_fraction_coefficients_that_sum_to_integers():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for m in both_row_forms([[1, 1, 1]], ["a", "b", "c"]):
        x = {
            "a": CyclotomicNumber(6, [half, third, 0, Fraction(1, 4)]),
            "b": CyclotomicNumber(6, [half, 2 * third]),
            "c": Fraction(3, 4) * zeta(6, 3),
        }
        assert_same_product(m, x)
        got = matvec(m, x)["e1"]
        # whole sums are stored as ints, as the pairwise adds left them
        assert got._terms == {0: 1, 1: 1, 3: 1} and {type(c) for c in got._terms.values()} == {int}


def error_of(f, *args):
    with pytest.raises(InvalidParameters) as caught:
        f(*args)
    return str(caught.value)


def test_mixed_orders_in_one_row_raise_the_same_error():
    for m in both_row_forms([[1, 0, 0, 0], [1, 1, 1, 1]], list("abcd")):
        x = {"a": zeta(3, 1), "b": Fraction(1, 2), "c": zeta(3, 2), "d": zeta(5, 1)}
        message = error_of(matvec, m, x)
        assert message == error_of(reference_matvec, as_fraction_matrix(m), x)
        assert message == "mixing cyclotomic orders 3 and 5"


def test_dense_rational_matrix_times_cyclotomic_vector():
    m = RationalMatrix(
        [[1, Fraction(1, 2), 0], [Fraction(-2, 3), 2, 1], [0, 0, 0], [2, -4, 0]],
        ["r1", "r2", "r3", "r4"],
        list("abc"),
    )
    assert m._masks is None
    for x in (
        {"a": zeta(4, 1), "b": zeta(4, 3), "c": Fraction(5, 7)},
        {"a": 2 * zeta(7, 3), "b": zeta(7, 3)},  # row r4 cancels
        VertexVector({"b": CyclotomicNumber(12, [Fraction(1, 3), 1, 0, -2]), "c": zeta(12, 11)}),
    ):
        assert_same_product(m, x)


def test_row_with_no_hit_is_the_shared_zero():
    for m in both_row_forms([[1, 1, 0], [0, 0, 1]], ["a", "b", "c"]):
        product = matvec(m, {"a": zeta(3, 1), "b": Fraction(2)})
        assert product["e2"] is _ZERO
        assert type(product["e1"]) is CyclotomicNumber


def test_one_number_is_built_per_hit_row(monkeypatch):
    """Each row with a hit is added into one terms map and wrapped once: pairwise
    adds would build one number per hit."""
    h = uniform_cycle(12, 8)
    x = root_of_unity_vector(12, 4, 1)
    real = CyclotomicNumber._of_terms.__func__
    built = []

    def counting(cls, order, terms):
        built.append(order)
        return real(cls, order, terms)

    monkeypatch.setattr(CyclotomicNumber, "_of_terms", classmethod(counting))
    for m in (edge_vertex_incidence(h), dense_copy(edge_vertex_incidence(h))):
        built.clear()
        product = matvec(m, x)
        assert len(built) == h.n_edges == len(product)
    # a vector that misses some rows builds nothing for them
    m = edge_vertex_incidence(Hypergraph(list("abcd"), [["a", "b"], ["c"], ["b", "d"]]))
    x = {"a": zeta(3, 1), "b": zeta(3, 2)}
    built.clear()
    product = matvec(m, x)
    assert len(built) == 2 and product["e2"] is _ZERO
