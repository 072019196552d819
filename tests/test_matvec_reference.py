"""The support-only ``matvec`` checked against the dense one it replaced.

``reference_matvec`` is the earlier dense product, kept verbatim: it scans
every column of every row by label.  ``linalg.matvec`` reads each row only at
the vector's non-zero support.  On seeded 0/1 and rational matrices, with
rational, cyclotomic and mixed vectors (some with explicit zeros), both must
give the same keys in the same order, equal values and identical ``str()``
for every entry.  The reference runs on the matrix as it used to be built,
with every cell a ``Fraction``.  Incidence matrices keep their rows as
bitmasks; their product must also match the same matrix built from dense rows.

``cell_matvec`` is the earlier mask product, kept verbatim: it reads each
mask row cell by cell at the support and folds every row on its own.
``linalg.matvec`` reads a row as one bit count per distinct value and folds
each distinct tuple of counts once; both must agree exactly, at low and high
orders, on dense and sparse rows.
"""

import random
from fractions import Fraction
from math import lcm

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
from hyperinc.hypergraph import _str_keyed, bit_indices
from hyperinc.linalg import _ZERO, RationalMatrix, matvec, packed_matvec

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
    """In the second case b's order 5 comes first in the row, though a, which
    shares c's value, comes first in the vector, and the message follows the
    row."""
    third = zeta(3, 1)
    cases = (
        ([[1, 0, 0, 0], [1, 1, 1, 1]], {"a": third, "b": Fraction(1, 2), "c": zeta(3, 2), "d": zeta(5, 1)}, "3 and 5"),
        ([[0, 1, 1, 1], [1, 1, 1, 1]], {"a": third, "b": zeta(5, 1), "c": third, "d": Fraction(1, 2)}, "5 and 3"),
    )
    for entries, x, orders in cases:
        for m in both_row_forms(entries, list("abcd")):
            message = error_of(matvec, m, x)
            assert message == error_of(reference_matvec, as_fraction_matrix(m), x)
            assert message == f"mixing cyclotomic orders {orders}"


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
    """Each row with a hit is added into one terms map and wrapped once, never
    pairwise (one number per hit); a grouped mask product builds one number per
    distinct row sum, and a vector that misses a row builds nothing for it."""
    real = CyclotomicNumber._of_terms.__func__
    built = []

    def counting(cls, order, terms):
        built.append(order)
        return real(cls, order, terms)

    def numbers_built(m, x):
        monkeypatch.setattr(CyclotomicNumber, "_of_terms", classmethod(counting))
        built.clear()
        product = matvec(m, x)
        monkeypatch.undo()
        return len(built), product

    # every window of 8 on the 12-cycle meets each residue mod 4 twice: one row sum
    h = uniform_cycle(12, 8)
    x = root_of_unity_vector(12, 4, 1)
    mask = edge_vertex_incidence(h)
    assert numbers_built(mask, x)[0] == 1
    assert numbers_built(dense_copy(mask), x)[0] == h.n_edges
    # 30 values, each its own mask, against distinct edges: no two rows share counts
    rng = random.Random(46004)
    sparse = Hypergraph(
        [str(i) for i in range(30)],
        list({frozenset(rng.sample([str(i) for i in range(30)], rng.randint(2, 3))) for _ in range(25)}),
    )
    count, product = numbers_built(edge_vertex_incidence(sparse), root_of_unity_vector(30, 199, 1))
    assert count == sparse.n_edges == len(product)
    m = edge_vertex_incidence(Hypergraph(list("abcd"), [["a", "b"], ["c"], ["b", "d"]]))
    count, product = numbers_built(m, {"a": zeta(3, 1), "b": zeta(3, 2)})
    assert count == 2 and product["e2"] is _ZERO


# -- one bit count per distinct value per row ------------------------------------


def cell_matvec(m: RationalMatrix, x) -> dict[str, object]:
    """Exact matrix-vector product, keyed by row labels.

    ``x`` may be a ``VertexVector`` or a plain mapping, keyed by ``str`` of
    each key (two keys with one string raise InvalidParameters); its support
    must be covered by the column labels.  Each value is an ``int``, a
    ``Fraction`` or of a type with a ``_row_sum``, such as
    ``CyclotomicNumber``; any other value (a bool, a float, a string) raises
    InvalidParameters.  Each row is read only at the vector's non-zero
    support, in column order, and folded from its (cell, value) pairs: a
    rational vector in integers, one Fraction per row (through mask rows by
    ``packed_matvec``), any other vector by the ``_row_sum`` of the type
    of its first value that is not rational, which for ``CyclotomicNumber``
    adds the row into one terms map and builds one number.  A row the
    support misses is the shared ``Fraction(0)``.
    """
    entries = x.entries if isinstance(x, VertexVector) else _str_keyed(x)
    for k, v in entries.items():
        if isinstance(v, bool):  # an int to Python, but no number here, not even False
            raise InvalidParameters(f"vector entry {k!r} is {v!r}, not exact")
    col_index = {c: j for j, c in enumerate(m.col_labels)}
    outside = [k for k, v in entries.items() if v != 0 and k not in col_index]
    if outside:
        raise DimensionMismatch(f"vector support outside matrix columns: {sorted(outside)}")
    support = sorted((col_index[k], v) for k, v in entries.items() if v != 0)
    rational = all(isinstance(v, (int, Fraction)) for _, v in support)
    if rational:
        # clear the vector's denominators once, sum integers, then one Fraction per row
        scale = lcm(*(v.denominator for _, v in support))
        support = [(j, v.numerator * (scale // v.denominator)) for j, v in support]

        def fold(products):
            return Fraction(sum(c * v for c, v in products), scale)
    else:
        # a value that is not rational would make the product inexact, or not a number
        for j, v in support:
            if not isinstance(v, (int, Fraction)) and not hasattr(type(v), "_row_sum"):
                raise InvalidParameters(f"vector entry {m.col_labels[j]!r} is {v!r}, not exact")
        fold = next(type(v) for _, v in support if not isinstance(v, (int, Fraction)))._row_sum
    if m._masks is None:
        products = ([(row[j], v) for j, v in support if row[j]] for row in m.entries)
    elif rational:  # the one vector of a packed product
        return packed_matvec(m, [dict(support)], [scale])[0]
    else:
        # cell (i, j) is bit j of row mask i: read a row at the bits it shares with the support
        value, support_mask = dict(support), sum(1 << j for j, _ in support)
        products = ([(1, value[j]) for j in bit_indices(mask & support_mask)] for mask in m._masks)
    return {label: fold(p) if p else _ZERO for label, p in zip(m.row_labels, products)}


def assert_same_as_cells(m, x):
    expected, got = cell_matvec(m, x), matvec(m, x)
    assert list(got) == list(expected)
    for k, value in expected.items():
        assert got[k] == value
        assert str(got[k]) == str(value)
        assert type(got[k]) is type(value)
        assert (got[k] is _ZERO) == (value is _ZERO)
    return got


def labelled_from_zero(rng, n, n_edges, sizes):
    """A random hypergraph on the vertices 0..n-1, as root-of-unity vectors key them."""
    labels = [str(i) for i in range(n)]
    edges = {frozenset(rng.sample(labels, rng.randint(*sizes))) for _ in range(n_edges)}
    return Hypergraph(labels, list(edges))


def test_cycles_at_every_power_agree_with_cells():
    """C(a*r, b*r) at every power 1..r: the product is zero exactly when r
    does not divide the power."""
    rng = random.Random(46001)
    for r in (2, 3, 4, 5, 6, 12, 15, 30):
        a, b = rng.choice(((2, 1), (3, 1), (3, 2), (5, 2), (5, 3)))
        n = a * r
        m = edge_vertex_incidence(uniform_cycle(n, b * r))
        for power in range(1, r + 1):
            got = assert_same_as_cells(m, root_of_unity_vector(n, r, power))
            assert all(v == 0 for v in got.values()) == (power % r != 0)


def test_random_hypergraphs_agree_with_cells_at_low_and_high_orders():
    """Low, middle and high orders against rows of a few cells up to all n:
    at a high order nearly every value is the mask of one column."""
    rng = random.Random(46002)
    for _ in range(60):
        n = rng.randint(2, 40)
        h = labelled_from_zero(rng, n, rng.randint(1, 30), rng.choice(((1, min(3, n)), (1, n), (n // 2 + 1, n))))
        m = edge_vertex_incidence(h)
        for r in (rng.choice((2, 3, 4, 6)), rng.choice((7, 12, 60)), rng.choice((101, 199, 997))):
            assert_same_as_cells(m, root_of_unity_vector(n, r, rng.randint(1, r)))


def test_equal_values_in_separate_objects():
    """Values are grouped by identity: equal numbers built apart are groups of
    their own, and the sums still agree."""
    rng = random.Random(46003)
    for n, k, r in ((36, 24, 12), (60, 30, 30), (40, 16, 8)):
        m = edge_vertex_incidence(uniform_cycle(n, k))
        power = rng.randint(1, r - 1)
        apart = {str(i): zeta(r, power * i) for i in range(n)}  # one object per entry
        copies = [{e: zeta(r, e) for e in range(r)} for _ in range(2)]
        twice = {str(i): copies[i % 2][power * i % r] for i in range(n)}  # two objects per value
        rebuilt = {str(i): CyclotomicNumber(r, [0] * (power * i % r) + [1]) for i in range(n)}
        for x in (apart, twice, rebuilt, VertexVector(twice)):
            got = assert_same_as_cells(m, x)
            assert all(v == 0 for v in got.values())


def test_mixed_rational_and_cyclotomic_values_with_explicit_zeros():
    """Plain mappings drawing each entry from a few shared values, rational,
    cyclotomic and zero (0, Fraction(0) and the zero number), on hypergraphs
    with rows the support misses: those are the shared zero on both sides."""
    rng = random.Random(46005)
    missed = 0
    for _ in range(40):
        n = rng.randint(4, 24)
        h = labelled_from_zero(rng, n, rng.randint(2, 20), (1, n))
        r = rng.choice((3, 4, 6, 12))
        pool = [zeta(r, 1), -zeta(r, 2), Fraction(1, 2), 3, CyclotomicNumber(r, [1, Fraction(-1, 3)]),
                0, Fraction(0), CyclotomicNumber(r, [])]
        values = rng.sample(pool, rng.randint(2, len(pool)))
        x = {str(i): rng.choice(values) for i in rng.sample(range(n), rng.randint(1, n))}
        if not any(isinstance(v, CyclotomicNumber) and v != 0 for v in x.values()):
            x["0"] = zeta(r, 1)
        got = assert_same_as_cells(edge_vertex_incidence(h), x)
        missed += sum(v is _ZERO for v in got.values())
    assert missed
