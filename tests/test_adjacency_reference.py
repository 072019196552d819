"""Unit and class eigenpairs against the paths they replaced.

Two generations of reference live here.  ``_dense_adjacency_reference`` is
the pairwise-intersection construction that ``weighted_adjacency`` used to
be, and ``_dense_eigenpair_reference`` the per-class check that multiplied
every pair difference through the whole |V| x |V| matrix.
``_fraction_adjacency_columns`` and ``_fraction_eigenpair_reference`` are the
column-difference check as it was in ``Fraction`` sums, before the columns
became ints times one common denominator s per class.  The scaled path must
give the same eigenvalues, eigenvectors, bounds, verdicts, inner products and
matrix entries, and one cell off by the least step it can see, 1/s, must fail
the check.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction

import pytest

from hyperinc import (
    EdgeWeighting,
    RationalMatrix,
    VertexVector,
    banerjee_weighting,
    build_hypergraph,
    column_inner_product,
    compute_units,
    custom_weighting,
    matrix_equivalence,
    matvec,
    predict_class_eigenpairs,
    predict_unit_eigenpairs,
    uniform_cycle,
    unit_weighting,
    weighted_adjacency,
)
from hyperinc import cli, spectra
from hyperinc.errors import InvalidParameters, SingletonEdgeWithBanerjeeWeight
from hyperinc.hypergraph import Unit, UnitPartition, bit_indices, label_sort_key


def _dense_adjacency_reference(h, w) -> RationalMatrix:
    n = h.n_vertices
    stars = h.star_masks
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = stars[i] & stars[j]
            if common:
                total = sum((w.weight(k) for k in bit_indices(common)), Fraction(0))
                entries[i][j] = entries[j][i] = total
    return RationalMatrix(entries, h.vertices, h.vertices)


def _dense_eigenpair_reference(adjacency, eigenvalue, members):
    base = members[0]
    vectors = tuple(
        VertexVector({m: Fraction(1), base: Fraction(-1)}) for m in members[1:]
    )
    verified = all(
        value == eigenvalue * x.value(label)
        for x in vectors
        for label, value in matvec(adjacency, x).items()
    )
    return eigenvalue, members, vectors, len(members) - 1, verified


def _fraction_adjacency_columns(h, w, members):
    """The adjacency's columns for ``members`` in Fraction sums, as they were
    built before the scaled ints: a first weight is stored as it is."""
    columns = []
    for v in members:
        i = h.vertex_index(v)
        column = [0] * h.n_vertices
        for k in bit_indices(h.star_masks[i]):
            weight = w.weight(k)
            for u in bit_indices(h.edge_masks[k] & ~(1 << i)):
                column[u] = column[u] + weight if column[u] else weight
        columns.append(column)
    return columns


def _fraction_inner_reference(h, u, v, w):
    common = h.star_masks[h.vertex_index(u)] & h.star_masks[h.vertex_index(v)]
    return sum((w.weight(i) for i in bit_indices(common)), Fraction(0))


def _fraction_eigenpair_reference(h, w, members, generator=None):
    """The column-difference check in Fractions, with the generator-weight
    total when ``generator`` is given; ArithmeticError where it raised one."""
    base = members[0]
    eigenvalue = -_fraction_inner_reference(h, base, members[1], w)
    for u, v in itertools.combinations(members, 2):
        if -_fraction_inner_reference(h, u, v, w) != eigenvalue:
            raise ArithmeticError("eigenvalue is not well-defined on the class")
    base_column, *columns = _fraction_adjacency_columns(h, w, members)
    verified = True
    for m, column in zip(members[1:], columns):
        expected = [0] * h.n_vertices
        expected[h.vertex_index(m)], expected[h.vertex_index(base)] = eigenvalue, -eigenvalue
        verified = verified and [a - b for a, b in zip(column, base_column)] == expected
    vectors = tuple(VertexVector({m: Fraction(1), base: Fraction(-1)}) for m in members[1:])
    if generator is not None:
        if eigenvalue != -sum((w.weight(i) for i in generator), Fraction(0)):
            raise ArithmeticError("eigenvalue does not match the generator weight sum")
    return eigenvalue, members, vectors, len(members) - 1, verified


def _summary(pairs):
    return [
        (p.eigenvalue, p.members, p.eigenvectors, p.multiplicity_lower_bound, p.verified)
        for p in pairs
    ]


def _planted_instance(rng, max_base=7, max_edges=7, max_clones=4):
    """Random edges over base vertices, clones sharing a base vertex's star
    (units of size 2 and more) and isolated vertices (one unit, empty star)."""
    n_base = rng.randint(2, max_base)
    labels = [str(i) for i in range(1, n_base + 1)]
    edges = set()
    for _ in range(rng.randint(1, max_edges)):
        edges.add(frozenset(rng.sample(labels, rng.randint(1, n_base))))
    clones = {}
    for c in range(rng.randint(0, max_clones)):
        clones[f"c{c}"] = rng.choice(labels)
    isolated = [f"z{i}" for i in range(rng.randint(0, 3))]
    edge_lists = [
        sorted(e | {c for c, b in clones.items() if b in e}) for e in sorted(edges, key=sorted)
    ]
    return build_hypergraph(labels + list(clones) + isolated, edge_lists)


def _weightings(h, rng):
    yield unit_weighting(h)
    try:
        yield banerjee_weighting(h)
    except SingletonEdgeWithBanerjeeWeight:
        pass
    for _ in range(2):
        yield custom_weighting(
            h, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(h.n_edges)]
        )
    yield custom_weighting(
        h, [Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40)) for _ in range(h.n_edges)]
    )
    # a distinct prime denominator per edge: every star's s is a product of primes
    primes = _PRIMES[: h.n_edges]
    rng.shuffle(primes)
    yield custom_weighting(h, [Fraction(rng.randint(1, 10**6), p) for p in primes])


_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_eigenpairs_agree_with_the_dense_path():
    rng = random.Random(18)
    with_units = with_isolated = 0
    for _ in range(60):
        h = _planted_instance(rng)
        units = compute_units(h)
        with_units += any(len(u.members) > 1 for u in units.units)
        with_isolated += any(not s for s in h.star_masks)
        for w in _weightings(h, rng):
            dense = _dense_adjacency_reference(h, w)
            assert weighted_adjacency(h, w) == dense

            expected = [
                _dense_eigenpair_reference(dense, -sum(
                    (w.weight(k) for k in u.generator), Fraction(0)), u.members)
                for u in units.units
                if len(u.members) > 1
            ]
            assert _summary(predict_unit_eigenpairs(h, w)) == expected
            assert all(p[4] for p in expected)

            for partition in (units, matrix_equivalence(dense)):
                for p in predict_class_eigenpairs(h, w, partition):
                    eigenvalue = p.eigenvalue
                    assert _summary([p])[0] == _dense_eigenpair_reference(
                        dense, eigenvalue, p.members
                    )
    assert with_units > 20 and with_isolated > 10


def _outcome(f):
    """What ``f()`` returns, or the message of the ArithmeticError it raises."""
    try:
        return f()
    except ArithmeticError as exc:
        return str(exc)


def test_scaled_path_agrees_with_the_fraction_path():
    """Columns as ints times s per class against the Fraction sums they replaced:
    unit, Banerjee and custom weightings (small, huge, prime denominators), on
    small instances and on larger ones with up to 60 edges."""
    rng = random.Random(34)
    big_units = with_isolated = scaled_classes = 0
    for trial in range(36):
        h = _planted_instance(rng, *((7, 7, 4) if trial % 3 else (24, 60, 8)))
        units = compute_units(h)
        big_units += any(len(u.members) > 2 for u in units.units)
        with_isolated += any(not s for s in h.star_masks)
        for w in _weightings(h, rng):
            # equal entries of equal types: the int 0 off every edge, a Fraction on one
            columns = _fraction_adjacency_columns(h, w, h.vertices)
            a = weighted_adjacency(h, w)
            assert a.entries == columns
            assert [list(map(type, r)) for r in a.entries] == [list(map(type, c)) for c in columns]
            for u, v in itertools.combinations_with_replacement(h.vertices, 2):
                inner = column_inner_product(h, u, v, w)
                assert type(inner) is Fraction and inner == _fraction_inner_reference(h, u, v, w)

            expected = [
                _fraction_eigenpair_reference(h, w, u.members, u.generator)
                for u in units.units
                if len(u.members) > 1
            ]
            assert _summary(predict_unit_eigenpairs(h, w)) == expected
            assert all(p[4] for p in expected)
            for u in units.units:
                if len(u.members) > 1:
                    scaled_classes += spectra._adjacency_columns(h, w, u.members)[0] > 1

            for partition in (units, matrix_equivalence(a)):
                got = _outcome(lambda: _summary(predict_class_eigenpairs(h, w, partition)))
                want = _outcome(lambda: [
                    _fraction_eigenpair_reference(h, w, m)
                    for m in sorted(
                        (tuple(sorted(b, key=label_sort_key)) for b in partition.member_sets()),
                        key=lambda m: label_sort_key(m[0]),
                    )
                    if len(m) > 1
                ])
                assert got == want
    assert big_units > 10 and with_isolated > 10 and scaled_classes > 100


def test_a_class_with_unequal_inner_products_is_refused(unit_example):
    """A partition finer than the adjacency's symmetry classes has equal inner
    products on each class, so only a direct call reaches this check: 1, 3
    and 5 share e2, e1 and no edge pairwise."""
    for w in (unit_weighting(unit_example), banerjee_weighting(unit_example)):
        for check in (spectra._eigenpair_for_class, _fraction_eigenpair_reference):
            with pytest.raises(ArithmeticError, match="not well-defined"):
                check(unit_example, w, ("1", "3", "5"))


def test_generator_edge_outside_the_stars_is_caught(monkeypatch, unit_example):
    """The generator-weight total stays exact for an edge whose denominator does
    not divide the class's s: an extra generator edge must fail, not round to 0."""
    real = spectra.compute_units

    def with_extra_edge(h):
        partition = real(h)
        first = partition.units[0]
        assert first.members == ("1", "2") and not first.star >> 2 & 1  # e3 is 3 4 10
        units = (Unit(first.members, first.star | 1 << 2),) + partition.units[1:]
        return UnitPartition(units, partition.vertex_to_unit)

    monkeypatch.setattr(spectra, "compute_units", with_extra_edge)
    # w(e3) = 1/1000003 lies outside s = 1 of the class {1, 2}
    w = custom_weighting(unit_example, ["1", "1", "1/1000003", "1", "1"])
    with pytest.raises(ArithmeticError, match="generator weight sum"):
        predict_unit_eigenpairs(unit_example, w)


def _perturb_one_cell(monkeypatch, column, row_label):
    """The first class's adjacency columns come back with one cell off by one
    in the scaled ints, which is 1/s in the adjacency's own entries: column
    ``column`` (0 is the base member's), at ``row_label``."""
    columns, calls = spectra._adjacency_columns, []

    def perturbed(h, w, members):
        s, m = columns(h, w, members)
        if not calls:
            m[column][h.vertex_index(row_label)] += 1
        calls.append(members)
        return s, m

    monkeypatch.setattr(spectra, "_adjacency_columns", perturbed)


# row 11 lies outside the unit {1, 2}: every row is checked, not only the class's
@pytest.mark.parametrize("row_label", ["11", "1", "2"], ids=["outside", "base-row", "member-row"])
@pytest.mark.parametrize("column", [0, 1], ids=["base-column", "member-column"])
def test_one_perturbed_column_cell_fails_verification(
    monkeypatch, unit_example, tmp_path, column, row_label
):
    _perturb_one_cell(monkeypatch, column, row_label)
    pairs = predict_unit_eigenpairs(unit_example, unit_weighting(unit_example))
    assert [p.verified for p in pairs] == [False, True, True, True]
    assert pairs[0].members == ("1", "2")

    path = tmp_path / "units.hg"
    path.write_text(
        "".join(
            f"{name}: {' '.join(unit_example.mask_labels(mask))}\n"
            for name, mask in zip(unit_example.edge_labels, unit_example.edge_masks)
        )
    )
    _perturb_one_cell(monkeypatch, column, row_label)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["spectra", str(path)])
    assert code == 1
    assert "eigenpair for class {1,2} failed exact verification" in out.getvalue()


@pytest.mark.parametrize("row_label", ["11", "1", "2"], ids=["outside", "base-row", "member-row"])
@pytest.mark.parametrize("column", [0, 1], ids=["base-column", "member-column"])
def test_a_cell_off_by_one_over_s_fails_under_banerjee(
    monkeypatch, unit_example, column, row_label
):
    """Under the Banerjee weighting the class {1, 2} has s = lcm(6, 3) = 6
    (its stars are e1 of 7 vertices and e2 of 4), so the perturbed cell is off
    by 1/6 of a unit, the least step its entries can take, and still fails."""
    scales, real = [], spectra._adjacency_columns

    def recording(h, w, members):
        s, m = real(h, w, members)
        scales.append(s)
        return s, m

    monkeypatch.setattr(spectra, "_adjacency_columns", recording)
    _perturb_one_cell(monkeypatch, column, row_label)
    pairs = predict_unit_eigenpairs(unit_example, banerjee_weighting(unit_example))
    assert [p.verified for p in pairs] == [False, True, True, True]
    assert pairs[0].members == ("1", "2") and pairs[0].eigenvalue == Fraction(-1, 2)
    assert scales[0] == 6


def test_eigenpairs_build_no_matrix_and_no_product(monkeypatch, unit_example):
    """A*x is read off two adjacency columns: predicting eigenpairs builds no
    ``RationalMatrix`` and multiplies through no ``matvec``."""
    built, multiplied = [], []

    class CountingMatrix(RationalMatrix):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counting_matvec(m, x):
        multiplied.append(x)
        return matvec(m, x)

    monkeypatch.setattr(spectra, "RationalMatrix", CountingMatrix)
    monkeypatch.setattr(spectra, "matvec", counting_matvec)
    pairs = predict_unit_eigenpairs(unit_example, unit_weighting(unit_example))
    assert len(pairs) == 4 and all(p.verified for p in pairs)
    assert built == [] and multiplied == []
    weighted_adjacency(unit_example, unit_weighting(unit_example))
    assert len(built) == 1  # the counters see the calls they are meant to catch


def test_mismatched_weighting_rejected_without_multi_vertex_units():
    h = uniform_cycle(6, 3)
    assert all(len(u.members) == 1 for u in compute_units(h).units)
    for weights in ((Fraction(1),) * 5, (Fraction(1),) * 7):
        w = EdgeWeighting("custom", weights)
        with pytest.raises(InvalidParameters):
            predict_unit_eigenpairs(h, w)
        # a short weighting escaped as an IndexError, a long one gave a number
        with pytest.raises(InvalidParameters):
            column_inner_product(h, "0", "1", w)
        with pytest.raises(InvalidParameters):
            weighted_adjacency(h, w)
        with pytest.raises(InvalidParameters):
            predict_class_eigenpairs(h, w, [[v] for v in h.vertices])


def test_spectra_builds_the_dense_matrix_only_for_matrix(monkeypatch, tmp_path):
    path = tmp_path / "units.hg"
    path.write_text("e1: 1 2 5\ne2: 1 2 3 4\ne3: 3 4 5\n")
    calls = []
    original = spectra.weighted_adjacency

    def counting(h, w):
        calls.append(h)
        return original(h, w)

    monkeypatch.setattr(spectra, "weighted_adjacency", counting)
    monkeypatch.setattr(cli, "weighted_adjacency", counting)
    for flags, expected in (([], 0), (["--matrix"], 1)):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["spectra", str(path), "--json", *flags]) == 0
        assert len(calls) == expected
