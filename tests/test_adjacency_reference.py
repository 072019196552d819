"""Unit and class eigenpairs against the dense adjacency path they replaced.

``_dense_adjacency_reference`` is the pairwise-intersection construction that
``weighted_adjacency`` used to be, and ``_dense_eigenpair_reference`` the old
per-class check: every pair difference multiplied through the whole |V| x |V|
matrix.  Eigenpairs now read A*(e_m - e_base) as the difference of the class's
own adjacency columns m and base, with no matrix and no ``matvec``; they must
give the same eigenvalues, eigenvectors, bounds and verdicts, and one wrong
cell in either column must fail the check.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from hyperinc import (
    EdgeWeighting,
    RationalMatrix,
    VertexVector,
    banerjee_weighting,
    build_hypergraph,
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
from hyperinc.hypergraph import bit_indices


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


def _summary(pairs):
    return [
        (p.eigenvalue, p.members, p.eigenvectors, p.multiplicity_lower_bound, p.verified)
        for p in pairs
    ]


def _planted_instance(rng):
    """Random edges over base vertices, clones sharing a base vertex's star
    (units of size 2 and more) and isolated vertices (one unit, empty star)."""
    n_base = rng.randint(2, 7)
    labels = [str(i) for i in range(1, n_base + 1)]
    edges = set()
    for _ in range(rng.randint(1, 7)):
        edges.add(frozenset(rng.sample(labels, rng.randint(1, n_base))))
    clones = {}
    for c in range(rng.randint(0, 4)):
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


def _perturb_one_cell(monkeypatch, column, row_label):
    """The first class's adjacency columns come back with one cell off by one:
    column ``column`` (0 is the base member's), at ``row_label``."""
    columns, calls = spectra._adjacency_columns, []

    def perturbed(h, w, members):
        m = columns(h, w, members)
        if not calls:
            m[column][h.vertex_index(row_label)] += 1
        calls.append(members)
        return m

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
