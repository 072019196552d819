"""``matrix_equivalence`` against the two-pass construction it replaced.

``_matrix_equivalence_reference`` is the old implementation, kept as it was:
it buckets every label by its signature, computes the signature again for
each class it opens, compares the class's smallest label with each later
label of the bucket, and tests the diagonal inside ``equivalent`` too.  The
new one computes one signature per label and lets each label join the first
class of its bucket whose first member it is equivalent to.  Both must give
the same classes, with the same labels in the same order.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyperinc import (
    RationalMatrix,
    banerjee_weighting,
    matrix_equivalence,
    unit_weighting,
    weighted_adjacency,
)
from hyperinc.errors import NonSquare, SingletonEdgeWithBanerjeeWeight
from hyperinc.formats import load_hypergraph
from hyperinc.spectra import MatrixEquivalence

GOLDEN = Path(__file__).resolve().parent / "golden"
VALUES = (0, 0, 1, 2, Fraction(1, 2), -1)


def _matrix_equivalence_reference(m: RationalMatrix) -> MatrixEquivalence:
    if m.rows != m.cols:
        raise NonSquare("matrix equivalence needs a square matrix")
    n = m.rows
    labels = m.row_labels

    def signature(i: int):
        off = sorted(
            (m.entries[i][k], m.entries[k][i]) for k in range(n) if k != i
        )
        return (m.entries[i][i], tuple(off))

    def equivalent(i: int, j: int) -> bool:
        if m.entries[i][i] != m.entries[j][j]:
            return False
        if m.entries[i][j] != m.entries[j][i]:
            return False
        for k in range(n):
            if k == i or k == j:
                continue
            if m.entries[i][k] != m.entries[j][k] or m.entries[k][i] != m.entries[k][j]:
                return False
        return True

    buckets: dict[object, list[int]] = {}
    for i in range(n):
        buckets.setdefault(signature(i), []).append(i)

    assigned: dict[int, int] = {}
    classes: list[list[int]] = []
    for i in range(n):
        if i in assigned:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in buckets[signature(i)]:
            if j > i and j not in assigned and equivalent(i, j):
                assigned[j] = len(classes)
                cls.append(j)
        classes.append(cls)
    return MatrixEquivalence(tuple(tuple(labels[i] for i in cls) for cls in classes))


def _signature(entries, i):
    n = len(entries)
    return entries[i][i], sorted((entries[i][k], entries[k][i]) for k in range(n) if k != i)


def _matrix(entries, rng=None) -> RationalMatrix:
    """The square matrix of ``entries``, labelled in a shuffled order when
    ``rng`` is given, so that classes do not follow the label order."""
    labels = [f"v{i}" for i in range(len(entries))]
    if rng is not None:
        rng.shuffle(labels)
    return RationalMatrix(entries, labels, labels)


def _random(rng, n, symmetric):
    entries = [[rng.choice(VALUES) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                entries[i][j] = entries[j][i]
    return entries


def _planted(rng, n, symmetric):
    """A random matrix constant on the blocks of a random partition: the
    diagonal and each off-diagonal cell depend only on the blocks of their
    row and column, so every two labels of one block are swap-equivalent."""
    n_blocks = rng.randint(1, n)
    block = [rng.randrange(n_blocks) for _ in range(n)]
    quotient = _random(rng, n_blocks, symmetric)
    inner = [rng.choice(VALUES) for _ in range(n_blocks)]  # off-diagonal, within a block
    diagonal = [rng.choice(VALUES) for _ in range(n_blocks)]
    return [
        [
            diagonal[block[i]] if i == j
            else inner[block[i]] if block[i] == block[j]
            else quotient[block[i]][block[j]]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _circulant(rng, n, symmetric):
    """A[i][j] = c[(j - i) mod n]: every label has the same signature, and
    whether two are equivalent is left to ``equivalent``."""
    c = [rng.choice(VALUES) for _ in range(n)]
    if symmetric:
        for d in range(1, n):
            c[n - d] = c[d]
    return [[c[(j - i) % n] for j in range(n)] for i in range(n)]


def _swap_fixes(entries, i, j):
    """True when swapping rows i, j and columns i, j leaves ``entries`` unchanged."""
    n = len(entries)
    swap = list(range(n))
    swap[i], swap[j] = j, i
    return all(entries[swap[a]][swap[b]] == entries[a][b] for a in range(n) for b in range(n))


@pytest.mark.parametrize("family", [_random, _planted, _circulant])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
def test_classes_agree_with_the_reference(family, symmetric):
    """Same classes as the reference, and two labels share a class exactly
    when swapping them fixes the matrix."""
    rng = random.Random(2901)
    for _ in range(300):
        n = rng.randint(1, 9)
        entries = family(rng, n, symmetric)
        m = _matrix(entries, rng)
        classes = matrix_equivalence(m)
        assert classes == _matrix_equivalence_reference(m)
        class_of = {label: c for c, cls in enumerate(classes.classes) for label in cls}
        for i in range(n):
            for j in range(i + 1, n):
                same = class_of[m.row_labels[i]] == class_of[m.row_labels[j]]
                assert same == _swap_fixes(entries, i, j)


@pytest.mark.parametrize(
    "entries",
    [
        # a directed 3-cycle: one signature, but A[u][v] != A[v][u] for every pair
        [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
        # the path 0-1-2-3: 0 and 3, and 1 and 2, share a signature and a
        # symmetric (u,v)/(v,u) pair, but their rows differ away from u and v
        [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
        # the 5-cycle: one signature, no two labels equivalent
        [[1 if (j - i) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)],
    ],
    ids=["directed-3-cycle", "path-4", "cycle-5"],
)
def test_a_shared_signature_without_equivalence_gives_singletons(entries):
    n = len(entries)
    assert _signature(entries, 0) == _signature(entries, n - 1)
    m = _matrix(entries)
    expected = tuple((label,) for label in m.row_labels)
    assert matrix_equivalence(m).classes == expected
    assert _matrix_equivalence_reference(m).classes == expected


@pytest.mark.parametrize("instance", sorted(p.name for p in GOLDEN.glob("*.txt")))
def test_golden_adjacencies_agree_with_the_reference(instance):
    h = load_hypergraph(str(GOLDEN / instance))
    weightings = [unit_weighting(h)]
    try:
        weightings.append(banerjee_weighting(h))
    except SingletonEdgeWithBanerjeeWeight:
        pass
    for w in weightings:
        adjacency = weighted_adjacency(h, w)
        assert matrix_equivalence(adjacency) == _matrix_equivalence_reference(adjacency)
