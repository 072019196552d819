"""``proven_kernel`` against the elimination of every column it replaced.

``proven_kernel_reference`` below is an earlier ``linalg.proven_kernel``,
kept as a test-only reference: it eliminated every column, each copy of an
equal column included, and every row.  The current one eliminates each
distinct column once, on the basis rows of the rank stage of highest rank,
and nothing when two stages reach as many as the distinct columns; a later
copy m of column f gets d at m and then -d at f when f is a pivot, or f's
vector with d moved from f to m when f is free.

Pivots, each vector's keys and their order must be the reference's, on
seeded matrices with repeated pivot, free and zero columns and repeated
rows, on edgeless and 0-column matrices, on B_H and I_H of every golden
instance, of the benchmark's rank-dense shapes and of seeded tall
instances, given as integer rows and, when 0/1, as mask rows, whose equal
rows and columns are found by their masks.  d, and with it every vector, is
the reference's whenever the rows eliminated are the same, every row in
order; choosing fewer rows may change which rows the fraction-free pass
pivots on, and so d, but not the RREF, so each vector divided by d is the
reference's there.  A copy's vector that is wrong must fail the
re-multiplication.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import STAGES, bench_workloads, shift_stages
from hyperinc import linalg
from hyperinc.formats import load_hypergraph
from hyperinc.hypergraph import build_hypergraph
from hyperinc.linalg import edge_vertex_incidence, vertex_edge_incidence

ROOT = Path(__file__).resolve().parents[1]


def proven_kernel_reference(rows, n_cols):
    """The pivot columns, d and the kernel basis, eliminating every column and row."""
    pivots, reduced, d = linalg._fraction_free_rref([row[:] for row in rows])
    pivot_set = set(pivots)
    free = [f for f in range(n_cols) if f not in pivot_set]
    basis = {f: {f: d} for f in free}
    for p, row in zip(pivots, reduced):
        for f, x in zip(free, row):
            if x:
                basis[f][p] = -x
    linalg._proven_rank(linalg._integer_matrix(rows, n_cols), basis.values())
    return pivots, d, basis


def normalized(basis: dict, d: int) -> list:
    """Each vector's entries, in their order, divided by d."""
    return [(f, [(j, Fraction(x, d)) for j, x in v.items()]) for f, v in basis.items()]


def mask_matrix(rows: list[list[int]], n_cols: int) -> linalg.RationalMatrix:
    """0/1 ``rows`` as an incidence matrix holds them: row and column masks."""
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    col_masks = [sum(1 << i for i, row in enumerate(rows) if row[j]) for j in range(n_cols)]
    return linalg.RationalMatrix._from_masks(masks, col_masks, tuple(map(str, range(len(rows)))), tuple(map(str, range(n_cols))))


def assert_same_kernel(rows, n_cols, label=""):
    """The current kernel, of integer ``rows`` and, when they are 0/1, of
    their mask matrix, against the reference: exactly, when every row is
    eliminated in order (distinct rows of full row rank, below the distinct
    columns), and divided by d otherwise.  Returns whether the comparison
    was exact."""
    ref_pivots, ref_d, ref_basis = proven_kernel_reference(rows, n_cols)
    forms = [linalg._integer_matrix(rows, n_cols)]
    if all(x in (0, 1) for row in rows for x in row):
        forms.append(mask_matrix(rows, n_cols))
    distinct_columns = len(set(zip(*rows))) if rows else min(n_cols, 1)
    exact = len(set(map(tuple, rows))) == len(rows) == len(ref_pivots) < distinct_columns
    for m in forms:
        pivots, d, basis = linalg.proven_kernel(m)
        assert pivots == ref_pivots, label
        assert [(f, list(v)) for f, v in basis.items()] == [(f, list(v)) for f, v in ref_basis.items()], label
        assert normalized(basis, d) == normalized(ref_basis, ref_d), label
        if exact:
            assert (d, basis) == (ref_d, ref_basis), label
    return exact


def with_copies(rng: random.Random, rows: list[list[int]], sources: list[int], n_copies: int) -> list[list[int]]:
    """``rows`` with ``n_copies`` columns appended, each a later copy of a
    column drawn from ``sources``."""
    picks = [rng.choice(sources) for _ in range(n_copies)] if sources else []
    return [row + [row[j] for j in picks] for row in rows]


def integer_rows(rng: random.Random, n_rows: int, n_cols: int, rank: int | None) -> list[list[int]]:
    """Integer rows of rank at most ``rank``: combinations of ``rank`` random
    rows with entries in -3..3, or 0/1 rows when ``rank`` is None."""
    if rank is None:
        return [[rng.randint(0, 1) for _ in range(n_cols)] for _ in range(n_rows)]
    basis = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(rank)]
    return [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n_cols)] for _ in range(n_rows)]


def repeated_cases(seed: int):
    """(label, rows, n_cols): later copies of pivot columns, of free columns,
    of a zero column, and of rows, each alone, and all together in shuffled
    columns, where a copy may come first."""
    rng = random.Random(seed)
    for index in range(40):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(2, 9)
        rank = rng.choice([None, rng.randint(0, min(n_rows, n_cols - 1))])
        rows = integer_rows(rng, n_rows, n_cols, rank)
        pivots, _, basis = proven_kernel_reference(rows, n_cols)
        zero = [row + [0] for row in rows]
        together = with_copies(rng, zero, list(range(n_cols + 1)), rng.randint(2, 6))
        order = list(range(len(together[0])))
        rng.shuffle(order)
        together = [[row[j] for j in order] for row in together]
        cases = {
            "pivot copies": with_copies(rng, rows, pivots, rng.randint(1, 4)),
            "free copies": with_copies(rng, rows, list(basis), rng.randint(1, 4)),
            "zero copies": with_copies(rng, zero, [n_cols], rng.randint(1, 3)),
            "repeated rows": rows + [list(rng.choice(rows)) for _ in range(rng.randint(1, 4))],
            "all": together + [list(rng.choice(together)) for _ in range(rng.randint(1, 3))],
        }
        for kind, m in cases.items():
            rng.shuffle(m)
            yield f"{kind} #{index}", m, len(m[0])


def test_seeded_repeats_match_reference():
    exact = scaled = 0
    kinds = set()
    for label, rows, n_cols in repeated_cases(seed=4101):
        kinds.add(label.split(" #")[0])
        if assert_same_kernel(rows, n_cols, label=label):
            exact += 1
        else:
            scaled += 1
    assert kinds == {"pivot copies", "free copies", "zero copies", "repeated rows", "all"}
    assert exact > 50 and scaled > 20


def test_copies_of_each_kind_occur():
    """The seeded cases copy a pivot, a free column that is not zero and a
    zero column, and drop repeated rows, each many times."""
    seen = {"pivot": 0, "free": 0, "zero": 0, "row": 0}
    for _, rows, n_cols in repeated_cases(seed=4101):
        first: dict = {}
        lead = [first.setdefault(column, j) for j, column in enumerate(zip(*rows))]
        pivots = set(linalg.proven_kernel(linalg._integer_matrix(rows, n_cols))[0])
        for j, f in enumerate(lead):
            if j != f:
                kind = "pivot" if f in pivots else "zero" if not any(row[f] for row in rows) else "free"
                seen[kind] += 1
        seen["row"] += len(rows) - len(set(map(tuple, rows)))
    assert min(seen.values()) > 30, seen


def test_dropping_a_repeated_row_may_change_d_not_the_rref():
    """Eliminating one copy of each repeated row, the rows of a stage's
    basis, changes the rows the fraction-free pass pivots on: d is 1 with
    every row and -1 without the copies.  The basis divided by d, which
    ``rank_and_nullspace`` returns, is the same."""
    rows = [[0, 1, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1], [0, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0],
            [0, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 0]]
    assert linalg.proven_kernel(linalg._integer_matrix(rows, 6))[1] == -1
    assert proven_kernel_reference(rows, 6)[1] == 1
    assert not assert_same_kernel(rows, 6)


@pytest.mark.parametrize(
    "rows, n_cols",
    [([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2), ([[1, 1, 1], [1, 1, 1]], 3)],
    ids=["no rows, no columns", "no rows", "rows of no columns", "one zero row", "zero rows", "one column thrice"],
)
def test_degenerate_shapes_match_reference(rows, n_cols):
    assert_same_kernel(rows, n_cols)


def golden_and_dense_hypergraphs():
    """(label, hypergraph) for every golden instance, three seeded instances
    of each rank-dense slot of the benchmark and three tall sparse ones."""
    workloads = bench_workloads()
    hypergraphs = [(p.name, load_hypergraph(str(p))) for p in sorted((ROOT / "tests" / "golden").glob("*.txt"))]
    rng = random.Random(4102)
    for index in range(3):
        instances = [(f"dense{slot}", workloads.dense_instance(rng, *shape)) for slot, shape in enumerate(workloads.DENSE_SLOTS)]
        instances.append(("tall", workloads.sparse_instance(rng, 40, 120)))
        for name, inst in instances:
            h = build_hypergraph(inst.vertices, [members for _, members in inst.edges], [n for n, _ in inst.edges])
            hypergraphs.append((f"{name} #{index}", h))
    return hypergraphs


def test_golden_and_dense_incidences_match_reference():
    shapes = 0
    for name, h in golden_and_dense_hypergraphs():
        for side, m in (("B_H", edge_vertex_incidence(h)), ("I_H", vertex_edge_incidence(h))):
            assert_same_kernel(m.entries, m.cols, label=f"{name} {side}")
            shapes += 1
    assert shapes >= 2 * (len(list((ROOT / "tests" / "golden").glob("*.txt"))) + 15)


def test_elimination_sees_distinct_columns_and_rows(monkeypatch):
    """On rank-dense's slot with 20 clones, B_H (44 x 62 of rank 42, as many
    as its distinct columns) is proven by two stages with nothing
    eliminated, and I_H (62 x 44) is eliminated at its 42 distinct rows, the
    basis of a stage, on its 44 columns."""
    shapes = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(
        linalg, "_fraction_free_rref", lambda rows: shapes.append((len(rows), len(rows[0]))) or eliminate(rows)
    )
    h = next(h for name, h in golden_and_dense_hypergraphs() if name == "dense3 #0")
    b = edge_vertex_incidence(h)
    assert (b.rows, b.cols, len(set(h.star_masks))) == (44, 62, 42)
    assert len(linalg.proven_kernel(b)[0]) == 42 and shapes == []
    assert len(linalg.proven_kernel(vertex_edge_incidence(h))[0]) == 42
    assert shapes == [(42, 44)]


# columns a and b are pivots, c = a + b is free, d copies the pivot a and e
# copies the free column c
COPIES = [[1, 0, 1, 1, 1], [0, 1, 1, 0, 1]]


def test_copy_vectors_are_read_off_their_column():
    pivots, d, basis = linalg.proven_kernel(linalg._integer_matrix(COPIES, 5))
    assert pivots == [0, 1] and d == 1
    assert basis == {2: {2: 1, 0: -1, 1: -1}, 3: {3: 1, 0: -1}, 4: {4: 1, 0: -1, 1: -1}}
    assert list(basis[4]) == [4, 0, 1]


@pytest.mark.parametrize("copy", [3, 4], ids=["copy of a pivot", "copy of a free column"])
@pytest.mark.parametrize("fault", ["entry off by one", "entry moved"])
def test_wrong_copy_vector_fails_re_multiplication(monkeypatch, copy, fault):
    prove = linalg._proven_rank
    seen = []

    def corrupted(m, kernel, lower=0):
        kernel = [dict(v) for v in kernel]
        vector = next(v for v in kernel if next(iter(v)) == copy)  # a vector's first key is its own column
        seen.append(dict(vector))
        if fault == "entry off by one":
            vector[0] += 1
        else:
            vector[1] = vector.get(1, 0) + vector.pop(0)  # a's entry moved to b
        return prove(m, kernel, lower)

    monkeypatch.setattr(linalg, "_proven_rank", corrupted)
    for m in (linalg._integer_matrix(COPIES, 5), mask_matrix(COPIES, 5)):
        seen.clear()
        with pytest.raises(ArithmeticError, match="re-multiplication"):
            linalg.proven_kernel(m)
        assert seen == [{3: 1, 0: -1} if copy == 3 else {4: 1, 0: -1, 1: -1}]


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize(
    "rows",
    [[*COPIES, [1, 1, 2, 1, 2]], [[1, 0, 1], [0, 1, 0]]],
    ids=["eliminated", "as many rows as distinct columns"],
)
def test_wrong_modular_rank_with_copies_is_caught(monkeypatch, rows, shift):
    """A rank one off fails, also where two stages reaching as many as the
    distinct columns would leave nothing to eliminate (there c copies a).
    GF(2) one too high claims a dependent row independent: a rank above the
    dimension bound with nothing eliminated, or fewer pivots than rows once
    its rows are eliminated.  Every stage one too low chooses rows whose
    kernel fails the product with the row left out; every distinct row is
    eliminated, and the stages, still short, fail the proof."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(rows) or eliminate(rows))
    shift_stages(monkeypatch, shift, ("GF(2)",) if shift > 0 else STAGES)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        linalg.proven_kernel(linalg._integer_matrix(rows, len(rows[0])))
    assert len(eliminated) == (2 if shift < 0 else len(rows) - 2)
