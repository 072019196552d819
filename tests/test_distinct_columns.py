"""``proven_kernel`` against the elimination of every column it replaced.

``proven_kernel_reference`` below is the earlier ``linalg.proven_kernel``,
kept as a test-only reference: it eliminated every column, each copy of an
equal column included, and, with no ``spanning`` rows, every row.  The
current one eliminates each distinct column once and, with no ``spanning``
rows, each distinct row once; a later copy m of column f gets d at m and
then -d at f when f is a pivot, or f's vector with d moved from f to m when
f is free.

Pivots, each vector's keys and their order must be the reference's, on
seeded matrices with repeated pivot, free and zero columns and repeated
rows, with and without ``spanning``, on edgeless and 0-column matrices, on
B_H and I_H of every golden instance and on the benchmark's rank-dense
shapes.  d, and with it every vector, is the reference's whenever the rows
eliminated are the same; dropping a repeated row may change which rows the
fraction-free pass pivots on, and so d, but not the RREF, so each vector
divided by d is the reference's there.  A copy's vector that is wrong must
fail the re-multiplication.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperinc import linalg
from hyperinc.errors import InvalidParameters
from hyperinc.formats import load_hypergraph
from hyperinc.hypergraph import build_hypergraph
from hyperinc.linalg import edge_vertex_incidence, vertex_edge_incidence

ROOT = Path(__file__).resolve().parents[1]


def proven_kernel_reference(rows, n_cols, spanning=None):
    """The pivot columns, d and the kernel basis, eliminating every column."""
    if spanning is not None and len(set(spanning) & set(range(len(rows)))) != len(spanning):
        raise InvalidParameters(f"spanning rows must be distinct indices below {len(rows)}: {list(spanning)}")
    if spanning is not None and len(spanning) == n_cols:
        pivots, reduced, d = list(range(n_cols)), [], 1
    else:
        chosen = range(len(rows)) if spanning is None else spanning
        pivots, reduced, d = linalg._fraction_free_rref([rows[i][:] for i in chosen])
    pivot_set = set(pivots)
    free = [f for f in range(n_cols) if f not in pivot_set]
    basis = {f: {f: d} for f in free}
    for p, row in zip(pivots, reduced):
        for f, x in zip(free, row):
            if x:
                basis[f][p] = -x
    linalg._proven_rank(rows, n_cols, basis.values())
    return pivots, d, basis


def normalized(basis: dict, d: int) -> list:
    """Each vector's entries, in their order, divided by d."""
    return [(f, [(j, Fraction(x, d)) for j, x in v.items()]) for f, v in basis.items()]


def assert_same_kernel(rows, n_cols, spanning=None, label=""):
    """The current kernel against the reference: exactly, when the same rows
    are eliminated, and divided by d when only repeated rows were dropped or
    ``spanning`` rows as many as the distinct columns left none to eliminate.
    Returns whether the comparison was exact."""
    pivots, d, basis = linalg.proven_kernel(rows, n_cols, spanning)
    ref_pivots, ref_d, ref_basis = proven_kernel_reference(rows, n_cols, spanning)
    assert pivots == ref_pivots, label
    assert [(f, list(v)) for f, v in basis.items()] == [(f, list(v)) for f, v in ref_basis.items()], label
    assert normalized(basis, d) == normalized(ref_basis, ref_d), label
    chosen = rows if spanning is None else [rows[i] for i in spanning]
    distinct_columns = len(set(zip(*chosen))) if chosen else min(n_cols, 1)
    same_rows = spanning is not None or len(set(map(tuple, rows))) == len(rows)
    if same_rows and not (spanning is not None and len(spanning) == distinct_columns < n_cols):
        assert (d, basis) == (ref_d, ref_basis), label
        return True
    return False


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


def spanning_rows(rows: list[list[int]]) -> list[int]:
    """Indices of rows that span the row space: the transpose's pivots."""
    return proven_kernel_reference([list(col) for col in zip(*rows)], len(rows))[0] if rows and rows[0] else []


def test_seeded_repeats_match_reference():
    exact = scaled = 0
    kinds = set()
    for label, rows, n_cols in repeated_cases(seed=4101):
        kinds.add(label.split(" #")[0])
        if assert_same_kernel(rows, n_cols, label=label):
            exact += 1
        else:
            scaled += 1
        assert_same_kernel(rows, n_cols, spanning_rows(rows), label=label + ", spanning")
    assert kinds == {"pivot copies", "free copies", "zero copies", "repeated rows", "all"}
    assert exact > 50 and scaled > 20


def test_copies_of_each_kind_occur():
    """The seeded cases copy a pivot, a free column that is not zero and a
    zero column, and drop repeated rows, each many times."""
    seen = {"pivot": 0, "free": 0, "zero": 0, "row": 0}
    for _, rows, n_cols in repeated_cases(seed=4101):
        first: dict = {}
        lead = [first.setdefault(column, j) for j, column in enumerate(zip(*rows))]
        pivots = set(linalg.proven_kernel(rows, n_cols)[0])
        for j, f in enumerate(lead):
            if j != f:
                kind = "pivot" if f in pivots else "zero" if not any(row[f] for row in rows) else "free"
                seen[kind] += 1
        seen["row"] += len(rows) - len(set(map(tuple, rows)))
    assert min(seen.values()) > 30, seen


def test_dropping_a_repeated_row_may_change_d_not_the_rref():
    """Dropping the repeated rows changes the rows the fraction-free pass
    pivots on: d is 1 with them and -1 without.  The basis divided by d,
    which ``rank_and_nullspace`` returns, is the same."""
    rows = [[0, 1, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1], [0, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0],
            [0, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 0]]
    assert linalg.proven_kernel(rows, 6)[1] == -1 and proven_kernel_reference(rows, 6)[1] == 1
    assert not assert_same_kernel(rows, 6)


@pytest.mark.parametrize(
    "rows, n_cols",
    [([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2), ([[1, 1, 1], [1, 1, 1]], 3)],
    ids=["no rows, no columns", "no rows", "rows of no columns", "one zero row", "zero rows", "one column thrice"],
)
def test_degenerate_shapes_match_reference(rows, n_cols):
    assert_same_kernel(rows, n_cols)
    assert_same_kernel(rows, n_cols, spanning_rows(rows))


def golden_and_dense_incidences():
    """(label, rows, n_cols) for B_H and I_H of every golden instance and of
    three seeded instances of each rank-dense slot of the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    hypergraphs = [(p.name, load_hypergraph(str(p))) for p in sorted((ROOT / "tests" / "golden").glob("*.txt"))]
    rng = random.Random(4102)
    for index in range(3):
        for slot, shape in enumerate(workloads.DENSE_SLOTS):
            inst = workloads.dense_instance(rng, *shape)
            h = build_hypergraph(inst.vertices, [members for _, members in inst.edges], [n for n, _ in inst.edges])
            hypergraphs.append((f"dense{slot} #{index}", h))
    for name, h in hypergraphs:
        yield f"{name} B_H", edge_vertex_incidence(h).entries, h.n_vertices
        yield f"{name} I_H", vertex_edge_incidence(h).entries, h.n_edges


def test_golden_and_dense_incidences_match_reference():
    shapes = 0
    for label, rows, n_cols in golden_and_dense_incidences():
        assert_same_kernel(rows, n_cols, label=label)
        assert_same_kernel(rows, n_cols, spanning_rows(rows), label=label + ", spanning")
        shapes += 1
    assert shapes >= 2 * (len(list((ROOT / "tests" / "golden").glob("*.txt"))) + 12)


def test_elimination_sees_distinct_columns_and_rows(monkeypatch):
    """On rank-dense's slot with 20 clones, B_H (44 x 62) is eliminated at 44
    x 42 and I_H (62 x 44) at 42 x 44; with I_H's pivot rows given, B_H has
    as many rows as distinct columns and is not eliminated at all."""
    shapes = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(
        linalg, "_fraction_free_rref", lambda rows: shapes.append((len(rows), len(rows[0]))) or eliminate(rows)
    )
    rows, n_cols = next((r, n) for label, r, n in golden_and_dense_incidences() if label == "dense3 #0 B_H")
    assert (len(rows), n_cols) == (44, 62)
    assert len(linalg.proven_kernel(rows, n_cols)[0]) == 42
    pivots = linalg.proven_kernel([list(col) for col in zip(*rows)], len(rows))[0]
    assert len(linalg.proven_kernel(rows, n_cols, pivots)[0]) == 42
    assert shapes == [(44, 42), (42, 44)]


# columns a and b are pivots, c = a + b is free, d copies the pivot a and e
# copies the free column c
COPIES = [[1, 0, 1, 1, 1], [0, 1, 1, 0, 1]]


def test_copy_vectors_are_read_off_their_column():
    pivots, d, basis = linalg.proven_kernel(COPIES, 5)
    assert pivots == [0, 1] and d == 1
    assert basis == {2: {2: 1, 0: -1, 1: -1}, 3: {3: 1, 0: -1}, 4: {4: 1, 0: -1, 1: -1}}
    assert list(basis[4]) == [4, 0, 1]


@pytest.mark.parametrize("copy", [3, 4], ids=["copy of a pivot", "copy of a free column"])
@pytest.mark.parametrize("fault", ["entry off by one", "entry moved"])
def test_wrong_copy_vector_fails_re_multiplication(monkeypatch, copy, fault):
    prove = linalg._proven_rank
    seen = []

    def corrupted(rows, n_cols, kernel):
        kernel = [dict(v) for v in kernel]
        vector = next(v for v in kernel if next(iter(v)) == copy)  # a vector's first key is its own column
        seen.append(dict(vector))
        if fault == "entry off by one":
            vector[0] += 1
        else:
            vector[1] = vector.get(1, 0) + vector.pop(0)  # a's entry moved to b
        return prove(rows, n_cols, kernel)

    monkeypatch.setattr(linalg, "_proven_rank", corrupted)
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        linalg.proven_kernel(COPIES, 5)
    assert seen == [{3: 1, 0: -1} if copy == 3 else {4: 1, 0: -1, 1: -1}]


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize(
    "rows, spanning",
    [(COPIES, None), ([[1, 0, 1], [0, 1, 0]], [0, 1])],
    ids=["eliminated", "as many rows as distinct columns"],
)
def test_wrong_modular_rank_with_copies_is_caught(monkeypatch, rows, spanning, shift):
    """A modular rank one off fails, also where the spanning rows are as
    many as the distinct columns and nothing is eliminated: there c copies a."""
    eliminated = []
    eliminate = linalg._fraction_free_rref
    monkeypatch.setattr(linalg, "_fraction_free_rref", lambda rows: eliminated.append(rows) or eliminate(rows))
    modular_rank = linalg._modular_rank
    monkeypatch.setattr(linalg, "_modular_rank", lambda rows, ceiling: modular_rank(rows, ceiling) + shift)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        linalg.proven_kernel(rows, len(rows[0]), spanning)
    assert len(eliminated) == (spanning is None)
