"""``rank_and_nullspace`` against the slow ``Fraction`` RREF it replaced.

``_rref`` below is the reduced-row-echelon routine that used to sit at the
core of ``hyperinc.linalg``, kept verbatim as a test-only reference.  The
fraction-free pass must return the same rank and the same basis vectors, in
the same order, on random 0/1 and rational matrices of every shape.

``_gauss_jordan_reference`` is the fraction-free Gauss-Jordan pass that
followed it, also kept verbatim: every pivot rewrote every other row at every
column.  ``linalg.proven_kernel`` (forward elimination, then back-substitution
on the free columns) must give the same pivots, the same d and the same
kernel basis as read off its reduced rows.
"""

import random
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

from hyperinc import (
    EQUAL_EDGE_PARTITION,
    RationalMatrix,
    VertexVector,
    build_hypergraph,
    edge_vertex_incidence,
    find_certificates_exhaustive,
    nullity_decomposition,
    rank_and_nullspace,
    rank_modular_oracle,
    span_dimension,
    unit_contraction,
)
from conftest import STAGES, shift_stages, stage_of
from hyperinc import linalg
from hyperinc.cli import cmd_rank


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _gauss_jordan_reference(rows: list[list[int]]) -> list[int]:
    """In-place fraction-free Gauss-Jordan elimination; returns the pivot columns.

    For each pivot (r, c) every other row, above and below, becomes
    (piv * row - row[c] * pivot_row) // prev.  Entries stay minors of the input,
    so every division is exact; at the end row r is d times RREF row r, where
    d is the last pivot.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(n_rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def reference_rank_and_nullspace(m: RationalMatrix) -> tuple[int, list[VertexVector]]:
    """Rank and RREF kernel basis, read off as the old implementation did."""
    rref_rows, pivots = _rref([row[:] for row in m.entries])
    vectors = []
    for f in (c for c in range(m.cols) if c not in set(pivots)):
        coords = {m.col_labels[f]: Fraction(1)}
        for r, p in enumerate(pivots):
            if rref_rows[r][f] != 0:
                coords[m.col_labels[p]] = -rref_rows[r][f]
        vectors.append(VertexVector(coords))
    return len(pivots), vectors


def _entry(rng: random.Random, rational: bool) -> Fraction:
    if rng.random() < 0.4:
        return Fraction(0)
    if rational:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 7))
    return Fraction(1)


def random_matrix(rng: random.Random, rows: int, cols: int, rational: bool) -> RationalMatrix:
    """Random matrix whose rank is often below min(rows, cols): some rows
    repeat an earlier row (0/1) or combine two of them (rational), and some
    columns are duplicated."""
    entries = [[_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
    for i in range(2, rows):
        if rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            s, t = (rng.randint(-2, 2), rng.randint(-2, 2)) if rational else (1, 0)
            entries[i] = [s * x + t * y for x, y in zip(entries[a], entries[b])]
    if cols >= 2 and rng.random() < 0.5:
        src, dst = rng.sample(range(cols), 2)
        for row in entries:
            row[dst] = row[src]
    return RationalMatrix(
        entries, [f"r{i}" for i in range(rows)], [str(j) for j in range(cols)]
    )


def random_cases(seed: int, count: int):
    """(label, matrix) pairs: tall, wide, square and zero-row shapes, 0/1 and
    rational, each followed by its transpose."""
    rng = random.Random(seed)
    shapes = ("tall", "wide", "square", "zero-row")
    for index in range(count):
        shape = shapes[index % len(shapes)]
        rational = index % 3 == 0
        if shape == "tall":
            cols = rng.randint(1, 8)
            rows = rng.randint(cols + 1, cols + 6)
        elif shape == "wide":
            rows = rng.randint(1, 8)
            cols = rng.randint(rows + 1, rows + 6)
        elif shape == "square":
            rows = cols = rng.randint(1, 9)
        else:
            rows, cols = 0, rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, rational)
        kind = f"{shape} {'rational' if rational else '0/1'} {rows}x{cols} #{index}"
        yield kind, m
        if rows:
            yield kind + " transposed", m.transpose()


def test_matches_fraction_rref_reference():
    cases = list(random_cases(seed=2409, count=240))
    assert len(cases) >= 400
    assert any(m.rows == 0 for _, m in cases)
    for label, m in cases:
        ns = rank_and_nullspace(m)
        rank, vectors = reference_rank_and_nullspace(m)
        assert ns.rank == rank, label
        assert list(ns.vectors) == vectors, label


def test_span_dimension_matches_reference():
    for label, m in random_cases(seed=16055, count=60):
        if m.rows == 0:
            continue
        vectors = [
            VertexVector({m.col_labels[j]: x for j, x in enumerate(row)}) for row in m.entries
        ]
        rank, _ = reference_rank_and_nullspace(m)
        assert span_dimension(vectors) == rank, label


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for label, m in random_cases(seed=7, count=60):
        if m.rows == 0:
            continue
        exact = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
        )
        ns = rank_and_nullspace(m)
        assert ns.rank == exact.rank(), label
        expected = [
            VertexVector(
                {m.col_labels[j]: Fraction(int(x.p), int(x.q)) for j, x in enumerate(vec)}
            )
            for vec in exact.nullspace()
        ]
        assert list(ns.vectors) == expected, label


# determinant 2: rank 3 over Q, 2 over GF(2), 3 over GF(3) and mod 5
DET_2 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
# determinant 30: rank 2 over Q, 1 modulo 2, 3 and 5
DET_30 = [[1, 1], [1, 31]]


def _matrix(rows: list[list[int]]) -> RationalMatrix:
    return RationalMatrix(
        rows, [f"r{i}" for i in range(len(rows))], [f"c{j}" for j in range(len(rows[0]))]
    )


def test_rank_cross_check_is_wired_in(monkeypatch):
    """A GF(2) rank that is not its count of basis rows fails at once; one
    too high fails; one too low at every stage fails once the primes pass the
    Hadamard bound.  GF(2) proves these ranks, so the GF(2) stage is the one
    shifted alone.  On the tall rank-2 matrix, GF(2) one too high claims full
    column rank: a proof that trusted that claim to skip the elimination
    would return rank 3 with no error."""
    wide = RationalMatrix([[1, 1, 0], [0, 0, 1]], ["r1", "r2"], ["a", "b", "c"])
    tall = _matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2], [2, 1, 3]])
    h = build_hypergraph(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])
    assert rank_and_nullspace(wide).rank == rank_and_nullspace(tall).rank == 2
    assert find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION)
    runs = (
        lambda: rank_and_nullspace(wide),
        lambda: rank_and_nullspace(tall),
        lambda: find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION),
    )
    faults = [(1, ("GF(2)",), False), (-1, ("GF(2)",), False), (1, ("GF(2)",), True), (-1, STAGES, True)]
    for shift, stages, consistent in faults:
        for run in runs:
            with monkeypatch.context() as patch:
                log = shift_stages(patch, shift, stages, consistent)
                with pytest.raises(ArithmeticError, match="rank disagreement"):
                    run()
                assert log[0] == 2


@pytest.mark.parametrize("shift", [1, -1])
def test_prime_stage_after_gf2_is_cross_checked(monkeypatch, shift):
    """GF(2), GF(3) and mod 5 fall short on ``DET_30``, so the prime p0
    decides: a rank one too high or too low there is caught.  GF(2) and
    GF(3) agree on rank 1, the row they choose has a kernel that fails the
    product with the other row, and after every row is eliminated the proof
    runs the stages from GF(2) on."""
    log = shift_stages(monkeypatch, shift, ("primes",))
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        rank_and_nullspace(_matrix(DET_30))
    assert log == [2, 3, 2, 3, 5, linalg._prime(0)]


def test_generated_primes_are_the_primes_above_2_20():
    limit = linalg._prime(39) + 1
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    expected = [n for n in range(2**20, limit) if sieve[n]]
    assert [linalg._prime(i) for i in range(40)] == expected
    assert len(expected) == 40


@pytest.mark.parametrize("n_primes", [1, 2])
def test_prime_falling_short_falls_back(monkeypatch, n_primes):
    """Determinant 30 * p0 (or 30 * p0 * p1): GF(2), GF(3), mod 5 and the
    first prime (or two) give rank 1, the Hadamard bound is not yet passed,
    and the next prime proves rank 2."""
    det = 30 * linalg._prime(0) * (linalg._prime(1) if n_primes == 2 else 1)
    m = RationalMatrix([[1, 1], [1, 1 + det]], ["r1", "r2"], ["a", "b"])
    log = shift_stages(monkeypatch)
    expected = [2, 3, 5] + [linalg._prime(i) for i in range(n_primes + 1)]
    assert rank_and_nullspace(m).rank == 2
    assert log == [2, 3] + expected
    log.clear()
    assert rank_modular_oracle(m) == 2
    assert log == expected


def test_gf2_falling_short_falls_through_to_the_primes(monkeypatch):
    """GF(2) falls short on ``DET_2``, and GF(3) and mod 5 prove its full rank
    with nothing eliminated (the oracle stops at GF(3)); GF(2), GF(3) and mod
    5 all fall short on ``DET_30``, and the first prime proves it, after GF(2)
    and GF(3) agreeing on rank 1 chose a row that does not span."""
    assert linalg._rank_gf2(linalg._residues(DET_2, 2))[0] == 2
    log = shift_stages(monkeypatch)
    assert rank_and_nullspace(_matrix(DET_2)).rank == 3
    assert log == [2, 3, 5]
    log.clear()
    assert rank_modular_oracle(_matrix(DET_2)) == 3
    assert log == [2, 3]
    log.clear()
    assert rank_and_nullspace(_matrix(DET_30)).rank == 2
    assert log == [2, 3, 2, 3, 5, linalg._prime(0)]
    log.clear()
    assert rank_modular_oracle(_matrix(DET_30)) == 2
    assert log == [2, 3, 5, linalg._prime(0)]


def test_odd_determinant_is_proven_by_gf2_alone(monkeypatch):
    """A 0/1 matrix with odd determinant (here -1) has full rank over GF(2):
    the oracle tries no other stage, and ``rank_and_nullspace`` only GF(3)
    besides, the second stage that full rank needs with no elimination."""
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
    log = shift_stages(monkeypatch)
    assert rank_and_nullspace(_matrix(rows)).rank == 4
    assert rank_modular_oracle(_matrix(rows)) == 4
    assert log == [2, 3, 2]


def test_hadamard_bound_stops_a_rank_deficient_oracle(monkeypatch):
    """Rank 1 below the ceiling 2: GF(2) multiplies the product by 4, which
    does not pass the squared Hadamard bound 4, so GF(3) is tried, and then
    the product does."""
    m = RationalMatrix([[1, 1], [1, 1]], ["r1", "r2"], ["a", "b"])
    log = shift_stages(monkeypatch)
    assert rank_modular_oracle(m) == 1
    assert log == [2, 3]


def test_gf2_alone_passes_a_hadamard_bound_of_1(monkeypatch):
    """Rank 1 below the ceiling 2, and the squared Hadamard bound is 1 < 4."""
    log = shift_stages(monkeypatch)
    assert rank_modular_oracle(_matrix([[1, 0], [0, 0]])) == 1
    assert log == [2]


def test_re_multiplication_is_wired_in(monkeypatch):
    # no two columns are equal, so the first free column, c, is eliminated
    m = RationalMatrix([[1, 1, 0], [0, 1, 1]], ["r1", "r2"], ["a", "b", "c"])
    eliminate = linalg._fraction_free_rref

    def corrupted(rows):
        pivots, reduced, d = eliminate(rows)
        reduced[0][0] += 1  # the coefficient of the first free column, c, in pivot row a
        return pivots, reduced, d

    monkeypatch.setattr(linalg, "_fraction_free_rref", corrupted)
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        rank_and_nullspace(m)
    # nullity_decomposition eliminates only the unit contraction C, and only
    # when C is rank-deficient, so C needs a free column at b: here b is
    # isolated, the unit {c, d} is contracted, and C has rank 2 < 3
    h = build_hypergraph(["a", "b", "c", "d"], [["a"], ["c", "d"], ["a", "c", "d"]])
    assert edge_vertex_incidence(unit_contraction(h)[0]).entries == [[1, 0, 0], [0, 0, 1], [1, 0, 1]]
    with pytest.raises(ArithmeticError, match="re-multiplication"):
        nullity_decomposition(h)


GOLDEN = Path(__file__).resolve().parent / "golden"

# each entry point that eliminates, on an input whose first free column is no
# copy of an earlier column (nullity_decomposition eliminates the contraction,
# rank-deficient and with b isolated); ``rank`` eliminates the side that has
# fewer pivots than distinct columns: B_H of dense_14x11 (rank 11 = |E|), I_H
# of units_12x9 (8 distinct stars, 9 edges, rank 8); on the matrix of
# determinant 30 with a zero column, the kernel of the row GF(2) chooses fails
# the product with the other row, every row is eliminated, and the first prime
# proves the rank
ELIMINATING_ENTRY_POINTS = {
    "rank, I_H of full row rank": lambda: cmd_rank(Namespace(file=str(GOLDEN / "dense_14x11.txt"))),
    "rank, I_H rank-deficient": lambda: cmd_rank(Namespace(file=str(GOLDEN / "units_12x9.txt"))),
    "rank_and_nullspace": lambda: rank_and_nullspace(_matrix([[1, 1, 0], [0, 1, 1]])),
    "rank_and_nullspace, the primes deciding": lambda: rank_and_nullspace(_matrix([[1, 1, 0], [1, 31, 0]])),
    "nullity_decomposition": lambda: nullity_decomposition(
        build_hypergraph(["a", "b", "c", "d"], [["a"], ["c", "d"], ["a", "c", "d"]])
    ),
    "find_certificates_exhaustive": lambda: find_certificates_exhaustive(
        build_hypergraph(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]]),
        EQUAL_EDGE_PARTITION,
    ),
    "span_dimension": lambda: span_dimension(
        [VertexVector({"a": 1, "b": 1}), VertexVector({"b": 1, "c": 1}), VertexVector({"a": 2, "b": 3, "c": 1})]
    ),
}


@pytest.mark.parametrize("fault", ["wrong_entry", 1, -1])
@pytest.mark.parametrize("entry", sorted(ELIMINATING_ENTRY_POINTS))
def test_every_elimination_is_proven(monkeypatch, entry, fault):
    """A wrong entry in the free-column block of the elimination raises at
    every entry point that eliminates, and so does each of the four rank
    stages one too high or one too low, wherever it runs."""
    run = ELIMINATING_ENTRY_POINTS[entry]
    run()
    if fault == "wrong_entry":
        eliminate = linalg._fraction_free_rref

        def corrupted(rows):
            pivots, reduced, d = eliminate(rows)
            reduced[0][0] += 1
            return pivots, reduced, d

        monkeypatch.setattr(linalg, "_fraction_free_rref", corrupted)
        with pytest.raises(ArithmeticError, match="re-multiplication"):
            run()
        return
    for stage in STAGES:
        with monkeypatch.context() as patch:
            log = shift_stages(patch, fault, (stage,), consistent=False)
            try:
                run()
            except ArithmeticError as exc:
                assert "rank disagreement" in str(exc), stage
            else:
                assert stage not in map(stage_of, log), stage


def test_every_stage_runs_at_an_eliminating_entry_point(monkeypatch):
    """So each stage one off is caught somewhere above."""
    ran = set()
    for run in ELIMINATING_ENTRY_POINTS.values():
        with monkeypatch.context() as patch:
            log = shift_stages(patch)
            run()
            ran.update(map(stage_of, log))
    assert ran == set(STAGES)


def _re_multiplication_reference(rows: list[list[int]], kernel: list[dict[int, int]]) -> bool:
    """The per-vector re-multiplication the rank proof ran before the
    vectors were packed: True when every vector times every row is 0."""
    sparse_rows = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    return not any(
        any(sum(a * scaled.get(j, 0) for j, a in row) for row in sparse_rows) for scaled in kernel
    )


def _re_multiplication_passes(m: RationalMatrix, kernel) -> bool:
    """Whether ``_proven_rank`` takes ``kernel`` on ``m``, told a rank that
    agrees, so only the re-multiplication decides."""
    try:
        linalg._proven_rank(m, kernel, m.cols - len(kernel))
    except ArithmeticError as exc:
        assert "re-multiplication" in str(exc)
        return False
    return True


def _mask_matrix(rows: list[list[int]]) -> RationalMatrix:
    """The 0/1 ``rows`` as a mask matrix, as an incidence matrix holds them."""
    n_cols = len(rows[0]) if rows else 0
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    col_masks = [sum(1 << i for i, row in enumerate(rows) if row[j]) for j in range(n_cols)]
    return RationalMatrix._from_masks(masks, col_masks, tuple(map(str, range(len(rows)))), tuple(map(str, range(n_cols))))


def test_packed_re_multiplication_matches_per_vector_reference():
    """``_proven_rank`` multiplies all kernel vectors through the rows in one
    pass of ``_row_totals`` over packed integers, mask rows at their set
    bits and integer rows entry by entry.  It must judge as the per-vector
    check does: on every echelon case, as integer rows and, when 0/1, as mask
    rows too, the true basis, and the basis with one entry of one vector
    moved by +-1; and on products that would carry from one field into the
    next if the fields were narrower."""
    rng = random.Random(2612)
    rejected = masks = 0
    for label, rows in _echelon_cases(seed=2612):
        n_cols = len(rows[0]) if rows else 0
        forms = [linalg._integer_matrix(rows, n_cols)]
        if all(x in (0, 1) for row in rows for x in row):
            forms.append(_mask_matrix(rows))
        basis = list(linalg.proven_kernel(forms[0])[2].values())
        variants = [basis]
        if basis:
            wrong = [dict(v) for v in basis]
            k, j = rng.randrange(len(wrong)), rng.randrange(n_cols)
            wrong[k][j] = wrong[k].get(j, 0) + rng.choice((-1, 1))
            variants.append(wrong)
        for kernel in variants:
            expected = _re_multiplication_reference(rows, kernel)
            for m in forms:
                assert _re_multiplication_passes(m, kernel) == expected, label
            rejected += not expected
            masks += len(forms) - 1
    assert rejected > 100 and masks > 20
    # one row [1, 1]: products 2**e and -1 would cancel in fields of e bits
    for m in (linalg._integer_matrix([[1, 1]], 2), _mask_matrix([[1, 1]])):
        for e in range(1, 80):
            assert not _re_multiplication_passes(m, [{0: 1 << e}, {1: -1}])
            assert _re_multiplication_passes(m, [{0: 1 << e, 1: -(1 << e)}, {0: -1, 1: 1}])


def _dense_01(rng: random.Random, rows: int, base: int, clones: int) -> list[list[int]]:
    """Random 0/1 rows on ``base`` columns, then ``clones`` columns that copy
    a random base column (a unit of B_H)."""
    out = [[int(rng.random() < 0.5) for _ in range(base)] for _ in range(rows)]
    for _ in range(clones):
        src = rng.randrange(base)
        for row in out:
            row.append(row[src])
    return out


def _deficient(rng: random.Random, rows: int, cols: int, rank: int) -> list[list[int]]:
    """Integer rows of rank at most ``rank``: combinations of ``rank`` random rows."""
    basis = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(cols)] for _ in range(rows)
    ]


def _echelon_cases(seed: int):
    """(label, integer rows) for each shape, each followed by its transpose."""
    rng = random.Random(seed)
    cases = []
    for index in range(3):
        cases += [
            (f"0/1 30x50 #{index}", _dense_01(rng, 30, 40, 10)),
            (f"0/1 36x46 #{index}", _dense_01(rng, 36, 46, 0)),
            (f"0/1 44x62 with 20 duplicate columns #{index}", _dense_01(rng, 44, 42, 20)),
        ]
    for index in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = random_matrix(rng, rows, cols, rational=True)
        cleared = linalg._cleared_integer_rows(m.entries)
        cases.append((f"cleared rational {rows}x{cols} #{index}", cleared))
        rank = rng.randint(0, min(rows, cols))
        cases.append((f"rank <= {rank} {rows}x{cols} #{index}", _deficient(rng, rows, cols, rank)))
        m = _deficient(rng, rows + 2, cols + 2, rng.randint(1, min(rows, cols)))
        zero_row, zero_col = rng.randrange(rows + 2), rng.randrange(cols + 2)
        m[zero_row] = [0] * (cols + 2)
        for row in m:
            row[zero_col] = 0
        cases.append((f"zero row {zero_row} and column {zero_col} #{index}", m))
    for label, rows in cases:
        yield label, rows
        if rows:
            yield label + " transposed", [list(col) for col in zip(*rows)]
    yield "no rows", []
    yield "3x0", [[], [], []]


def test_echelon_matches_gauss_jordan_reference():
    """Pivots and the basis read off the reference's rows: d at each free
    column f and, for each pivot, minus f's entry in that pivot's row, in
    column order.  The rows eliminated are a stage's basis rows, so each
    vector divided by d is the reference's, and with d the vector itself
    where every row is eliminated, in order: at full row rank below the
    distinct columns."""
    cases = list(_echelon_cases(seed=1717))
    assert len(cases) >= 250
    exact = 0
    for label, rows in cases:
        n_cols = len(rows[0]) if rows else 0
        expected = [row[:] for row in rows]
        pivots = _gauss_jordan_reference(expected)
        d = expected[len(pivots) - 1][pivots[-1]] if pivots else 1
        basis = [
            (f, [(f, d)] + [(p, -row[f]) for p, row in zip(pivots, expected) if row[f]])
            for f in range(n_cols) if f not in pivots
        ]
        found_pivots, found_d, found_basis = linalg.proven_kernel(linalg._integer_matrix(rows, n_cols))
        found = [(f, list(v.items())) for f, v in found_basis.items()]
        assert found_pivots == pivots, label
        assert [(f, [(j, Fraction(x, found_d)) for j, x in v]) for f, v in found] == [
            (f, [(j, Fraction(x, d)) for j, x in v]) for f, v in basis
        ], label
        if len(pivots) == len(rows) < len(set(zip(*rows))):
            assert (found_d, found) == (d, basis), label
            exact += 1
    assert exact > 50


def _stage(m: RationalMatrix, p: int) -> tuple[int, list[int]]:
    """The rank and basis rows of the stage of ``linalg._stage`` at p = 2, 3 or
    5, stopped at the dimension bound min(rows, cols), and the same without
    the stop."""
    q, rank, rows = linalg._stage(m, (2, 3, 5).index(p), min(m.rows, m.cols))
    assert q == p and (rank, rows) == linalg._stage(m, (2, 3, 5).index(p), None)[1:]
    return rank, rows


def _forms(rows: list[list[int]]) -> list[RationalMatrix]:
    """Integer ``rows``, which reach GF(2) and GF(3) through their residues,
    and, when they are 0/1, the mask matrix of them too."""
    n_cols = len(rows[0]) if rows else 0
    forms = [linalg._integer_matrix(rows, n_cols)]
    if all(x in (0, 1) for row in rows for x in row):
        forms.append(_mask_matrix(rows))
    return forms


def _dense_slot_cases(rng: random.Random, shapes) -> list:
    """Seeded 0/1 matrices of each (rows, base, clones) shape, each with its transpose."""
    cases = []
    for index in range(20):
        for rows, base, clones in shapes:
            b = _dense_01(rng, rows, base, clones)
            cases.append((f"0/1 {rows}x{base + clones} #{index}", b))
            cases.append((f"0/1 {rows}x{base + clones} #{index} transposed", [list(c) for c in zip(*b)]))
    return cases


def _assert_stage_matches(p: int, cases) -> int:
    """Stage p of the ladder against ``_rank_mod_p(rows, p)`` on every case, in
    each of its forms; its basis rows alone have that rank again at stage p.
    Returns how many cases it put below the rank over Q."""
    assert any(abs(x) > 5 for _, rows in cases for row in rows for x in row)
    assert any(x < 0 for _, rows in cases for row in rows for x in row)
    short = 0
    for label, rows in cases:
        expected = linalg._rank_mod_p(rows, p)[0]
        for m in _forms(rows):
            rank, basis = _stage(m, p)
            assert rank == expected == len(basis) == len(set(basis)), label
            alone = [rows[i] for i in basis]
            assert _stage(linalg._integer_matrix(alone, m.cols), p)[0] == rank, label
        short += expected < len(linalg.proven_kernel(_forms(rows)[0])[0])
    return short


# the rank-dense shapes of the benchmark, as (rows, base columns, copies)
DENSE_SLOT_SHAPES = ((30, 40, 10), (36, 46, 0), (44, 42, 20))


def test_gf2_rank_matches_prime_field_rank_at_2():
    """GF(2), on masks and on the residues of integer rows, against
    ``_rank_mod_p`` run at p = 2, on every echelon case (negative and large
    entries among them) and on matrices of the three rank-dense shapes, each
    with its transpose: 30 x 50 with 10 duplicate columns, 36 x 46, and 44 x
    62 with 20."""
    rng = random.Random(2203)
    assert _assert_stage_matches(2, list(_echelon_cases(seed=2203)) + _dense_slot_cases(rng, DENSE_SLOT_SHAPES))


# a 0/1 matrix of determinant -3: rank 4 over Q and GF(2), 3 over GF(3)
DET_3 = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0]]


def test_gf3_rank_matches_prime_field_rank_at_3():
    """The bitsliced GF(3) rank against ``_rank_mod_p`` run at p = 3, on
    every echelon case (negative and large entries among them: wide, tall,
    square and rank-deficient), on seeded 0/1 masks of the three rank-dense
    shapes and their transposes, and on ``DET_3``, where it falls short of
    the rational rank."""
    rng = random.Random(2204)
    shapes = DENSE_SLOT_SHAPES + ((6, 9, 0), (9, 6, 0), (8, 8, 0))
    cases = list(_echelon_cases(seed=2204)) + _dense_slot_cases(rng, shapes) + [("determinant -3", DET_3)]
    assert _assert_stage_matches(3, cases)
    assert _stage(linalg._integer_matrix(DET_3, 4), 3)[0] == 3


# determinant 5: rank 3 over Q, GF(2) and GF(3), 2 mod 5
DET_5 = [[1, 0, 0], [0, 1, 1], [0, 1, 6]]


def test_mod_5_stage_matches_prime_field_rank_at_5():
    """The dense mod-5 stage, fed an incidence matrix's masks or integer rows,
    against ``_rank_mod_p`` run at p = 5 on the same cases, and on ``DET_5``,
    where it falls short of the rational rank."""
    rng = random.Random(2205)
    cases = list(_echelon_cases(seed=2205)) + _dense_slot_cases(rng, DENSE_SLOT_SHAPES) + [("determinant 5", DET_5)]
    assert _assert_stage_matches(5, cases)
    assert [_stage(linalg._integer_matrix(DET_5, 3), p)[0] for p in (2, 3, 5)] == [3, 3, 2]
