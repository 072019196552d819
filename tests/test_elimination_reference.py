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


def _count_rank_mod_p_calls(monkeypatch, shift: int = 0, shift_gf2: bool = True) -> list:
    """Patch ``_rank_gf2`` and ``_rank_mod_p`` to log the prime of each stage
    (2 for GF(2)) and add ``shift`` to its answer (at GF(2) only if
    ``shift_gf2``); more than ten calls fail."""
    primes = []
    rank_gf2, rank_mod_p = linalg._rank_gf2, linalg._rank_mod_p

    def counted(rows, p):
        primes.append(p)
        assert len(primes) <= 10, "the modular rank did not stop"
        if p == 2:
            return rank_gf2(rows) + (shift if shift_gf2 else 0)
        return rank_mod_p(rows, p) + shift

    monkeypatch.setattr(linalg, "_rank_gf2", lambda rows: counted(rows, 2))
    monkeypatch.setattr(linalg, "_rank_mod_p", counted)
    return primes


# determinant 2: rank 3 over Q, rank 2 over GF(2)
DET_2 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def _matrix(rows: list[list[int]]) -> RationalMatrix:
    return RationalMatrix(
        rows, [f"r{i}" for i in range(len(rows))], [f"c{j}" for j in range(len(rows[0]))]
    )


def test_rank_cross_check_is_wired_in(monkeypatch):
    """A modular rank one too high fails at once; one too low at every stage
    fails once the primes pass the Hadamard bound.  GF(2) proves these ranks,
    so the GF(2) stage is the one shifted.  On the tall rank-2 matrix, GF(2)
    one too high claims full column rank: a proof that trusted that claim to
    skip the elimination would return rank 3 with no error."""
    wide = RationalMatrix([[1, 1, 0], [0, 0, 1]], ["r1", "r2"], ["a", "b", "c"])
    tall = _matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2], [2, 1, 3]])
    h = build_hypergraph(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])
    assert rank_and_nullspace(wide).rank == rank_and_nullspace(tall).rank == 2
    assert find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION)
    for shift in (1, -1):
        with monkeypatch.context() as patch:
            primes = _count_rank_mod_p_calls(patch, shift)
            for m in (wide, tall):
                with pytest.raises(ArithmeticError, match="rank disagreement"):
                    rank_and_nullspace(m)
            with pytest.raises(ArithmeticError, match="rank disagreement"):
                find_certificates_exhaustive(h, EQUAL_EDGE_PARTITION)
            assert primes[0] == 2


@pytest.mark.parametrize("shift", [1, -1])
def test_prime_stage_after_gf2_is_cross_checked(monkeypatch, shift):
    """GF(2) falls short on ``DET_2``, so the prime p0 decides: a rank one
    too high or too low there is caught."""
    primes = _count_rank_mod_p_calls(monkeypatch, shift, shift_gf2=False)
    with pytest.raises(ArithmeticError, match="rank disagreement"):
        rank_and_nullspace(_matrix(DET_2))
    assert primes == [2, linalg._prime(0)]


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
    """Determinant 2 * p0 (or 2 * p0 * p1): GF(2) and the first prime (or
    two) give rank 1, the Hadamard bound is not yet passed, and the next
    prime proves rank 2."""
    det = 2 * linalg._prime(0) * (linalg._prime(1) if n_primes == 2 else 1)
    m = RationalMatrix([[1, 1], [1, 1 + det]], ["r1", "r2"], ["a", "b"])
    primes = _count_rank_mod_p_calls(monkeypatch)
    expected = [2] + [linalg._prime(i) for i in range(n_primes + 1)]
    assert rank_and_nullspace(m).rank == 2
    assert primes == expected
    primes.clear()
    assert rank_modular_oracle(m) == 2
    assert primes == expected


def test_gf2_falling_short_falls_through_to_the_primes(monkeypatch):
    assert linalg._rank_gf2(map(linalg._odd_mask, DET_2)) == 2
    primes = _count_rank_mod_p_calls(monkeypatch)
    assert rank_and_nullspace(_matrix(DET_2)).rank == 3
    assert primes == [2, linalg._prime(0)]
    primes.clear()
    assert rank_modular_oracle(_matrix(DET_2)) == 3
    assert primes == [2, linalg._prime(0)]


def test_odd_determinant_is_proven_by_gf2_alone(monkeypatch):
    """A 0/1 matrix with odd determinant (here -1) has full rank over GF(2):
    no prime above 2**20 is tried."""
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
    primes = _count_rank_mod_p_calls(monkeypatch)
    assert rank_and_nullspace(_matrix(rows)).rank == 4
    assert rank_modular_oracle(_matrix(rows)) == 4
    assert primes == [2, 2]


def test_hadamard_bound_stops_a_rank_deficient_oracle(monkeypatch):
    """Rank 1 below the ceiling 2: GF(2) multiplies the product by 4, which
    does not pass the squared Hadamard bound 4, so p0 is tried, and then the
    product does."""
    m = RationalMatrix([[1, 1], [1, 1]], ["r1", "r2"], ["a", "b"])
    primes = _count_rank_mod_p_calls(monkeypatch)
    assert rank_modular_oracle(m) == 1
    assert primes == [2, linalg._prime(0)]


def test_gf2_alone_passes_a_hadamard_bound_of_1(monkeypatch):
    """Rank 1 below the ceiling 2, and the squared Hadamard bound is 1 < 4."""
    primes = _count_rank_mod_p_calls(monkeypatch)
    assert rank_modular_oracle(_matrix([[1, 0], [0, 0]])) == 1
    assert primes == [2]


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
# rank-deficient and with b isolated); ``rank`` eliminates B_H, then I_H on its
# rows at B_H's pivot columns, none for dense_14x11 (rank 11 = |E|), or, when
# B_H has fewer distinct columns than rows, I_H's distinct rows first, as for
# units_12x9 (8 distinct stars, 9 edges), then B_H on none, at rank 8
ELIMINATING_ENTRY_POINTS = {
    "rank, I_H of full row rank": lambda: cmd_rank(Namespace(file=str(GOLDEN / "dense_14x11.txt"))),
    "rank, I_H rank-deficient": lambda: cmd_rank(Namespace(file=str(GOLDEN / "units_12x9.txt"))),
    "rank_and_nullspace": lambda: rank_and_nullspace(_matrix([[1, 1, 0], [0, 1, 1]])),
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
    """A wrong entry in the free-column block of the elimination, or a modular
    rank one too high or too low, raises at every entry point that eliminates."""
    run = ELIMINATING_ENTRY_POINTS[entry]
    run()
    if fault == "wrong_entry":
        eliminate = linalg._fraction_free_rref

        def corrupted(rows):
            pivots, reduced, d = eliminate(rows)
            reduced[0][0] += 1
            return pivots, reduced, d

        monkeypatch.setattr(linalg, "_fraction_free_rref", corrupted)
        message = "re-multiplication"
    else:
        modular_rank = linalg._modular_rank
        monkeypatch.setattr(linalg, "_modular_rank", lambda rows, ceiling: modular_rank(rows, ceiling) + fault)
        message = "rank disagreement"
    with pytest.raises(ArithmeticError, match=message):
        run()


def _re_multiplication_reference(rows: list[list[int]], kernel: list[dict[int, int]]) -> bool:
    """The per-vector re-multiplication the rank proof ran before the
    vectors were packed: True when every vector times every row is 0."""
    sparse_rows = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    return not any(
        any(sum(a * scaled.get(j, 0) for j, a in row) for row in sparse_rows) for scaled in kernel
    )


def _re_multiplication_passes(rows, n_cols, kernel) -> bool:
    try:
        linalg._proven_rank(rows, n_cols, kernel)
    except ArithmeticError as exc:
        assert "re-multiplication" in str(exc)
        return False
    return True


def test_packed_re_multiplication_matches_per_vector_reference(monkeypatch):
    """``_proven_rank`` multiplies all kernel vectors through the rows in one
    pass over packed integers.  It must judge as the per-vector check does:
    on every echelon case, the true basis, and the basis with one entry of one
    vector moved by +-1; and on products that would carry from one field into
    the next if the fields were narrower.  The modular rank is made to agree,
    so only the re-multiplication decides."""
    monkeypatch.setattr(linalg, "_modular_rank", lambda rows, ceiling: ceiling)
    rng = random.Random(2612)
    rejected = 0
    for label, rows in _echelon_cases(seed=2612):
        n_cols = len(rows[0]) if rows else 0
        basis = list(linalg.proven_kernel(rows, n_cols)[2].values())
        variants = [basis]
        if basis:
            wrong = [dict(v) for v in basis]
            k, j = rng.randrange(len(wrong)), rng.randrange(n_cols)
            wrong[k][j] = wrong[k].get(j, 0) + rng.choice((-1, 1))
            variants.append(wrong)
        for kernel in variants:
            expected = _re_multiplication_reference(rows, kernel)
            assert _re_multiplication_passes(rows, n_cols, kernel) == expected, label
            rejected += not expected
    assert rejected > 100
    # one row [1, 1]: products 2**e and -1 would cancel in fields of e bits
    for e in range(1, 80):
        kernel = [{0: 1 << e}, {1: -1}]
        assert not _re_multiplication_passes([[1, 1]], 2, kernel)
        assert _re_multiplication_passes([[1, 1]], 2, [{0: 1 << e, 1: -(1 << e)}, {0: -1, 1: 1}])


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
    """Pivots, d and the basis read off the reference's rows: d at each free
    column f and, for each pivot, minus f's entry in that pivot's row, in
    column order."""
    cases = list(_echelon_cases(seed=1717))
    assert len(cases) >= 250
    for label, rows in cases:
        n_cols = len(rows[0]) if rows else 0
        expected = [row[:] for row in rows]
        pivots = _gauss_jordan_reference(expected)
        d = expected[len(pivots) - 1][pivots[-1]] if pivots else 1
        basis = [
            (f, [(f, d)] + [(p, -row[f]) for p, row in zip(pivots, expected) if row[f]])
            for f in range(n_cols) if f not in pivots
        ]
        found_pivots, found_d, found_basis = linalg.proven_kernel(rows, n_cols)
        assert (found_pivots, found_d) == (pivots, d), label
        assert [(f, list(v.items())) for f, v in found_basis.items()] == basis, label


def test_gf2_rank_matches_prime_field_rank_at_2():
    """The bit-row GF(2) rank, of each row's ``_odd_mask``, against
    ``_rank_mod_p`` run at p = 2, on every echelon case and on more matrices
    of the three rank-dense shapes, each with its transpose: 30 x 50 with 10
    duplicate columns, 36 x 46, and 44 x 62 with 20."""
    cases = list(_echelon_cases(seed=2203))
    rng = random.Random(2203)
    for index in range(20):
        for rows, base, clones in ((30, 40, 10), (36, 46, 0), (44, 42, 20)):
            b = _dense_01(rng, rows, base, clones)
            cases.append((f"0/1 {rows}x{base + clones} #{index}", b))
            cases.append((f"0/1 {rows}x{base + clones} #{index} transposed", [list(c) for c in zip(*b)]))
    deficient = 0
    for label, rows in cases:
        rank = linalg._rank_gf2(map(linalg._odd_mask, rows))
        assert rank == linalg._rank_mod_p(rows, 2), label
        deficient += rank < len(linalg.proven_kernel(rows, len(rows[0]) if rows else 0)[0])
    assert deficient


def _bitsliced(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Each integer row as the masks of its entries = 1 and = 2 (mod 3)."""
    return [
        tuple(sum(1 << j for j, x in enumerate(row) if x % 3 == r) for r in (1, 2)) for row in rows
    ]


# a 0/1 matrix of determinant -3: rank 4 over Q and GF(2), 3 over GF(3)
DET_3 = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0]]


def test_gf3_rank_matches_prime_field_rank_at_3():
    """The bitsliced GF(3) rank against ``_rank_mod_p`` run at p = 3, on
    every echelon case (negative and large entries among them: wide, tall,
    square and rank-deficient), on seeded 0/1 masks of the three rank-dense
    shapes and their transposes, and on ``DET_3``, where it falls short of
    the rational rank."""
    cases = list(_echelon_cases(seed=2204))
    rng = random.Random(2204)
    for index in range(20):
        for rows, base, clones in ((30, 40, 10), (36, 46, 0), (44, 42, 20), (6, 9, 0), (9, 6, 0), (8, 8, 0)):
            b = _dense_01(rng, rows, base, clones)
            cases.append((f"0/1 {rows}x{base + clones} #{index}", b))
            cases.append((f"0/1 {rows}x{base + clones} #{index} transposed", [list(c) for c in zip(*b)]))
    cases.append(("determinant -3", DET_3))
    assert any(abs(x) > 3 for _, rows in cases for row in rows for x in row)
    assert any(x < 0 for _, rows in cases for row in rows for x in row)
    short = 0
    for label, rows in cases:
        rank = linalg._rank_gf3(_bitsliced(rows))
        assert rank == linalg._rank_mod_p(rows, 3), label
        short += rank < len(linalg.proven_kernel(rows, len(rows[0]) if rows else 0)[0])
    assert short and linalg._rank_gf3(_bitsliced(DET_3)) == 3
