"""Exact dense matrices over Q: incidence matrices, rank, null-space bases.

Everything here is tolerance-free.  Rank and kernel come from one exact
fraction-free Gauss-Jordan pass on a denominator-cleared integer copy, and the
rank is cross-checked by a separate Bareiss elimination.  Null-space bases are
the normalised RREF bases, so they are deterministic, and every basis vector is
re-multiplied through the integer matrix before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidParameters, NonIntegerEntries
from .hypergraph import Hypergraph, VertexVector

# primes just above 2**20.  A prime can divide every maximal non-zero minor, so the
# rank mod p is only a lower bound on the rank over Q: a cheap check, not a proof
ORACLE_PRIME_POOL = (
    1048583, 1048589, 1048601, 1048609, 1048613,
    1048627, 1048633, 1048661, 1048681, 1048703,
)


class RationalMatrix:
    """Dense labelled matrix with ``Fraction`` entries."""

    __slots__ = ("entries", "row_labels", "col_labels")

    def __init__(
        self,
        entries: Sequence[Sequence],
        row_labels: Sequence[str],
        col_labels: Sequence[str],
    ):
        # Fractions are immutable, so given ones are shared rather than copied
        rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in entries]
        cols = len(col_labels)
        if any(len(row) != cols for row in rows):
            raise DimensionMismatch("row length does not match column label count")
        if len(rows) != len(row_labels):
            raise DimensionMismatch("entry rows do not match row label count")
        if len(set(row_labels)) != len(row_labels) or len(set(col_labels)) != len(col_labels):
            raise InvalidParameters("matrix labels must be unique")
        self.entries: list[list[Fraction]] = rows
        self.row_labels: tuple[str, ...] = tuple(str(x) for x in row_labels)
        self.col_labels: tuple[str, ...] = tuple(str(x) for x in col_labels)

    @property
    def rows(self) -> int:
        return len(self.row_labels)

    @property
    def cols(self) -> int:
        return len(self.col_labels)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i])

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.entries]

    def transpose(self) -> "RationalMatrix":
        flipped = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return RationalMatrix(flipped, self.col_labels, self.row_labels)

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class NullspaceBasis:
    """Exact kernel basis together with the rank it certifies."""

    rank: int
    cols: int
    vectors: tuple[VertexVector, ...]

    def __post_init__(self):
        if self.rank + len(self.vectors) != self.cols:
            raise DimensionMismatch("rank + nullity must equal the column count")

    @property
    def nullity(self) -> int:
        return len(self.vectors)


def _mask_rows(masks: Sequence[int], width: int) -> list[list[Fraction]]:
    """0/1 rows of ``width`` entries; entry j of a row is bit j of its mask."""
    one, zero = Fraction(1), Fraction(0)
    # a sentinel bit at ``width`` fixes the digit count: "0b1" then the row, reversed
    return [
        [one if bit == "1" else zero for bit in bin(mask | 1 << width)[:2:-1]]
        for mask in masks
    ]


def edge_vertex_incidence(h: Hypergraph) -> RationalMatrix:
    """|E| x |V| 0/1 matrix; rows are hyperedges, columns are vertices."""
    return RationalMatrix(_mask_rows(h.edge_masks, h.n_vertices), h.edge_labels, h.vertices)


def vertex_edge_incidence(h: Hypergraph) -> RationalMatrix:
    """The transpose: rows are vertices, columns are hyperedges."""
    return RationalMatrix(_mask_rows(h.star_masks, h.n_edges), h.vertices, h.edge_labels)


def _fraction_free_rref(rows: list[list[int]]) -> list[int]:
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


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free integer elimination; all divisions are exact."""
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def _cleared_integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def rank_and_nullspace(m: RationalMatrix) -> NullspaceBasis:
    """Exact rank and a deterministic kernel basis.

    The basis vector for a free column f has 1 at f and, for each pivot
    column, minus the RREF coefficient of f in that pivot's row.  The rank is
    cross-checked by Bareiss elimination, and each vector, scaled by the last
    pivot to integers, is re-multiplied through the cleared integer rows.
    """
    cleared = _cleared_integer_rows(m.entries)
    reduced = [row[:] for row in cleared]
    pivots = _fraction_free_rref(reduced)
    rank = len(pivots)
    bareiss = _bareiss_rank(cleared)
    if bareiss != rank:
        raise ArithmeticError(
            f"rank disagreement: Bareiss {bareiss} vs fraction-free Gauss-Jordan {rank}"
        )

    d = reduced[rank - 1][pivots[-1]] if pivots else 1
    sparse_rows = [[(j, a) for j, a in enumerate(row) if a] for row in cleared]
    pivot_set = set(pivots)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        scaled = {f: d}  # d times the basis vector, as integers
        for r, p in enumerate(pivots):
            if reduced[r][f]:
                scaled[p] = -reduced[r][f]
        if any(sum(a * scaled.get(j, 0) for j, a in row) for row in sparse_rows):
            raise ArithmeticError("null-space basis vector failed re-multiplication")
        vectors.append(VertexVector({m.col_labels[j]: Fraction(x, d) for j, x in scaled.items()}))
    return NullspaceBasis(rank=rank, cols=m.cols, vectors=tuple(vectors))


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def rank_modular_oracle(m: RationalMatrix, n_primes: int = 3, seed: int = 0) -> int:
    """Rank over GF(p) for several primes > 2**20; returns the maximum.

    Only valid on integer matrices.  The modular rank never exceeds the
    rational rank, and falls below it when p divides every maximal non-zero
    minor, so the result is a lower bound: a cheap independent check, not a
    proof of the rational rank.
    """
    if not m.is_integer():
        raise NonIntegerEntries("modular rank oracle requires integer entries")
    rows = [[int(x) for x in row] for row in m.entries]
    rng = random.Random(seed)
    primes = rng.sample(ORACLE_PRIME_POOL, min(n_primes, len(ORACLE_PRIME_POOL)))
    return max(_rank_mod_p(rows, p) for p in primes)


def matvec(m: RationalMatrix, x) -> dict[str, object]:
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


def span_dimension(vectors: Iterable[VertexVector]) -> int:
    """Dimension of the span of rational sparse vectors (exact elimination)."""
    vecs = list(vectors)
    labels = sorted({k for v in vecs for k in v.support()})
    rows = _cleared_integer_rows([Fraction(v.value(k)) for k in labels] for v in vecs)
    return len(_fraction_free_rref(rows))
