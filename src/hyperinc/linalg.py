"""Exact matrices over Q: incidence matrices, rank, null-space bases.

Everything here is tolerance-free.  A rank is bounded below by one ladder
of independent stages (``_ladder``), run in order on an integer matrix:
GF(2) by an XOR basis of the row masks, GF(3) by a bitsliced basis of two
masks per row, a dense elimination mod 5, then mod the primes above 2**20.
A rank mod p never exceeds the rank over Q; each stage also names the rows
of its basis.  An incidence matrix feeds GF(2) and GF(3) its own row masks;
integer rows are first reduced to their residue masks.

Every kernel basis, and the rank it certifies, comes from ``proven_kernel``:
one exact fraction-free elimination (Bareiss forward, then back-substitution
on the free columns) of each distinct column once, on the rows of the stage
of highest rank; a later copy of a column takes its vector from the column
it copies.  Its null-space bases are the normalised RREF bases, so they are
deterministic, and every basis vector, copies included, is re-multiplied
through all rows (``_proven_rank``), which bounds the rank above.  Rows that
fall short of spanning fail that product and every distinct row is
eliminated instead.  Two stages at the dimension bound min(rows, cols)
prove full rank with no elimination; a stage above it raises.  ``hyperinc
contract`` proves so the unit contraction's rank and B_H's, and ``hyperinc
rank`` eliminates at most rank x distinct-columns cells of each side.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, compress, count
from math import isqrt, lcm, prod

from .errors import DimensionMismatch, InvalidParameters, NonIntegerEntries
from .hypergraph import Hypergraph, Record, VertexVector, _set, _str_keyed, bit_indices

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_ZERO = Fraction(0)  # shared by every zero row of a product; Fractions are immutable
# vectors ``packed_matvec`` packs into one integer per column: the cost of
# packing and reading a pack grows with the square of its size
PACKED_VECTORS = 64

# optional sign, digits, then optional /digits or .digits; no exponent, which
# would let a short string such as "1e-10000000" stall Fraction()
_FRACTION_TEXT = re.compile(r"[+-]?\d+(?:/\d+|\.\d+)?")


def exact_rational(x) -> int | Fraction:
    """The one rule for a number given to the package: an ``int`` or a
    ``Fraction`` is returned as it is, a ``str`` is read by the text rule
    above, and anything else (a bool, float, complex number, ``Decimal``,
    cyclotomic number or None) raises InvalidParameters."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if not isinstance(x, str):
        raise InvalidParameters(
            f"{x!r} is a {type(x).__name__}, not an exact rational: "
            "use an int, a Fraction or a fraction string"
        )
    s = x.strip()
    if not _FRACTION_TEXT.fullmatch(s):
        raise InvalidParameters(f"Invalid literal for Fraction: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or too many digits
        raise InvalidParameters(f"{s!r}: {exc}") from None


class RationalMatrix:
    """Labelled matrix with exact rational entries, each read by
    ``exact_rational``, which keeps an ``int`` or a ``Fraction`` as given.

    An incidence matrix keeps its 0/1 rows and columns as bitmasks: cell
    (i, j) is bit j of row mask i and bit i of column mask j, and the list
    ``entries`` is built from the masks the first time something asks for it.
    """

    __slots__ = ("_entries", "_masks", "_col_masks", "row_labels", "col_labels")

    def __init__(
        self,
        entries: Sequence[Sequence],
        row_labels: Sequence[str],
        col_labels: Sequence[str],
    ):
        rows = [[exact_rational(x) for x in row] for row in entries]
        cols = len(col_labels)
        if any(len(row) != cols for row in rows):
            raise DimensionMismatch("row length does not match column label count")
        if len(rows) != len(row_labels):
            raise DimensionMismatch("entry rows do not match row label count")
        self.row_labels: tuple[str, ...] = tuple(str(x) for x in row_labels)
        self.col_labels: tuple[str, ...] = tuple(str(x) for x in col_labels)
        # after the conversion, which can merge labels such as 1 and "1"
        if len(set(self.row_labels)) != self.rows or len(set(self.col_labels)) != self.cols:
            raise InvalidParameters("matrix labels must be unique")
        self._entries: list[list[int | Fraction]] | None = rows
        self._masks: tuple[int, ...] | None = None
        self._col_masks: tuple[int, ...] | None = None

    @classmethod
    def _from_masks(cls, masks: Sequence[int], col_masks: Sequence[int], row_labels, col_labels) -> "RationalMatrix":
        """The 0/1 matrix whose row i is the bitmask ``masks[i]`` and column j
        ``col_masks[j]``; the labels are a ``Hypergraph``'s, so unique strings,
        and the masks are its edges and stars, so they describe one matrix."""
        m = cls.__new__(cls)
        m._entries, m._masks, m._col_masks = None, tuple(masks), tuple(col_masks)
        m.row_labels, m.col_labels = row_labels, col_labels
        return m

    @property
    def entries(self) -> list[list[int | Fraction]]:
        if self._entries is None:
            self._entries = _mask_rows(self._masks, self.cols)
        return self._entries

    @property
    def rows(self) -> int:
        return len(self.row_labels)

    @property
    def cols(self) -> int:
        return len(self.col_labels)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def transpose(self) -> "RationalMatrix":
        flipped = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return RationalMatrix(flipped, self.col_labels, self.row_labels)

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


class NullspaceBasis(Record):
    """Exact kernel basis together with the RREF pivot columns it was read
    from; their count is the rank it certifies.  DimensionMismatch unless
    rank + nullity is the column count."""

    __slots__ = ("pivots", "cols", "vectors")

    def __init__(self, pivots: tuple[int, ...], cols: int, vectors: tuple[VertexVector, ...]):
        _set(self, "pivots", pivots)
        _set(self, "cols", cols)
        _set(self, "vectors", vectors)
        if len(pivots) + len(vectors) != cols:
            raise DimensionMismatch("rank + nullity must equal the column count")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nullity(self) -> int:
        return len(self.vectors)


def _mask_rows(masks: Sequence[int], width: int) -> list[list[int]]:
    """0/1 int rows of ``width`` entries; entry j of a row is bit j of its mask."""
    # a sentinel bit at ``width`` fixes the digit count: "0b1" then the row, reversed;
    # the digits are translated to the bytes 0 and 1, and a list of bytes is a list of ints
    return [list(bin(mask | 1 << width)[:2:-1].encode().translate(_BIT_BYTES)) for mask in masks]


def edge_vertex_incidence(h: Hypergraph) -> RationalMatrix:
    """|E| x |V| 0/1 matrix; rows are hyperedges, columns are vertices."""
    return RationalMatrix._from_masks(h.edge_masks, h.star_masks, h.edge_labels, h.vertices)


def vertex_edge_incidence(h: Hypergraph) -> RationalMatrix:
    """The transpose: rows are vertices, columns are hyperedges."""
    return RationalMatrix._from_masks(h.star_masks, h.edge_masks, h.vertices, h.edge_labels)


def _integer_matrix(rows: list[list[int]], n_cols: int) -> RationalMatrix:
    """The matrix of integer ``rows``, kept as they are, labelled by position;
    a row of another length than ``n_cols`` raises InvalidParameters."""
    if any(len(row) != n_cols for row in rows):
        raise InvalidParameters(f"every row must have {n_cols} entries")
    m = RationalMatrix.__new__(RationalMatrix)
    m._entries, m._masks, m._col_masks = rows, None, None
    m.row_labels, m.col_labels = tuple(map(str, range(len(rows)))), tuple(map(str, range(n_cols)))
    return m


def _fraction_free_rref(rows: list[list[int]]) -> tuple[list[int], list[list[int]], int]:
    """In-place fraction-free elimination: the pivot columns, the free-column
    block of each pivot row of d times the RREF, and d, the last pivot (1 when
    there is none).

    Forward (Bareiss): for pivot (r, c) each row below r becomes (piv * row -
    row[c] * pivot_row) // prev after c and 0 at c; rows with row[c] = 0 are
    still scaled, so entries stay minors and every division is exact.  Then,
    from the last pivot row k up, free column f becomes (d * U[k][f] - sum over
    later pivots l of U[k][p_l] * R[l][f]) // U[k][p_k].
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
        piv = rows[r][c]
        top = rows[r][c + 1:]
        for row in rows[r + 1:]:
            f, row[c] = row[c], 0
            if f:
                row[c + 1:] = [(piv * a - f * b) // prev for a, b in zip(row[c + 1:], top)]
            elif piv != prev:
                row[c + 1:] = [piv * a // prev for a in row[c + 1:]]
        prev = piv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = sorted(set(range(n_cols)).difference(pivots))
    reduced: list[list[int]] = [[]] * r  # row k's free-column entries of R
    for k in range(r - 1, -1, -1):
        row = rows[k]
        acc = [prev * row[f] for f in free]
        for l in range(k + 1, r):
            if w := row[pivots[l]]:
                acc = [a - w * b for a, b in zip(acc, reduced[l])]
        reduced[k] = [a // row[pivots[k]] for a in acc]
    return pivots, reduced, prev


def _cleared_integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators; a row of ``int``s is passed
    through as it is, not copied."""
    out = []
    for row in rows:
        if {*map(type, row)} <= {int}:
            out.append(row)
        else:
            scale = lcm(*(x.denominator for x in row))
            out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def proven_kernel(m: RationalMatrix) -> tuple[list[int], int, dict[int, dict[int, int]]]:
    """The one exact elimination: of an integer matrix ``m`` (a mask matrix,
    or integer rows by ``_integer_matrix``), the pivot columns, d and the
    kernel basis, which maps each free column f, in order, to d times its
    RREF kernel vector as an integer dict (d at f and, for each pivot column,
    minus f's entry in that pivot's row).

    Equal rows and equal columns are found by their masks, or by their
    entries for integer rows.  Only the first copy of each column is
    eliminated: a later copy m of column f is never a pivot, and its vector
    is d at m and -d at f when f is a pivot, or f's vector with d moved from
    f to m when f is free.  GF(2), GF(3) and mod 5 (``_ladder``) run up to
    the ceiling min(distinct rows, distinct columns), and only the basis
    rows of the first stage of highest rank are eliminated; Bareiss must
    find as many pivots as that rank.  When two stages reach as many as the
    distinct columns, nothing is eliminated (d = 1).  ``_proven_rank``
    proves the rank and the basis on every row of ``m`` before they are
    returned; a kernel of fewer than the distinct rows that fails its
    product (the stage fell short of the rank over Q) is replaced by the
    elimination of every distinct row, proven the same way.  The rows
    eliminated may change d, not the RREF.
    """
    if m._masks is not None:
        row_keys, col_keys = m._masks, m._col_masks
    else:
        row_keys, col_keys = map(tuple, m.entries), None
    first_row: dict = {}  # each distinct row -> the index of its first copy
    for i, key in enumerate(row_keys):
        first_row.setdefault(key, i)
    distinct_rows = list(first_row.values())
    if col_keys is None:  # the columns of integer rows, on the distinct rows
        col_keys = zip(*map(m.entries.__getitem__, distinct_rows)) if distinct_rows else [()] * m.cols
    first: dict = {}  # each distinct column -> the index of its first copy
    lead = [first.setdefault(key, j) for j, key in enumerate(col_keys)]
    distinct = list(first.values())
    ceiling = min(len(distinct_rows), len(distinct))
    # at as many as the distinct columns, two stages leave nothing to eliminate
    rank, rows, reached = _ladder(m, ceiling, needed=1 + (ceiling == len(distinct)), primes=False)

    def basis_of(found, reduced, d):
        """The pivots, d and kernel basis from the pivots ``found`` among the
        first copies and the free-column block ``reduced`` of d times the RREF."""
        pivots = [distinct[k] for k in found]
        pivot_set = set(pivots)
        free = [f for f in distinct if f not in pivot_set]
        # a copy of column f takes f's vector with d moved to the copy: -d at a pivot f
        tail = {p: {p: -d} for p in pivots} | {f: {} for f in free}
        for p, row in zip(pivots, reduced):
            for f, x in zip(free, row):
                if x:
                    tail[f][p] = -x
        return pivots, d, {j: {j: d, **tail[f]} for j, f in enumerate(lead) if j not in pivot_set}

    def eliminated(chosen: list[int]):
        """``basis_of`` the elimination of the rows at ``chosen``, on the first copies."""
        entries = m.entries
        return basis_of(*_fraction_free_rref([[entries[i][j] for j in distinct] for i in chosen]))

    if reached == 2:
        pivots, d, basis = basis_of(range(len(distinct)), [], 1)
    else:
        pivots, d, basis = eliminated(sorted(rows))
        if len(pivots) != rank:
            raise ArithmeticError(f"rank disagreement: {len(pivots)} pivots on {rank} rows independent mod p")
    try:
        _proven_rank(m, basis.values(), rank)
    except _OutsideKernel:
        if reached == 2 or len(rows) == len(distinct_rows):
            raise
        pivots, d, basis = eliminated(distinct_rows)  # the stage fell short of the rank over Q
        _proven_rank(m, basis.values())
    return pivots, d, basis


def _pack(vectors: Sequence[dict[int, int]], n_cols: int, largest: int) -> tuple[int, list[int]]:
    """Integer dict vectors (column index -> entry) packed into one integer
    per column, vector k as signed w-bit field k: w, and the integers.  A
    row of entries at most ``largest`` in size times vector k is below
    2**(w - 1) in size, so field k of the row times the packed columns is
    that product, and the row's total is 0 only when every product is 0."""
    w = (largest * max((sum(map(abs, v.values())) for v in vectors), default=0)).bit_length() + 1
    packed = [0] * n_cols
    for k, vector in enumerate(vectors):
        for j, x in vector.items():
            packed[j] += x << w * k
    return w, packed


def _largest(m: RationalMatrix) -> int:
    """The largest size of an entry of an integer ``m``: 1 for a mask matrix."""
    return 1 if m._masks is not None else max(map(abs, chain.from_iterable(m.entries)), default=0)


class _OutsideKernel(ArithmeticError):
    """A vector of a kernel basis that some row does not annihilate."""


def _proven_rank(m: RationalMatrix, kernel, lower: int = 0) -> int:
    """The rank of an integer ``m``, proven from ``kernel``, independent
    integer dict vectors (column index -> entry): each is re-multiplied
    through every row (rank <= cols - their count), all in one pass of
    ``_row_totals`` over them packed by ``_pack``, and the rank is at least
    that by ``lower``, the rank a stage already showed, when it is that, and
    else by ``_ladder``; so they span the kernel.
    """
    kernel = list(kernel)
    if kernel and any(_row_totals(m, _pack(kernel, m.cols, _largest(m))[1])):
        raise _OutsideKernel("null-space basis vector failed re-multiplication")
    rank = m.cols - len(kernel)
    modular = lower if lower >= rank else _ladder(m, rank)[0]
    if modular != rank:
        raise ArithmeticError(f"rank disagreement: modular {modular} vs {rank} from the kernel basis")
    return rank


def rank_and_nullspace(m: RationalMatrix) -> NullspaceBasis:
    """Exact rank and a deterministic kernel basis.

    The basis vector for a free column f has 1 at f and, for each pivot
    column, minus the RREF coefficient of f in that pivot's row.  The rank and
    every basis vector are proven by ``proven_kernel`` on all of ``m``'s rows:
    a mask matrix's as they are, any other's cleared of denominators.
    """
    integer = m if m._masks is not None else _integer_matrix(_cleared_integer_rows(m.entries), m.cols)
    pivots, d, basis = proven_kernel(integer)
    vectors = tuple(
        VertexVector({m.col_labels[j]: Fraction(x, d) for j, x in scaled.items()})
        for scaled in basis.values()
    )
    return NullspaceBasis(pivots=tuple(pivots), cols=m.cols, vectors=vectors)


_PRIMES: list[int] = []  # the primes above 2**20 in order, as far as ``_prime`` needed


def _prime(i: int) -> int:
    """The i-th prime above 2**20, counting from 0, found by trial division."""
    while len(_PRIMES) <= i:
        n = _PRIMES[-1] + 2 if _PRIMES else 2**20 + 1
        while any(n % q == 0 for q in range(3, isqrt(n) + 1, 2)):
            n += 2
        _PRIMES.append(n)
    return _PRIMES[i]


def _rank_mod_p(rows: list[list[int]], p: int, limit: int | None = None) -> tuple[int, list[int]]:
    """Rank of integer ``rows`` over GF(p), stopped at a rank of ``limit``, and
    the indices of the rows in its basis, the rows that end up as pivot rows;
    each step touches only the columns after its pivot."""
    m = [[x % p for x in row] for row in rows]
    order = list(range(len(m)))  # the row of ``rows`` at each position of m
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        order[r], order[pivot_row] = order[pivot_row], order[r]
        inv = pow(m[r][c], -1, p)
        tail = [x * inv % p for x in m[r][c + 1:]]
        for i in range(r + 1, n_rows):
            f = m[i][c]
            if f:
                m[i][c + 1:] = [(a - f * b) % p for a, b in zip(m[i][c + 1:], tail)]
        r += 1
        if r in (n_rows, limit):
            break
    return r, order[:r]


def _rank_gf2(masks: Iterable[int], limit: int | None = None) -> tuple[int, list[int]]:
    """Rank over GF(2) of rows given as bitmasks of their odd entries, stopped
    at a rank of ``limit``, and the indices of the rows in its basis: an XOR
    basis keeps one mask per leading bit."""
    basis: dict[int, int] = {}  # leading bit -> the one basis mask with it
    rows = []
    for i, mask in enumerate(masks):
        while mask:
            top = mask.bit_length()
            if (b := basis.get(top)) is None:
                basis[top] = mask
                rows.append(i)
                break
            mask ^= b
        if len(rows) == limit:
            break
    return len(rows), rows


def _rank_gf3(rows: Iterable[tuple[int, int]], limit: int | None = None) -> tuple[int, list[int]]:
    """Rank over GF(3) of rows given bitsliced, as two masks: the entries
    = 1 and the entries = 2 (mod 3), stopped at a rank of ``limit``, and the
    indices of the rows in its basis.  A basis keeps one row per leading bit, scaled to lead with 1
    (times 2 swaps the masks); a row leading with 1 takes the basis row
    negated, one leading with 2 the basis row as it is, and a + b is t =
    (a1 | b2) ^ (a2 | b1), ((a2 | b2) ^ t, (a1 | b1) ^ t)."""
    basis: dict[int, tuple[int, int]] = {}
    found = []
    for i, (one, two) in enumerate(rows):
        while lead := one | two:
            top = lead.bit_length()
            if (b := basis.get(top)) is None:
                basis[top] = (one, two) if one >> top - 1 else (two, one)
                found.append(i)
                break
            b2, b1 = b if one >> top - 1 else b[::-1]
            t = (one | b2) ^ (two | b1)
            one, two = (two | b2) ^ t, (one | b1) ^ t
        if len(found) == limit:
            break
    return len(found), found


def _residues(rows: Iterable[Sequence[int]], p: int) -> list:
    """The rows of the GF(2) or the GF(3) stage for integer ``rows``: the mask
    of each row's odd entries, or the masks of its entries = 1 and = 2
    (mod 3); bit j stands for column j, as in an incidence matrix's masks."""
    out = []
    for row in rows:
        masks = [0, 0, 0]  # the columns of each residue mod p
        for j, x in enumerate(row):
            masks[x % p] |= 1 << j
        out.append(masks[1] if p == 2 else (masks[1], masks[2]))
    return out


def _stage(m: RationalMatrix, k: int, limit: int | None) -> tuple[int, int, list[int]]:
    """Stage k of the ladder on an integer ``m``, stopped at a rank of
    ``limit``: p, the rank mod p and the indices of the rows in its basis,
    for p = 2, 3 and 5 at k = 0, 1 and 2, then the primes above 2**20.  A mask
    matrix feeds GF(2) and GF(3) its row masks, any other its rows' residues."""
    if k == 0:
        return 2, *_rank_gf2(m._masks if m._masks is not None else _residues(m.entries, 2), limit)
    if k == 1:
        return 3, *_rank_gf3([(x, 0) for x in m._masks] if m._masks is not None else _residues(m.entries, 3), limit)
    p = 5 if k == 2 else _prime(k - 3)
    return p, *_rank_mod_p(m.entries, p, limit)


def _ladder(m: RationalMatrix, ceiling: int, needed: int = 1, primes: bool = True) -> tuple[int, list[int], int]:
    """The stages of ``_stage`` on an integer ``m`` whose rank over Q is at
    most ``ceiling``, in order until ``needed`` of them reach it, or, without
    ``primes``, until GF(2), GF(3) and mod 5 have run or two of them agree
    below it: the highest rank seen, the basis rows of the first stage with
    it, and how many stages reached ``ceiling``.  Without ``primes``
    ``ceiling`` is a dimension bound, and every stage stops on reaching it:
    no later row can raise its rank.

    The rank mod p never exceeds the rank over Q, so a stage above
    ``ceiling``, or one with other than as many basis rows as its rank,
    raises.  A prime falls short only when it divides every maximal non-zero
    minor, and Hadamard bounds such a minor by the product of the row norms;
    so once the product of the primes tried, 2, 3 and 5 among them, exceeds
    that bound (compared squared, in integers), the highest rank seen is the
    rank over Q, and the ladder stops.
    """
    best, best_rows, reached, seen = -1, [], 0, set()
    product, bound = 1, None
    limit = min(m.rows, m.cols) if primes else ceiling
    for k in count() if primes else range(3):
        p, rank, rows = _stage(m, k, limit)
        if rank != len(rows):
            raise ArithmeticError(f"rank disagreement: rank {rank} mod {p} from {len(rows)} basis rows")
        if rank > ceiling:
            raise ArithmeticError(f"rank disagreement: rank {rank} mod {p} above the ceiling {ceiling}")
        if rank > best:
            best, best_rows = rank, rows
        reached += rank == ceiling
        if reached == needed or not primes and rank < ceiling and rank in seen:
            break
        seen.add(rank)
        if primes:
            if bound is None:
                bound = prod(max(1, sum(a * a for a in row)) for row in m.entries)
            product *= p * p
            if product > bound:
                break
    return best, best_rows, reached


def rank_modular_oracle(m: RationalMatrix) -> int:
    """The exact rank over Q of an integer matrix, from its ranks modulo
    2, 3, 5 and then primes above 2**20.

    An elimination independent of ``rank_and_nullspace``: ``_ladder`` with
    the trivial ceiling min(rows, cols).
    """
    if m._masks is None:
        if any(x.denominator != 1 for row in m.entries for x in row):
            raise NonIntegerEntries("modular rank oracle requires integer entries")
        m = _integer_matrix([[int(x) for x in row] for row in m.entries], m.cols)
    return _ladder(m, min(m.rows, m.cols))[0]


def matvec(m: RationalMatrix, x) -> dict[str, object]:
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
    adds the row into one terms map and builds one number.  Through mask
    rows such a vector has one column mask per distinct value object, a row
    is read as one bit count per mask, and only the first row with each
    tuple of counts is folded (``_value_sums``), so rows with one sum share
    one number.  A row the support misses is the shared ``Fraction(0)``.
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
        return _value_sums(m, support, fold)
    return {label: fold(p) if p else _ZERO for label, p in zip(m.row_labels, products)}


def _value_sums(m: RationalMatrix, support: Sequence[tuple[int, object]], fold) -> dict[str, object]:
    """``matvec`` of a mask matrix by the (column, value) pairs ``support``;
    cell (i, j) is bit j of row mask i.  Rows with one tuple of bit counts hit
    the same values equally often, so they share the sum of the first such
    row, folded from its own cells in column order as any row would be; a row
    mixing orders raises at the first such row."""
    value, support_mask = dict(support), sum(1 << j for j, _ in support)
    groups: dict[int, int] = {}  # id of each value -> the mask of its columns
    for j, v in support:
        groups[id(v)] = groups.get(id(v), 0) | 1 << j
    masks = list(groups.values())
    sums: dict[tuple[int, ...], object] = {}
    out = {}
    for label, row in zip(m.row_labels, m._masks):
        counts = tuple([(row & mask).bit_count() for mask in masks])
        total = sums.get(counts)
        if total is None:
            cells = [(1, value[j]) for j in bit_indices(row & support_mask)]
            total = sums[counts] = fold(cells) if cells else _ZERO
        out[label] = total
    return out


def _row_totals(m: RationalMatrix, packed: list[int]) -> list[int]:
    """Each row of an integer ``m`` times the packed columns; a mask row is
    read only at the columns where ``packed`` is non-zero."""
    if m._masks is None:
        return [sum(a * packed[j] for j, a in enumerate(row) if a) for row in m.entries]
    column = {1 << j: x for j, x in enumerate(packed) if x}
    support = sum(column)

    def total(hit):
        out = 0
        while hit:
            low = hit & -hit  # the lowest set bit
            out += column[low]
            hit ^= low
        return out

    return [total(hit) if (hit := mask & support) else 0 for mask in m._masks]


def packed_matvec(
    m: RationalMatrix, vectors: Sequence[dict[int, int]], scales: Sequence[int]
) -> list[dict[str, Fraction]]:
    """The product of an integer ``m`` with each integer dict vector
    (column index -> entry) divided by its scale, keyed by row labels: the
    vectors are packed by ``_pack``, ``PACKED_VECTORS`` at a time, and each
    row is multiplied once per pack.  A row total of 0 is 0 for every vector
    of the pack; a non-zero one is read field by field.  Each vector gets a
    dict of its own, with the shared ``Fraction(0)`` where its product is 0."""
    largest = _largest(m)
    products = [dict.fromkeys(m.row_labels, _ZERO) for _ in vectors]
    for start in range(0, len(vectors), PACKED_VECTORS):
        w, packed = _pack(vectors[start:start + PACKED_VECTORS], m.cols, largest)
        low, half = (1 << w) - 1, 1 << (w - 1)
        totals = _row_totals(m, packed)
        for label, total in compress(zip(m.row_labels, totals), totals):
            k = start
            while total:
                field = ((total + half) & low) - half  # signed: the residue in [-half, half)
                if field:
                    products[k][label] = Fraction(field, scales[k])
                total = (total - field) >> w
                k += 1
    return products


def span_dimension(vectors: Iterable[VertexVector]) -> int:
    """Dimension of the span of rational sparse vectors, proven by ``proven_kernel``."""
    vecs = list(vectors)
    labels = sorted({k for v in vecs for k in v.support()})
    rows = _cleared_integer_rows([exact_rational(v.value(k)) for k in labels] for v in vecs)
    return len(proven_kernel(_integer_matrix(rows, len(labels)))[0])
