"""Structural null-space certificates and the unit rank/nullity identities.

Each certificate pairs a combinatorial witness (named vertex or edge sets
with coefficients) with the vector it induces.  The defining theorems are
if-and-only-if statements, so verification checks both sides independently:
per-edge (or per-vertex) counting, and an exact matrix-vector product.  The
two must always agree; a disagreement would be a bug, not a data error.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import (
    root_of_unity_vector,
    zeta_power_table,  # unused here; bench/spans.py wraps it under this name
)
from .errors import (
    EmptySubset,
    InstanceTooLarge,
    InvalidParameters,
    OverlappingSets,
    SubsetTooSmall,
    UnknownVertex,
)
from .hypergraph import (
    Hypergraph,
    Record,
    VertexVector,
    _checked_int,
    _set,
    bit_indices,
    compute_units,
    induced_subhypergraph,
    replace,
    unit_contraction,
)
from .linalg import (
    _ladder,
    _proven_rank,
    edge_vertex_incidence,
    exact_rational,
    matvec,
    packed_matvec,
    proven_kernel,
    rank_and_nullspace,
    vertex_edge_incidence,
)

EQUAL_EDGE_PARTITION = "equal_edge_partition"
RATIO_EDGE_PARTITION = "ratio_edge_partition"
THREE_SET_RELATION = "three_set_relation"
GENERAL_COMBINATION = "general_combination"
UNIT_PAIR = "unit_pair"
ROOT_OF_UNITY_CYCLE = "root_of_unity_cycle"
EQUAL_VERTEX_PARTITION = "equal_vertex_partition"
RATIO_VERTEX_PARTITION = "ratio_vertex_partition"

# Each set kind: the side it certifies ("B": sets of vertices, "I": sets of
# edges), its set names in order and each set's coefficient (a, b), a + b*r.
SET_KINDS = {
    EQUAL_EDGE_PARTITION: ("B", ("U", "V"), ((1, 0), (-1, 0))),
    RATIO_EDGE_PARTITION: ("B", ("U", "V"), ((1, 0), (0, -1))),
    THREE_SET_RELATION: ("B", ("U", "V", "W"), ((-1, 0), (1, 0), (0, 1))),
    UNIT_PAIR: ("B", ("u", "v"), ((1, 0), (-1, 0))),
    EQUAL_VERTEX_PARTITION: ("I", ("E", "F"), ((1, 0), (-1, 0))),
    RATIO_VERTEX_PARTITION: ("I", ("E", "F"), ((1, 0), (0, -1))),
}
ALL_KINDS = frozenset({*SET_KINDS, GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})

FINDER_BOUND = 4**10  # counted steps one finder search may take
OUTPUT_BOUND = 2**24  # size of one find's output: columns + rows x set elements, per certificate


class KernelCertificate(Record):
    """A structural kernel witness: named sets, coefficients, and kind.

    ``side`` is "B" when the induced vector lives on vertices (certifying the
    edge-vertex incidence matrix) and "I" when it lives on edges (certifying
    the transpose).  The induced vector is always the signed combination
    sum(coefficients[i] * chi(sets[i])) of pairwise disjoint sets, except for
    the root-of-unity kind, which stores the root order and power instead.
    """

    __slots__ = ("kind", "side", "sets", "coefficients", "ratio", "order", "power")

    def __init__(
        self,
        kind: str,
        side: str,
        sets: tuple[tuple[str, tuple[str, ...]], ...],
        coefficients: tuple[Fraction, ...],
        ratio: Optional[Fraction] = None,
        order: Optional[int] = None,
        power: Optional[int] = None,
    ):
        _set(self, "kind", kind)
        _set(self, "side", side)
        _set(self, "sets", sets)
        _set(self, "coefficients", coefficients)
        _set(self, "ratio", ratio)
        _set(self, "order", order)
        _set(self, "power", power)

    def induced_vector(self, h: Hypergraph) -> VertexVector:
        if self.kind == ROOT_OF_UNITY_CYCLE:
            return root_of_unity_vector(h.n_vertices, self.order, self.power)
        return VertexVector(
            {m: coeff for (_, members), coeff in zip(self.sets, self.coefficients) for m in members}
        )

    def named_set(self, name: str) -> tuple[str, ...]:
        for set_name, members in self.sets:
            if set_name == name:
                return members
        raise KeyError(name)


class CertificateCheck(Record):
    """The outcome of ``verify_certificate``: whether the product is zero, its
    residual per row, and whether the counting side holds."""

    __slots__ = ("valid", "residual", "combinatorial")

    def __init__(self, valid: bool, residual: dict[str, object], combinatorial: bool):
        _set(self, "valid", valid)
        _set(self, "residual", residual)
        _set(self, "combinatorial", combinatorial)


class SWSubspace(Record):
    """Vectors supported in a vertex set whose entries sum to zero: the
    ``members: tuple[str, ...]`` and a ``basis: tuple[VertexVector, ...]``."""

    __slots__ = ("members", "basis")


class SWReport(Record):
    """An ``SWSubspace`` and whether it lies in the kernel and is maximal
    there: ``subspace``, ``contained_in_kernel`` and ``maximal``."""

    __slots__ = ("subspace", "contained_in_kernel", "maximal")


class NullityDecomposition(Record):
    """The rank and nullity of B_H and of its unit contraction C, the unit
    count and the units' deficiency, all ints; ``contraction`` is the
    ``unit_contraction`` triple the identities were checked on, left out of
    equality, hashing and repr."""

    __slots__ = (
        "rank",
        "nullity",
        "contraction_rank",
        "contraction_nullity",
        "n_units",
        "units_deficiency",
        "contraction",
    )
    _hidden = ("contraction",)


# -- constructors --------------------------------------------------------------


def _check_sets(h: Hypergraph, side: str, named: Sequence[tuple[str, Iterable[str]]]):
    """Resolve named label sets to bitmasks over the vertices (side "B") or
    the edges (side "I"), one mask per set.  A str as a set, unknown labels, a
    label repeated within a set and sets that share a label are rejected."""
    index, labels = (h.vertex_index, h.vertices) if side == "B" else (h.edge_index, h.edge_labels)
    out = []
    seen = 0
    for name, members in named:
        if isinstance(members, str):
            raise InvalidParameters(f"set {name!r} is the string {members!r}, not a collection of labels")
        positions = sorted(index(m) for m in members)
        repeated = {labels[a] for a, b in zip(positions, positions[1:]) if a == b}
        if repeated:
            raise OverlappingSets(f"set {name!r} repeats {sorted(repeated)}")
        mask = sum(1 << i for i in positions)
        overlap = seen & mask
        if overlap:
            raise OverlappingSets(f"sets overlap on {sorted(labels[i] for i in bit_indices(overlap))}")
        seen |= mask
        out.append(mask)
    return tuple(out)


@functools.lru_cache(maxsize=256)  # a find builds and verifies its hits at few ratios
def _coefficients(pairs, r) -> tuple[Fraction, ...]:
    """The coefficient a + b*r of each pair (a, b)."""
    return tuple([Fraction(a) if not b else a + b * r for a, b in pairs])


def _certificate(kind: str, members: Sequence[Iterable[str]], r=None):
    """The certificate of a set ``kind`` at ratio ``r`` (if a coefficient
    reads it) on the label sets ``members``, one per set in order; unchecked."""
    side, names, pairs = SET_KINDS[kind]
    r = r if any(b for _, b in pairs) else None
    return KernelCertificate(kind, side, tuple(zip(names, members)), _coefficients(pairs, r), r)


def _mask_certificate(h: Hypergraph, kind: str, masks: Sequence[int], r=None):
    """``_certificate`` on disjoint ``masks``, members in index order."""
    labels = h.vertices if SET_KINDS[kind][0] == "B" else h.edge_labels
    return _certificate(kind, [tuple(labels[i] for i in bit_indices(mask)) for mask in masks], r)


def _checked(h: Hypergraph, c: KernelCertificate) -> KernelCertificate:
    """``c`` checked by ``_resolved_sets``, with its members in index order."""
    masks = _resolved_sets(h, c)
    labels = h.vertices if c.side == "B" else h.edge_labels
    sets = tuple((name, tuple(labels[i] for i in bit_indices(mask))) for (name, _), mask in zip(c.sets, masks))
    return replace(c, sets=sets)


def _set_certificate(h: Hypergraph, kind: str, members: Sequence[Iterable[str]], r=1):
    """The checked certificate of a set ``kind`` on the label sets ``members``."""
    return _checked(h, _certificate(kind, members, Fraction(exact_rational(r))))


def equal_partition_certificate(h: Hypergraph, u: Iterable[str], v: Iterable[str]) -> KernelCertificate:
    """chi(U) - chi(V); in the kernel of B_H iff |e & U| = |e & V| for all e."""
    return _set_certificate(h, EQUAL_EDGE_PARTITION, (u, v))


def ratio_partition_certificate(h: Hypergraph, u: Iterable[str], v: Iterable[str], r) -> KernelCertificate:
    """chi(U) - r*chi(V); in the kernel iff |e & U| : |e & V| = r on every edge."""
    return _set_certificate(h, RATIO_EDGE_PARTITION, (u, v), r)


def three_set_certificate(
    h: Hypergraph, u: Iterable[str], v: Iterable[str], w: Iterable[str], r
) -> KernelCertificate:
    """r*chi(W) - (chi(U) - chi(V)); kernel membership iff
    (|e & U| - |e & V|) : |e & W| = r edge by edge (edges missing W must
    balance U against V).  U or V may be empty; W may not."""
    return _set_certificate(h, THREE_SET_RELATION, (u, v, w), r)


def general_combination_certificate(
    h: Hypergraph, parts: Sequence[tuple[Iterable[str], object]]
) -> KernelCertificate:
    """sum(c_i * chi(U_i)) over pairwise disjoint U_i, not all of them empty."""
    coeffs = tuple(Fraction(exact_rational(c)) for _, c in parts)
    sets = tuple((f"U{i}", members) for i, (members, _) in enumerate(parts, start=1))
    return _checked(h, KernelCertificate(GENERAL_COMBINATION, "B", sets, coeffs))


def unit_pair_certificate(h: Hypergraph, u: str, v: str) -> KernelCertificate:
    """chi(u) - chi(v); in the kernel iff u and v have identical stars."""
    u, v = str(u), str(v)
    if u == v:
        raise InvalidParameters("unit pair needs two distinct vertices")
    return _set_certificate(h, UNIT_PAIR, ([u], [v]))


def root_of_unity_certificate(h: Hypergraph, r: int, power: int) -> KernelCertificate:
    """The vector i -> (zeta_r**power)**i on vertices labelled 0..n-1, checked
    by the one rule: the root order r >= 2 and the power >= 1 are ints."""
    return _checked(h, KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), order=r, power=power))


def dual_side_certificate(h: Hypergraph, e: Iterable[str], f: Iterable[str], r=1) -> KernelCertificate:
    """chi(E) - r*chi(F) on edges; kernel of the vertex-edge incidence matrix
    iff every vertex sees the two edge sets in the ratio r.  At r = 1, read by
    ``exact_rational``, it is the equal vertex partition, which has no ratio."""
    r = exact_rational(r)
    return _set_certificate(h, EQUAL_VERTEX_PARTITION if r == 1 else RATIO_VERTEX_PARTITION, (e, f), r)


# -- verification -----------------------------------------------------------------


def _window_length(h: Hypergraph) -> Optional[int]:
    """If the vertices are residues 0..n-1 in canonical order and every edge
    is a cyclic window over them of one length k, return k; otherwise None."""
    n = h.n_vertices
    try:
        if [int(v) for v in h.vertices] != list(range(n)):
            return None
    except ValueError:
        return None
    lengths = {mask.bit_count() for mask in h.edge_masks}
    if len(lengths) != 1:
        return None
    k = lengths.pop()
    # bit j is residue j, so the windows are the n rotations of the lowest k bits
    low, full = (1 << k) - 1, (1 << n) - 1
    windows = {(low << start | low >> (n - start)) & full for start in range(n)}
    return k if all(mask in windows for mask in h.edge_masks) else None


def _combinatorial_side(h: Hypergraph, c: KernelCertificate, masks: Sequence[int]) -> bool:
    """The counting condition, with ``masks`` the certificate's sets resolved."""
    if c.kind == ROOT_OF_UNITY_CYCLE:
        k = _window_length(h)
        if k is None:
            return False
        n = h.n_vertices
        return k % c.order == 0 and n % c.order == 0 and c.power % c.order != 0
    # sum(c_i * |row & S_i|) = 0 on every edge (side B) or every vertex (side I),
    # with the coefficients scaled to integers once
    rows = h.edge_masks if c.side == "B" else h.star_masks
    scale = math.lcm(*(q.denominator for q in c.coefficients))
    weights = [q.numerator * (scale // q.denominator) for q in c.coefficients]
    return all(
        sum(w * (row & mask).bit_count() for w, mask in zip(weights, masks)) == 0
        for row in rows
    )


def _resolved_sets(h: Hypergraph, c: KernelCertificate) -> tuple[int, ...]:
    """The masks of a certificate's sets, by the one rule on what a
    certificate may state, which every builder and ``verify_certificates``
    check: the kind is known; coefficients and ratio are ints or Fractions;
    the side, set names, coefficients and ratio (stated exactly when a
    coefficient reads it) are the kind's in ``SET_KINDS`` (others: side B, no
    ratio, no set of a root-of-unity certificate, free names of a general
    combination's), a unit pair's sets single vertices; only a root-of-unity
    certificate states an order and a power, ints >= 2 and >= 1, on vertex
    labels 0..n-1; the sets resolve and are disjoint, and none is empty but
    U or V of a three-set relation (a general combination needs one non-empty)."""
    if c.kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {c.kind!r}")
    numbers = c.coefficients if c.ratio is None else (*c.coefficients, c.ratio)
    if not all(isinstance(q, (int, Fraction)) and not isinstance(q, bool) for q in numbers):
        raise InvalidParameters(f"the coefficients and ratio of a {c.kind} must be ints or Fractions")
    side, names, pairs = SET_KINDS.get(c.kind, ("B", None if c.kind == GENERAL_COMBINATION else (), ()))
    if c.side != side or len(c.coefficients) != len(c.sets) or (c.ratio is None) == any(b for _, b in pairs) or (
        names is not None and tuple(name for name, _ in c.sets) != names
        or names is not None and tuple(c.coefficients) != _coefficients(pairs, c.ratio)
        or c.kind == UNIT_PAIR and any(len(members) != 1 for _, members in c.sets)
    ):
        raise InvalidParameters(f"the side, sets, coefficients or ratio are not those of a {c.kind}")
    if c.kind != ROOT_OF_UNITY_CYCLE and (c.order, c.power) != (None, None):
        raise InvalidParameters(f"a {c.kind} states no root order or power")
    if c.kind == ROOT_OF_UNITY_CYCLE:
        _checked_int(c.power, "power", 1, _checked_int(c.order, "root order", 2))
        if set(h.vertices) != {str(i) for i in range(h.n_vertices)}:
            raise UnknownVertex("root-of-unity certificates need vertices labelled 0..n-1")
    masks = _check_sets(h, c.side, c.sets)
    if c.kind == GENERAL_COMBINATION and not any(masks):
        raise EmptySubset("a general combination needs at least one non-empty part")
    for name, mask in zip(names or (), masks):
        if not mask and (c.kind != THREE_SET_RELATION or name == "W"):
            raise EmptySubset(f"set {name!r} of a {c.kind} certificate is empty")
    return masks


def verify_certificates(h: Hypergraph, certs: Sequence[KernelCertificate]) -> list[CertificateCheck]:
    """Check certificates against a hypergraph, both ways, in order.

    Each certificate is checked and its sets resolved by ``_resolved_sets``,
    and its counting condition is replayed on them, one at a time.  The
    algebraic side multiplies the induced vectors through the certified
    incidence matrix: the rational ones together, by ``packed_matvec``; a
    root-of-unity one by ``matvec``.  The two sides must agree (a
    mismatch raises), except that a root-of-unity certificate's counting
    premise is only sufficient: it must imply the algebraic side, not
    conversely.  An exception is raised once the certificates before its own
    are checked, so it is the one checking them one by one raises first.
    """
    resolved, error = [], None
    try:
        for c in certs:
            resolved.append((c, _resolved_sets(h, c)))
    except Exception as exc:  # raised once the certificates before it are checked
        error = exc
    exact = {"B": [], "I": []}  # side -> (position, integer vector, scale) of each rational certificate
    for i, (c, masks) in enumerate(resolved):
        if c.kind != ROOT_OF_UNITY_CYCLE:
            scale = math.lcm(*(q.denominator for q in c.coefficients))
            vector = {
                j: q.numerator * (scale // q.denominator)
                for q, mask in zip(c.coefficients, masks)
                for j in bit_indices(mask)
            }
            exact[c.side].append((i, vector, scale))
    residuals = {}
    for side, group in exact.items():
        if group:
            positions, vectors, scales = zip(*group)
            matrix = edge_vertex_incidence(h) if side == "B" else vertex_edge_incidence(h)
            residuals.update(zip(positions, packed_matvec(matrix, vectors, scales)))
    checks = []
    for i, (c, masks) in enumerate(resolved):
        residual = residuals.get(i)
        if residual is None:  # a root-of-unity vector, on side B
            residual = matvec(edge_vertex_incidence(h), c.induced_vector(h))
        algebraic = all(value == 0 for value in residual.values())
        combinatorial = _combinatorial_side(h, c, masks)
        if c.kind == ROOT_OF_UNITY_CYCLE:
            if combinatorial and not algebraic:
                raise ArithmeticError("window premise held but the product was non-zero")
        elif combinatorial != algebraic:
            raise ArithmeticError(
                f"counting and algebra disagree for kind {c.kind}: "
                f"combinatorial={combinatorial}, algebraic={algebraic}"
            )
        checks.append(CertificateCheck(valid=algebraic, residual=residual, combinatorial=combinatorial))
    if error is not None:
        raise error
    return checks


def verify_certificate(h: Hypergraph, c: KernelCertificate) -> CertificateCheck:
    """Check one certificate against a hypergraph, both ways, by
    ``verify_certificates``."""
    return verify_certificates(h, [c])[0]


# -- S_W subspaces ------------------------------------------------------------------


def sw_subspace(h: Hypergraph, w: Iterable[str]) -> SWReport:
    """The zero-sum subspace S_W spanned by pair differences inside ``w``.

    ``contained_in_kernel`` holds when every spanning vector x_{u_i u_0} is in
    the kernel of B_H, equivalently when all members of ``w`` share one star.
    ``maximal`` holds when no strict superset W' keeps S_{W'} inside the
    kernel; adjoining an outside vertex reduces to a unit-pair test, so this
    is a star comparison.  The conjunction holds exactly on units of size >= 2
    (asserted against the unit partition).
    """
    (mask,) = _check_sets(h, "B", [("W", w)])
    indices = bit_indices(mask)
    if len(indices) < 2:
        raise SubsetTooSmall("S_W needs at least two vertices")
    members = tuple(h.vertices[i] for i in indices)
    base = members[0]
    basis = tuple(
        VertexVector({m: Fraction(1), base: Fraction(-1)}) for m in members[1:]
    )

    b = edge_vertex_incidence(h)
    algebraic = all(
        all(value == 0 for value in matvec(b, x).values()) for x in basis
    )
    stars = h.star_masks
    base_star = stars[indices[0]]
    combinatorial = all(stars[i] == base_star for i in indices[1:])
    if combinatorial != algebraic:
        raise ArithmeticError("star equality and kernel membership disagree")

    contained = algebraic
    extendable = contained and any(
        s == base_star for j, s in enumerate(stars) if not mask >> j & 1
    )
    maximal = not extendable

    units = compute_units(h)
    is_unit = any(unit.members == members for unit in units.units)
    if (contained and maximal) != is_unit:
        raise ArithmeticError("maximality characterization disagrees with the unit partition")
    return SWReport(SWSubspace(members, basis), contained, maximal)


# -- rank / nullity identities ----------------------------------------------------------


def nullity_decomposition(h: Hypergraph) -> NullityDecomposition:
    """Exact rank/nullity of B_H and of its unit contraction C, with identities.

    B_H = B_C S, S mapping each vertex to its unit, is checked column by
    column, so each member m of a unit but its first adds e_m - e_first to
    ker B_H.  When |E| < #units and two stages of ``_ladder`` reach rank |E|
    on C's rows, that is rank(C), and nothing is eliminated: rank(B_H) is
    proven on B_H's own rows by two stages at |E| too.  Otherwise
    ``proven_kernel`` proves C's rank r and kernel basis, with no elimination
    when two stages reach r = #units; a basis vector y lifts to H with y[u]
    on the first member of unit u, and with the differences these |V| - r
    independent vectors prove rank(B_H) by ``_proven_rank``.  Either way
    rank(B_H) must equal rank(C), so nullity(H) = nullity(C) + |V| - #units,
    and H must be its own contraction when every unit is one vertex.
    """
    contracted, vertex_map, _ = contraction = unit_contraction(h)
    n_units = contracted.n_vertices
    deficiency = h.n_vertices - n_units
    if deficiency == 0 and contracted != h:
        raise ArithmeticError("a hypergraph of single-vertex units is not its own contraction")
    unit_of = {label: u for u, label in enumerate(contracted.vertices)}
    units = [unit_of[vertex_map[v]] for v in h.vertices]  # the unit of each column of B_H
    first = {u: i for i, u in reversed(list(enumerate(units)))}  # its first member's column
    lifted = [{i: 1, first[u]: -1} for i, u in enumerate(units) if first[u] != i]
    if any(star != contracted.star_masks[u] for star, u in zip(h.star_masks, units)):
        raise ArithmeticError("B_H = B_C S failed re-multiplication: a column of B_H is not its unit's in C")
    b, c = edge_vertex_incidence(h), edge_vertex_incidence(contracted)
    # rank(C) = |E| < #units, proven by two stages with nothing eliminated, and rank(B_H) by two on B_H
    if h.n_edges < n_units and _ladder(c, h.n_edges, needed=2, primes=False)[2] == 2:
        contraction_rank = h.n_edges
        rank = h.n_edges if _ladder(b, h.n_edges, needed=2, primes=False)[2] == 2 else None
    else:
        pivots, _, basis = proven_kernel(c)
        contraction_rank = len(pivots)
        lifted += ({first[u]: x for u, x in y.items()} for y in basis.values())
        rank = _proven_rank(b, lifted)
    if rank != contraction_rank:
        raise ArithmeticError(f"rank disagreement: rank(B_H) is not rank(C) = {contraction_rank}")
    nullity, contraction_nullity = h.n_vertices - rank, n_units - contraction_rank
    return NullityDecomposition(
        rank=rank,
        nullity=nullity,
        contraction_rank=contraction_rank,
        contraction_nullity=contraction_nullity,
        n_units=n_units,
        units_deficiency=deficiency,
        contraction=contraction,
    )


def extension_theorem_check(h: Hypergraph, u: Iterable[str]) -> bool:
    """Extend a kernel basis of the induced sub-hypergraph and re-check it.

    Returns True only if every basis vector of ker B_{H_U}, extended by zero,
    lies in ker B_H.  A vector keyed by labels of U is its own extension by
    zero, so each basis vector is multiplied through B_H as it is.
    """
    hu, _ = induced_subhypergraph(h, u)  # EmptySubset when u is empty
    basis = rank_and_nullspace(edge_vertex_incidence(hu)).vectors
    b = edge_vertex_incidence(h)
    return all(all(value == 0 for value in matvec(b, y).values()) for y in basis)


# -- exhaustive finders ----------------------------------------------------------------


# A finder assigns each ground element a code: 0 (unused) or i + 1 for the
# i-th set.  As a symbol, code s stands for the coordinate value a + b*r of
# its pair (a, b): (0, 0) for unused, else the set's coefficient in
# ``SET_KINDS``.  A kernel vector is fixed by its values at the free columns.


def _patterns(kernel, free, symbols):
    """Every assignment of ``symbols`` to the free columns, with the pivot
    values it forces: yields (codes, a, b), where codes[i] is the symbol at
    free[i] and the kernel vector is (a[p] + b[p]*r) / d at the p-th pivot."""
    pivots, _, basis = kernel
    columns = [[basis[f].get(p, 0) for p in pivots] for f in free]

    def walk(i, codes, a_sums, b_sums):
        if i == len(columns):
            yield codes, a_sums, b_sums
            return
        column = columns[i]
        for s, (a, b) in enumerate(symbols):
            yield from walk(
                i + 1,
                codes + (s,),
                [x + a * c for x, c in zip(a_sums, column)] if a else a_sums,
                [x + b * c for x, c in zip(b_sums, column)] if b else b_sums,
            )

    return walk(0, (), [0] * len(pivots), [0] * len(pivots))


def _assignment(n, free, free_codes, pivots, pivot_codes):
    """The code of each of the n columns, 0 off the free and pivot columns."""
    codes = [0] * n
    for j, s in itertools.chain(zip(free, free_codes), zip(pivots, pivot_codes)):
        codes[j] = s
    return tuple(codes)


def _decodes(kernel, free, symbols, n_zero, charge):
    """The vectors of the walk whose pivots all take symbol values at one r:
    yields (codes, pivot_codes, r), r a ``Fraction``.

    A pivot pins r unless one symbol takes its value at every r.  A pattern
    is decoded at each r at which its first pinning pivot takes a symbol's
    value; a pattern with no pinning pivot at r = 1 and, if r has a symbol
    (the last), at r = 0, 1 and -1, where that symbol's value may be
    another's.  At such an r a pivot on a shared value may take either
    symbol, and each choice is yielded in which r's set meets a column, or
    every choice at r = 1.  A decode there is skipped when more sets are
    empty in every choice than there are zero columns to fill them;
    otherwise its choices past the first are charged before any is built.

    Each r is a reduced pair (num, den), den > 0, with one table per search
    from values scaled by d * den to codes (to tuples of codes at an r where
    two symbols tie): symbol (a, b) takes d * (a*den + b*num), pivot (x, y)
    x*den + y*num.
    """
    d = kernel[1]
    n_sets = len(symbols) - 1
    scaled = [(d * a, d * b) for a, b in symbols]
    fixed = set(scaled)
    ties = [(1, 1), (0, 1), (-1, 1)] if symbols[-1][1] else [(1, 1)]
    tables = {}

    def table(num, den):
        codes = {}
        for s, (a, b) in enumerate(scaled):
            value = a * den + b * num
            codes[value] = codes.get(value, ()) + (s,)
        tied = len(codes) < len(scaled)
        return Fraction(num, den), tied, codes if tied else {v: c for v, (c,) in codes.items()}

    for codes, a_sums, b_sums in _patterns(kernel, free, symbols):
        for x, y in zip(a_sums, b_sums):
            if (x, y) not in fixed:
                ratios = set()
                for a, b in scaled:  # (x - a) + (y - b) * r = 0
                    if y != b:
                        g = math.gcd(x - a, y - b) if y > b else -math.gcd(x - a, y - b)
                        ratios.add(((a - x) // g, (y - b) // g))
                break
        else:
            ratios = ties
        for r in ratios:
            ratio, tied, values = tables.get(r) or tables.setdefault(r, table(*r))
            num, den = r
            options = [values.get(x * den + y * num) for x, y in zip(a_sums, b_sums)]
            if None in options:
                continue
            if not tied:
                yield codes, options, ratio
                continue
            if n_sets - len(set(codes).union(*options) - {0}) > n_zero:
                continue
            charge(math.prod(map(len, options)) - 1)  # the walk paid for one
            keep = num == den or n_sets in codes  # r's symbol is the last
            for pivot_codes in itertools.product(*options):
                if keep or n_sets in pivot_codes:
                    yield codes, pivot_codes, ratio


# A core is a certificate's assignment cut to the columns that meet a row,
# with its r.  No non-empty set of those columns has its indicator in the kernel.


def _spread(cores, zero, n_sets):
    """Every core with each zero column given every code (a zero column
    changes no count, so r stays), kept when codes 1..n_sets all appear and
    the first code in {1, 2} is 1 (U leads U | V)."""
    codes, wanted = range(n_sets + 1), set(range(1, n_sets + 1))
    for core, r in cores:
        family = [core]
        for j in zero:
            family = [a[:j] + (s,) + a[j + 1:] for a in family for s in codes]
        for assignment in family:
            if wanted <= set(assignment) and assignment.index(1) < assignment.index(2):
                yield assignment, r


def find_certificates_exhaustive(h: Hypergraph, kind: str) -> list[KernelCertificate]:
    """Every certificate of one kind, in the order of the set assignments.

    The certificates are kernel vectors of the incidence matrix, so the
    search walks the values at the free columns of one proven kernel basis
    (``proven_kernel``: basis re-multiplied, rank proven by the stages of
    ``_ladder``) once, with one symbol table per kind.
    Zero columns Z, the elements that meet no row, are free and change no
    count, so they are left out of that walk and spread over each hit after
    it.  Each family of candidates is counted before it is built, and the
    search raises ``InstanceTooLarge`` once the total would pass
    ``FINDER_BOUND``: one cell per pivot for each pattern of the walk
    (3^(nullity - |Z|) patterns, 4^... for the three-set kind), one per
    unit pair, one per choice past the first where a pivot's value is taken
    by two symbols (``_decodes``), and what the spread adds to the cores,
    |cores| * (3^|Z| - 1) (4^|Z| - 1 for the three-set kind).  Before a
    certificate is built, the size of the output is counted too, and refused
    above ``OUTPUT_BOUND``: per certificate, one cell per column (its field
    in each packed column of ``verify_certificates``) and one per row and
    element of its sets (the incidence cells in its sets' columns).  It
    measures what checking and reporting the output grow with; it counts no
    step of either.  Output order is deterministic.
    """
    if kind not in SET_KINDS:
        raise InvalidParameters(f"kind {kind!r} has no finite certificate family to enumerate"
                                if kind in ALL_KINDS else f"unknown certificate kind {kind!r}")

    # the ground elements are the columns: edges (I_H) or vertices (B_H)
    side, _, pairs = SET_KINDS[kind]
    if side == "I":
        columns, n_rows, incidence = h.edge_masks, h.n_vertices, vertex_edge_incidence
    else:
        columns, n_rows, incidence = h.star_masks, h.n_edges, edge_vertex_incidence
    n = len(columns)
    work = 0

    def charge(cost: int) -> None:
        nonlocal work
        work += cost
        if work > FINDER_BOUND:
            raise InstanceTooLarge(
                f"finding {kind} certificates takes at least {work} counted steps, "
                f"over the finder bound {FINDER_BOUND}"
            )

    def check_output(cells: int) -> None:
        if cells > OUTPUT_BOUND:
            raise InstanceTooLarge(
                f"checking the {kind} certificates found takes {cells} incidence cells, "
                f"over the output bound {OUTPUT_BOUND}"
            )

    if kind == UNIT_PAIR:
        units = [[h.vertex_index(m) for m in unit.members] for unit in compute_units(h).units]
        n_pairs = sum(math.comb(len(unit), 2) for unit in units)
        charge(n_pairs)
        check_output(n_pairs * (n + 2 * n_rows))
        pairs = (pair for unit in units for pair in itertools.combinations(unit, 2))
        return [_mask_certificate(h, UNIT_PAIR, (1 << u, 1 << v)) for u, v in pairs]

    kernel = proven_kernel(incidence(h))
    zero = [j for j, column in enumerate(columns) if not column]  # meet no row
    free = [j for j in kernel[2] if columns[j]]
    symbols = ((0, 0), *pairs)
    charge(len(symbols) ** len(free) * len(kernel[0]))
    cores = [
        (_assignment(n, free, codes, kernel[0], pivot_codes), r)
        for codes, pivot_codes, r in _decodes(kernel, free, symbols, len(zero), charge)
    ]
    charge(len(cores) * (len(symbols) ** len(zero) - 1))
    hits = sorted(_spread(cores, zero, len(symbols) - 1), key=lambda hit: hit[0])
    # per certificate: one cell per column, one per row and element of its sets
    check_output(sum(n + n_rows * (n - assignment.count(0)) for assignment, _ in hits))
    certificates = []
    for assignment, r in hits:
        masks = [0] * len(symbols)
        for j, s in enumerate(assignment):
            masks[s] |= 1 << j
        certificates.append(_mask_certificate(h, kind, masks[1:], r))
    return certificates
