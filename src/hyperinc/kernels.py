"""Structural null-space certificates and the unit rank/nullity identities.

Each certificate pairs a combinatorial witness (named vertex or edge sets
with coefficients) with the vector it induces.  The defining theorems are
if-and-only-if statements, so verification checks both sides independently:
per-edge (or per-vertex) counting, and an exact matrix-vector product.  The
two must always agree; a disagreement would be a bug, not a data error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import zeta_power_table
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
    VertexVector,
    bit_indices,
    canonical_labels,
    compute_units,
    extend_vector,
    induced_subhypergraph,
    unit_contraction,
)
from .linalg import (
    edge_vertex_incidence,
    matvec,
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

VERTEX_SIDE_KINDS = frozenset(
    {EQUAL_EDGE_PARTITION, RATIO_EDGE_PARTITION, THREE_SET_RELATION,
     GENERAL_COMBINATION, UNIT_PAIR, ROOT_OF_UNITY_CYCLE}
)
EDGE_SIDE_KINDS = frozenset({EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION})
ALL_KINDS = VERTEX_SIDE_KINDS | EDGE_SIDE_KINDS

DEFAULT_FINDER_BOUND = 12
DEFAULT_THREE_SET_BOUND = 10


@dataclass(frozen=True)
class KernelCertificate:
    """A structural kernel witness: named sets, coefficients, and kind.

    ``side`` is "B" when the induced vector lives on vertices (certifying the
    edge-vertex incidence matrix) and "I" when it lives on edges (certifying
    the transpose).  The induced vector is always the signed combination
    sum(coefficients[i] * chi(sets[i])) of pairwise disjoint sets, except for
    the root-of-unity kind, which stores the root order and power instead.
    """

    kind: str
    side: str
    sets: tuple[tuple[str, tuple[str, ...]], ...]
    coefficients: tuple[Fraction, ...]
    ratio: Optional[Fraction] = None
    order: Optional[int] = None
    power: Optional[int] = None

    def induced_vector(self, h: Hypergraph) -> VertexVector:
        if self.kind == ROOT_OF_UNITY_CYCLE:
            table = zeta_power_table(self.order)
            n = h.n_vertices
            return VertexVector(
                {str(i): table[(self.power * i) % self.order] for i in range(n)}
            )
        return VertexVector(
            {m: coeff for (_, members), coeff in zip(self.sets, self.coefficients) for m in members}
        )

    def named_set(self, name: str) -> tuple[str, ...]:
        for set_name, members in self.sets:
            if set_name == name:
                return members
        raise KeyError(name)


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    residual: dict[str, object]
    combinatorial: bool


@dataclass(frozen=True)
class SWSubspace:
    """Vectors supported in a vertex set whose entries sum to zero."""

    members: tuple[str, ...]
    basis: tuple[VertexVector, ...]


@dataclass(frozen=True)
class SWReport:
    subspace: SWSubspace
    contained_in_kernel: bool
    maximal: bool


@dataclass(frozen=True)
class NullityDecomposition:
    rank: int
    nullity: int
    contraction_rank: int
    contraction_nullity: int
    n_units: int
    units_deficiency: int


# -- constructors --------------------------------------------------------------


def _check_sets(h: Hypergraph, side: str, named: Sequence[tuple[str, Iterable[str]]]):
    """Resolve named label sets against the vertices (side "B") or the edges
    (side "I"), members ordered by index (for vertices, the canonical order).
    Unknown labels, a label repeated within a set and sets that share a label
    are rejected."""
    index, labels = (h.vertex_index, h.vertices) if side == "B" else (h.edge_index, h.edge_labels)
    out = []
    seen: set[str] = set()
    for name, members in named:
        positions = sorted(index(m) for m in members)
        repeated = {labels[a] for a, b in zip(positions, positions[1:]) if a == b}
        if repeated:
            raise OverlappingSets(f"set {name!r} repeats {sorted(repeated)}")
        members = tuple(labels[i] for i in positions)
        overlap = seen.intersection(members)
        if overlap:
            raise OverlappingSets(f"sets overlap on {sorted(overlap)}")
        seen.update(members)
        out.append((name, members))
    return tuple(out)


def equal_partition_certificate(h: Hypergraph, u: Iterable[str], v: Iterable[str]) -> KernelCertificate:
    """chi(U) - chi(V); in the kernel of B_H iff |e & U| = |e & V| for all e."""
    sets = _check_sets(h, "B", [("U", u), ("V", v)])
    if not sets[0][1] or not sets[1][1]:
        raise EmptySubset("equal partitions need two non-empty sets")
    return KernelCertificate(EQUAL_EDGE_PARTITION, "B", sets, (Fraction(1), Fraction(-1)))


def ratio_partition_certificate(
    h: Hypergraph, u: Iterable[str], v: Iterable[str], r
) -> KernelCertificate:
    """chi(U) - r*chi(V); in the kernel iff |e & U| : |e & V| = r on every edge."""
    r = Fraction(r)
    sets = _check_sets(h, "B", [("U", u), ("V", v)])
    if not sets[0][1] or not sets[1][1]:
        raise EmptySubset("ratio partitions need two non-empty sets")
    return KernelCertificate(RATIO_EDGE_PARTITION, "B", sets, (Fraction(1), -r), ratio=r)


def three_set_certificate(
    h: Hypergraph, u: Iterable[str], v: Iterable[str], w: Iterable[str], r
) -> KernelCertificate:
    """r*chi(W) - (chi(U) - chi(V)); kernel membership iff
    (|e & U| - |e & V|) : |e & W| = r edge by edge (edges missing W must
    balance U against V).  U or V may be empty; W may not."""
    r = Fraction(r)
    sets = _check_sets(h, "B", [("U", u), ("V", v), ("W", w)])
    if not sets[2][1]:
        raise EmptySubset("the scaled set W must be non-empty")
    return KernelCertificate(
        THREE_SET_RELATION, "B", sets, (Fraction(-1), Fraction(1), r), ratio=r
    )


def general_combination_certificate(
    h: Hypergraph, parts: Sequence[tuple[Iterable[str], object]]
) -> KernelCertificate:
    """sum(c_i * chi(U_i)) over pairwise disjoint U_i, not all of them empty."""
    named = [(f"U{i + 1}", members) for i, (members, _) in enumerate(parts)]
    sets = _check_sets(h, "B", named)
    if not any(members for _, members in sets):
        raise EmptySubset("a general combination needs at least one non-empty part")
    coeffs = tuple(Fraction(c) for _, c in parts)
    return KernelCertificate(GENERAL_COMBINATION, "B", sets, coeffs)


def unit_pair_certificate(h: Hypergraph, u: str, v: str) -> KernelCertificate:
    """chi(u) - chi(v); in the kernel iff u and v have identical stars."""
    u, v = str(u), str(v)
    if u == v:
        raise InvalidParameters("unit pair needs two distinct vertices")
    sets = _check_sets(h, "B", [("u", [u]), ("v", [v])])
    return KernelCertificate(UNIT_PAIR, "B", sets, (Fraction(1), Fraction(-1)))


def root_of_unity_certificate(h: Hypergraph, r: int, power: int) -> KernelCertificate:
    """The vector i -> (zeta_r**power)**i on vertices labelled 0..n-1."""
    if r < 2:
        raise InvalidParameters("root order must be >= 2")
    if not 1 <= power <= r:
        raise InvalidParameters(f"power must lie in 1..{r}")
    expected = {str(i) for i in range(h.n_vertices)}
    if set(h.vertices) != expected:
        raise UnknownVertex("root-of-unity certificates need vertices labelled 0..n-1")
    return KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), order=r, power=power)


def dual_side_certificate(
    h: Hypergraph, e: Iterable[str], f: Iterable[str], r=1
) -> KernelCertificate:
    """chi(E) - r*chi(F) on edges; kernel of the vertex-edge incidence matrix
    iff every vertex sees the two edge sets in the ratio r (r = 1 is the equal
    partition of vertices)."""
    r = Fraction(r)
    sets = _check_sets(h, "I", [("E", e), ("F", f)])
    if not sets[0][1] or not sets[1][1]:
        raise EmptySubset("edge-side partitions need two non-empty edge sets")
    kind = EQUAL_VERTEX_PARTITION if r == 1 else RATIO_VERTEX_PARTITION
    return KernelCertificate(kind, "I", sets, (Fraction(1), -r), ratio=r)


# -- verification -----------------------------------------------------------------


def _window_length(h: Hypergraph) -> Optional[int]:
    """If every edge is a cyclic window over residues 0..n-1 of one length k,
    return k; otherwise None."""
    n = h.n_vertices
    try:
        residues = [int(v) for v in h.vertices]
    except ValueError:
        return None
    if sorted(residues) != list(range(n)):
        return None
    lengths = {mask.bit_count() for mask in h.edge_masks}
    if len(lengths) != 1:
        return None
    k = lengths.pop()
    bit = [0] * n
    for j, residue in enumerate(residues):
        bit[residue] = 1 << j
    windows = {sum(bit[(start + t) % n] for t in range(k)) for start in range(n)}
    return k if all(mask in windows for mask in h.edge_masks) else None


def _combinatorial_side(h: Hypergraph, c: KernelCertificate) -> bool:
    if c.kind == ROOT_OF_UNITY_CYCLE:
        k = _window_length(h)
        if k is None:
            return False
        n = h.n_vertices
        return k % c.order == 0 and n % c.order == 0 and c.power % c.order != 0
    if c.kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {c.kind!r}")
    # sum(c_i * |row & S_i|) = 0 on every edge (side B) or every vertex (side I),
    # with the coefficients scaled to integers once
    index, rows = (h.vertex_index, h.edge_masks) if c.side == "B" else (h.edge_index, h.star_masks)
    masks = [sum(1 << index(m) for m in members) for _, members in c.sets]
    scale = math.lcm(*(q.denominator for q in c.coefficients))
    weights = [q.numerator * (scale // q.denominator) for q in c.coefficients]
    return all(
        sum(w * (row & mask).bit_count() for w, mask in zip(weights, masks)) == 0
        for row in rows
    )


def _resolve_sets(h: Hypergraph, c: KernelCertificate) -> None:
    if c.kind == ROOT_OF_UNITY_CYCLE:
        root_of_unity_certificate(h, c.order, c.power)
    else:
        _check_sets(h, c.side, c.sets)


def verify_certificate(h: Hypergraph, c: KernelCertificate) -> CertificateCheck:
    """Check a certificate against a hypergraph, both ways.

    The algebraic side multiplies the induced vector through the certified
    incidence matrix; the combinatorial side replays the counting condition.
    For the if-and-only-if kinds the two sides must agree exactly (a mismatch
    raises).  For root-of-unity certificates the counting premise is only
    sufficient, so it is required to imply the algebraic side but not
    conversely.
    """
    _resolve_sets(h, c)
    matrix = edge_vertex_incidence(h) if c.side == "B" else vertex_edge_incidence(h)
    vec = c.induced_vector(h)
    residual = matvec(matrix, vec)
    algebraic = all(value == 0 for value in residual.values())
    combinatorial = _combinatorial_side(h, c)
    if c.kind == ROOT_OF_UNITY_CYCLE:
        if combinatorial and not algebraic:
            raise ArithmeticError("window premise held but the product was non-zero")
    elif combinatorial != algebraic:
        raise ArithmeticError(
            f"counting and algebra disagree for kind {c.kind}: "
            f"combinatorial={combinatorial}, algebraic={algebraic}"
        )
    return CertificateCheck(valid=algebraic, residual=residual, combinatorial=combinatorial)


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
    ((_, members),) = _check_sets(h, "B", [("W", w)])
    if len(members) < 2:
        raise SubsetTooSmall("S_W needs at least two vertices")
    base = members[0]
    basis = tuple(
        VertexVector({m: Fraction(1), base: Fraction(-1)}) for m in members[1:]
    )

    b = edge_vertex_incidence(h)
    algebraic = all(
        all(value == 0 for value in matvec(b, x).values()) for x in basis
    )
    stars = h.star_masks
    base_star = stars[h.vertex_index(base)]
    combinatorial = all(stars[h.vertex_index(m)] == base_star for m in members[1:])
    if combinatorial != algebraic:
        raise ArithmeticError("star equality and kernel membership disagree")

    contained = algebraic
    member_set = set(members)
    extendable = contained and any(
        s == base_star for z, s in zip(h.vertices, stars) if z not in member_set
    )
    maximal = not extendable

    units = compute_units(h)
    is_unit = any(set(unit.members) == member_set for unit in units.units)
    if (contained and maximal) != is_unit:
        raise ArithmeticError("maximality characterization disagrees with the unit partition")
    return SWReport(SWSubspace(members, basis), contained, maximal)


# -- rank / nullity identities ----------------------------------------------------------


def nullity_decomposition(h: Hypergraph) -> NullityDecomposition:
    """Exact rank/nullity of B_H and of the unit contraction, with identities.

    Asserts nullity(H) = nullity(contraction) + |V| - #units, equal ranks,
    nullity >= |V| - #units, and rank <= #units.
    """
    ns = rank_and_nullspace(edge_vertex_incidence(h))
    contracted, _, _ = unit_contraction(h)
    ns_c = rank_and_nullspace(edge_vertex_incidence(contracted))
    n_units = contracted.n_vertices
    deficiency = h.n_vertices - n_units

    if ns.nullity != ns_c.nullity + deficiency:
        raise ArithmeticError("nullity decomposition identity failed")
    if ns.rank != ns_c.rank:
        raise ArithmeticError("rank is not preserved by unit contraction")
    if ns.nullity < deficiency or ns.rank > n_units:
        raise ArithmeticError("unit bounds on rank/nullity failed")
    return NullityDecomposition(
        rank=ns.rank,
        nullity=ns.nullity,
        contraction_rank=ns_c.rank,
        contraction_nullity=ns_c.nullity,
        n_units=n_units,
        units_deficiency=deficiency,
    )


def extension_theorem_check(h: Hypergraph, u: Iterable[str]) -> bool:
    """Extend a kernel basis of the induced sub-hypergraph and re-check it.

    Returns True only if every basis vector of ker B_{H_U}, extended by zero,
    lies in ker B_H.
    """
    uset = canonical_labels(u)
    if not uset:
        raise EmptySubset("inducing set is empty")
    hu, _ = induced_subhypergraph(h, uset)
    basis = rank_and_nullspace(edge_vertex_incidence(hu)).vectors
    b = edge_vertex_incidence(h)
    for y in basis:
        extended = extend_vector(h, uset, y)
        if any(value != 0 for value in matvec(b, extended).values()):
            return False
    return True


# -- exhaustive finders ----------------------------------------------------------------


def _disjoint_families(n: int, k: int):
    """Every k-tuple of bitmasks of pairwise disjoint, non-empty subsets of
    range(n) whose smallest element of S1 | S2 lies in S1 (one orientation
    per unordered pair), in the lexicographic order of the assignments
    range(n) -> {0 (unused), 1..k}.  A prefix that puts an element in S2
    before any in S1 is cut, not completed and discarded."""

    def extend(i: int, masks: tuple[int, ...]):
        if i == n:
            if all(masks):
                yield masks
            return
        yield from extend(i + 1, masks)
        bit = 1 << i
        for s in range(k):
            if s == 1 and not masks[0]:
                continue
            yield from extend(i + 1, masks[:s] + (masks[s] | bit,) + masks[s + 1:])

    return extend(0, (0,) * k)


def _consistent_ratio(counts) -> Optional[Fraction]:
    """The unique r with num = r * den across all count pairs, if any.

    Pairs with den = 0 force num = 0; if no pair determines r it defaults
    to 1 (any value would do).  Accepts a lazy iterable and stops at the
    first contradiction.
    """
    r_num, r_den = 1, 0  # r = r_num / r_den once a pair with den != 0 fixed it
    for num, den in counts:
        if den == 0:
            if num != 0:
                return None
        elif r_den == 0:
            r_num, r_den = num, den
        elif num * r_den != r_num * den:
            return None
    return Fraction(r_num, r_den) if r_den else Fraction(1)


def find_certificates_exhaustive(
    h: Hypergraph, kind: str, max_ground: Optional[int] = None
) -> list[KernelCertificate]:
    """Enumerate every certificate of one kind over all disjoint set families.

    This is an oracle for property tests, not a scalable search: the ground
    set (vertices for edge-partition kinds, edges for vertex-partition kinds)
    is capped at 12 elements by default (10 for the three-set kind, whose
    enumeration is 4-way).  Output order is deterministic.
    """
    if kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {kind!r}")
    if kind in (GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE):
        raise InvalidParameters(
            f"kind {kind!r} has no finite certificate family to enumerate"
        )

    bound = max_ground
    if bound is None:
        bound = DEFAULT_THREE_SET_BOUND if kind == THREE_SET_RELATION else DEFAULT_FINDER_BOUND

    if kind in (EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION):
        # per-vertex counts against each candidate edge set
        ground, rows, noun = h.edge_labels, h.star_masks, "edges"
    else:
        # per-edge counts against each candidate vertex set
        ground, rows, noun = h.vertices, h.edge_masks, "vertices"
    if len(ground) > bound:
        raise InstanceTooLarge(f"{len(ground)} {noun} exceeds the finder bound {bound}")

    results: list[KernelCertificate] = []
    if kind == UNIT_PAIR:
        for unit in compute_units(h).units:
            for u, v in itertools.combinations(unit.members, 2):
                results.append(unit_pair_certificate(h, u, v))
        return results

    # pairs test |row & U| = r * |row & V|; the three-set kind tests
    # |row & U| - |row & V| = r * |row & W|; an equal kind needs r = 1
    k = 3 if kind == THREE_SET_RELATION else 2
    for masks in _disjoint_families(len(ground), k):
        plus, minus, scaled = masks if k == 3 else (masks[0], 0, masks[1])
        r = _consistent_ratio(
            ((row & plus).bit_count() - (row & minus).bit_count(), (row & scaled).bit_count())
            for row in rows
        )
        if r is None or (r != 1 and kind in (EQUAL_EDGE_PARTITION, EQUAL_VERTEX_PARTITION)):
            continue
        sets = [[ground[i] for i in bit_indices(m)] for m in masks]
        if kind == THREE_SET_RELATION:
            results.append(three_set_certificate(h, *sets, r))
        elif kind == EQUAL_EDGE_PARTITION:
            results.append(equal_partition_certificate(h, *sets))
        elif kind == RATIO_EDGE_PARTITION:
            results.append(ratio_partition_certificate(h, *sets, r))
        else:
            results.append(dual_side_certificate(h, *sets, r))
    return results
