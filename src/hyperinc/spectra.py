"""Weighted adjacency matrices and the eigenpairs units force on them.

The adjacency matrix attached to a positive edge weighting has off-diagonal
entry sum(w(e)) over the edges containing both endpoints and zero diagonal.
Vertices with equal stars (units) make pair-difference vectors eigenvectors,
with eigenvalue minus the weighted inner product of the two incidence
columns; the same works for any vertex partition refining the matrix's
row/column symmetry relation.  Everything is verified by exact
multiplication, and multiplicities are certified lower bounds only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import (
    GroundSetMismatch,
    InvalidParameters,
    NonSquare,
    PartitionNotFiner,
    SingletonEdgeWithBanerjeeWeight,
)
from .hypergraph import (
    Hypergraph,
    UnitPartition,
    VertexVector,
    bit_indices,
    compute_units,
    label_sort_key,
)
from .linalg import RationalMatrix, matvec, span_dimension

UNIT_WEIGHTING = "unit"
BANERJEE_WEIGHTING = "banerjee"
CUSTOM_WEIGHTING = "custom"


@dataclass(frozen=True)
class EdgeWeighting:
    """Positive rational weight per hyperedge, in edge order."""

    name: str
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise InvalidParameters("edge weights must be positive")

    def weight(self, edge_index: int) -> Fraction:
        return self.weights[edge_index]


def unit_weighting(h: Hypergraph) -> EdgeWeighting:
    """w(e) = 1 for every edge."""
    return EdgeWeighting(UNIT_WEIGHTING, tuple(Fraction(1) for _ in h.edges))


def banerjee_weighting(h: Hypergraph) -> EdgeWeighting:
    """w(e) = 1/(|e| - 1); needs every edge to have at least two vertices."""
    for i, e in enumerate(h.edges):
        if len(e) < 2:
            raise SingletonEdgeWithBanerjeeWeight(
                f"edge {h.edge_labels[i]!r} has a single vertex"
            )
    return EdgeWeighting(
        BANERJEE_WEIGHTING, tuple(Fraction(1, len(e) - 1) for e in h.edges)
    )


def custom_weighting(h: Hypergraph, weights: Union[Mapping[str, object], Sequence[object]]) -> EdgeWeighting:
    """Explicit weights, either per edge name or as a sequence in edge order."""
    if isinstance(weights, Mapping):
        missing = [name for name in h.edge_labels if name not in weights]
        if missing:
            raise InvalidParameters(f"missing weights for edges {missing}")
        values = tuple(Fraction(weights[name]) for name in h.edge_labels)
    else:
        if len(weights) != h.n_edges:
            raise InvalidParameters("weight sequence length does not match edge count")
        values = tuple(Fraction(x) for x in weights)
    return EdgeWeighting(CUSTOM_WEIGHTING, values)


@dataclass(frozen=True)
class WeightedAdjacency:
    matrix: RationalMatrix
    weighting: EdgeWeighting


@dataclass(frozen=True)
class PredictedEigenpair:
    """An eigenvalue with its certified eigenvectors and multiplicity bound."""

    eigenvalue: Fraction
    members: tuple[str, ...]
    eigenvectors: tuple[VertexVector, ...]
    multiplicity_lower_bound: int
    verified: bool


@dataclass(frozen=True)
class MatrixEquivalence:
    """Partition of the labels of a square matrix by row/column symmetry."""

    classes: tuple[tuple[str, ...], ...]

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c) for c in self.classes)


def weighted_adjacency(h: Hypergraph, w: EdgeWeighting) -> WeightedAdjacency:
    """|V| x |V| symmetric matrix with zero diagonal; entry (u,v) sums the
    weights of edges containing both u and v."""
    if len(w.weights) != h.n_edges:
        raise InvalidParameters("weighting does not match the hypergraph's edges")
    n = h.n_vertices
    stars = h.star_masks
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = stars[i] & stars[j]
            if common:
                total = sum((w.weight(k) for k in bit_indices(common)), Fraction(0))
                entries[i][j] = entries[j][i] = total
    matrix = RationalMatrix(entries, h.vertices, h.vertices)
    return WeightedAdjacency(matrix, w)


def column_inner_product(h: Hypergraph, u: str, v: str, w: EdgeWeighting) -> Fraction:
    """Weighted inner product of two incidence columns: sum of w(e) over the
    edges containing both vertices (the degree-like sum when u == v)."""
    common = h.star_masks[h.vertex_index(u)] & h.star_masks[h.vertex_index(v)]
    return sum((w.weight(i) for i in bit_indices(common)), Fraction(0))


def _pair_difference(u: str, v: str) -> VertexVector:
    return VertexVector({u: Fraction(1), v: Fraction(-1)})


def _eigenpair_for_class(
    h: Hypergraph,
    adjacency: RationalMatrix,
    w: EdgeWeighting,
    members: Sequence[str],
) -> PredictedEigenpair:
    members = tuple(members)
    base = members[0]
    eigenvalue = -column_inner_product(h, base, members[1], w)
    # within one class the pairwise inner products all coincide
    for u in members:
        for v in members:
            if u != v and -column_inner_product(h, u, v, w) != eigenvalue:
                raise ArithmeticError("eigenvalue is not well-defined on the class")
    vectors = tuple(_pair_difference(m, base) for m in members[1:])
    verified = True
    for x in vectors:
        product = matvec(adjacency, x)
        for label in adjacency.row_labels:
            if product.get(label, 0) != eigenvalue * x.value(label):
                verified = False
                break
        if not verified:
            break
    if span_dimension(vectors) != len(members) - 1:
        raise ArithmeticError("eigenvectors are not linearly independent")
    return PredictedEigenpair(
        eigenvalue=eigenvalue,
        members=members,
        eigenvectors=vectors,
        multiplicity_lower_bound=len(members) - 1,
        verified=verified,
    )


def predict_unit_eigenpairs(h: Hypergraph, w: EdgeWeighting) -> list[PredictedEigenpair]:
    """One eigenpair per unit of size >= 2, each verified by exact A*x = lambda*x.

    The eigenvalue is minus the weighted inner product of any two columns in
    the unit, which equals minus the total weight of the unit's generator.
    """
    adjacency = weighted_adjacency(h, w).matrix
    out = []
    for unit in compute_units(h).units:
        if len(unit.members) < 2:
            continue
        pair = _eigenpair_for_class(h, adjacency, w, unit.members)
        generator_total = sum((w.weight(i) for i in unit.generator), Fraction(0))
        if pair.eigenvalue != -generator_total:
            raise ArithmeticError("eigenvalue does not match the generator weight sum")
        out.append(pair)
    return out


def matrix_equivalence(m: RationalMatrix) -> MatrixEquivalence:
    """Group the labels of a square matrix by the swap symmetry relation:
    u ~ v iff the diagonal entries agree, the (u,v)/(v,u) pair is symmetric,
    and rows/columns agree everywhere away from u and v.

    Labels are bucketed by an exact signature first; full pairwise comparison
    settles each bucket.
    """
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


def _normalize_partition(p) -> tuple[frozenset[str], ...]:
    if isinstance(p, UnitPartition):
        return p.member_sets()
    if isinstance(p, MatrixEquivalence):
        return p.member_sets()
    return tuple(frozenset(str(x) for x in block) for block in p)


def is_finer(p1, p2) -> bool:
    """True when every block of p1 sits inside some block of p2.

    Both arguments must partition the same ground set; unit partitions and
    matrix equivalences are accepted directly.
    """
    blocks1 = _normalize_partition(p1)
    blocks2 = _normalize_partition(p2)
    ground1 = frozenset().union(*blocks1) if blocks1 else frozenset()
    ground2 = frozenset().union(*blocks2) if blocks2 else frozenset()
    if ground1 != ground2:
        raise GroundSetMismatch("partitions cover different ground sets")
    if sum(len(b) for b in blocks1) != len(ground1) or sum(len(b) for b in blocks2) != len(ground2):
        raise InvalidParameters("arguments must be partitions (disjoint blocks)")
    return all(any(b1 <= b2 for b2 in blocks2) for b1 in blocks1)


def predict_class_eigenpairs(
    h: Hypergraph, w: EdgeWeighting, partition
) -> list[PredictedEigenpair]:
    """Eigenpairs from any partition refining the adjacency's symmetry classes.

    The partition must be finer than the matrix equivalence of the weighted
    adjacency (checked; PartitionNotFiner otherwise) and must partition V(H).
    Every class of size >= 2 yields an eigenvalue with |class| - 1 certified
    eigenvectors.
    """
    blocks = _normalize_partition(partition)
    ground = frozenset().union(*blocks) if blocks else frozenset()
    if ground != frozenset(h.vertices):
        raise GroundSetMismatch("partition does not cover the vertex set")
    adjacency = weighted_adjacency(h, w).matrix
    classes = matrix_equivalence(adjacency)
    if not is_finer(blocks, classes):
        raise PartitionNotFiner(
            "partition is not finer than the adjacency's equivalence classes"
        )
    out = []
    ordered = sorted(blocks, key=lambda b: min(label_sort_key(x) for x in b))
    for block in ordered:
        if len(block) < 2:
            continue
        members = tuple(sorted(block, key=label_sort_key))
        out.append(_eigenpair_for_class(h, adjacency, w, members))
    return out
