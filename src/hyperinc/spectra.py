"""Weighted adjacency matrices and the eigenpairs units force on them.

The adjacency matrix attached to a positive edge weighting has off-diagonal
entry sum(w(e)) over the edges containing both endpoints and zero diagonal.
Vertices with equal stars (units) make pair-difference vectors eigenvectors,
with eigenvalue minus the weighted inner product of the two incidence
columns; the same works for any vertex partition refining the matrix's
row/column symmetry relation.  Everything is verified by exact
multiplication, and multiplicities are certified lower bounds only.

The arithmetic runs on scaled integer columns.  A class's adjacency columns
are its members' columns times s, the lcm of the weight denominators over
the edges in their stars, as ints; every inner product, row check and
generator total is compared on ints, and the eigenvalue is built once as a
Fraction.  ``weighted_adjacency`` scales each column by its own star's s
(one s for the whole matrix would grow with every distinct denominator) and
divides each cell of the column by it.
"""

from __future__ import annotations

import itertools
import math
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
    Record,
    UnitPartition,
    VertexVector,
    _set,
    bit_indices,
    compute_units,
    label_sort_key,
)
from .linalg import RationalMatrix, exact_rational, matvec, span_dimension  # matvec: unused here; bench/spans.py wraps it under this name

UNIT_WEIGHTING = "unit"
BANERJEE_WEIGHTING = "banerjee"
CUSTOM_WEIGHTING = "custom"


class EdgeWeighting(Record):
    """Positive rational weight per hyperedge, in edge order; each weight is
    read by ``exact_rational`` and stored as a Fraction."""

    __slots__ = ("name", "weights")

    def __init__(self, name: str, weights: Sequence[object]):
        try:
            weights = tuple(w if type(w) is Fraction else Fraction(exact_rational(w)) for w in weights)
        except InvalidParameters as exc:
            raise InvalidParameters(f"weights must be finite rationals: {exc}") from None
        if any(w.numerator <= 0 for w in weights):  # a Fraction's denominator is positive
            raise InvalidParameters("edge weights must be positive")
        _set(self, "name", name)
        _set(self, "weights", weights)

    def weight(self, edge_index: int) -> Fraction:
        return self.weights[edge_index]


def unit_weighting(h: Hypergraph) -> EdgeWeighting:
    """w(e) = 1 for every edge."""
    return EdgeWeighting(UNIT_WEIGHTING, (Fraction(1),) * h.n_edges)


def banerjee_weighting(h: Hypergraph) -> EdgeWeighting:
    """w(e) = 1/(|e| - 1); needs every edge to have at least two vertices."""
    sizes = [m.bit_count() for m in h.edge_masks]
    for name, size in zip(h.edge_labels, sizes):
        if size < 2:
            raise SingletonEdgeWithBanerjeeWeight(f"edge {name!r} has a single vertex")
    by_size = {size: Fraction(1, size - 1) for size in set(sizes)}
    return EdgeWeighting(BANERJEE_WEIGHTING, tuple(by_size[size] for size in sizes))


def custom_weighting(h: Hypergraph, weights: Union[Mapping[str, object], Sequence[object]]) -> EdgeWeighting:
    """Explicit weights, either per edge name or as a sequence in edge order;
    ``EdgeWeighting`` reads each one by ``exact_rational``."""
    if isinstance(weights, Mapping):
        missing = [name for name in h.edge_labels if name not in weights]
        unknown = sorted(weights.keys() - h.edge_labels, key=str)
        if missing or unknown:
            raise InvalidParameters(
                f"missing weights for edges {missing}, weights for unknown edges {unknown}"
            )
        weights = [weights[name] for name in h.edge_labels]
    elif isinstance(weights, (str, bytes, bytearray)):  # a sequence, but not of weights
        raise InvalidParameters(f"weights must be a mapping or a sequence of weights, got {weights!r}")
    elif len(weights) != h.n_edges:
        raise InvalidParameters("weight sequence length does not match edge count")
    return EdgeWeighting(CUSTOM_WEIGHTING, tuple(weights))


class PredictedEigenpair(Record):
    """An eigenvalue with its certified eigenvectors and multiplicity bound:
    ``eigenvalue`` (a Fraction), the class ``members``, the ``eigenvectors``,
    ``multiplicity_lower_bound`` and whether the product ``verified`` them."""

    __slots__ = ("eigenvalue", "members", "eigenvectors", "multiplicity_lower_bound", "verified")


class MatrixEquivalence(Record):
    """Partition of the labels of a square matrix by row/column symmetry,
    as ``classes: tuple[tuple[str, ...], ...]``."""

    __slots__ = ("classes",)

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c) for c in self.classes)


def _check_weighting(h: Hypergraph, w: EdgeWeighting) -> None:
    """InvalidParameters unless ``w`` has one weight per edge of ``h``."""
    if len(w.weights) != h.n_edges:
        raise InvalidParameters("weighting does not match the hypergraph's edges")


def _scale(w: EdgeWeighting, edges) -> int:
    """The lcm of the weight denominators over ``edges``: the least s with
    s*w(e) an integer for each of them (1 for no edges)."""
    return math.lcm(*(w.weights[k].denominator for k in edges))


def _scaled_sum(w: EdgeWeighting, edges, s: int) -> int:
    """s times the total weight of ``edges``; s is a multiple of each one's
    denominator, so every term is an exact int."""
    return sum(w.weights[k].numerator * (s // w.weights[k].denominator) for k in edges)


def _scaled_columns(
    h: Hypergraph, w: EdgeWeighting, indices: Sequence[int], scales: Sequence[int]
) -> list[list[int]]:
    """For each vertex index i and its s, s times the weighted adjacency's
    column i, which adds w(e) at every other vertex of each edge e in i's
    star; each s is a multiple of the weight denominators over its star."""
    edge_vertices: dict[int, list[int]] = {}  # each edge's vertices, read once
    columns = []
    for i, s in zip(indices, scales):
        column = [0] * h.n_vertices
        for k in bit_indices(h.star_masks[i]):
            vertices = edge_vertices.get(k)
            if vertices is None:
                vertices = edge_vertices[k] = bit_indices(h.edge_masks[k])
            weight = w.weights[k]
            scaled = weight.numerator * (s // weight.denominator)
            for u in vertices:
                column[u] += scaled
        column[i] = 0  # each edge of the star added its weight at i too
        columns.append(column)
    return columns


def _adjacency_columns(
    h: Hypergraph, w: EdgeWeighting, members: Sequence[str]
) -> tuple[int, list[list[int]]]:
    """s, the lcm of the weight denominators over the members' stars, and the
    weighted adjacency's columns for ``members`` times s, as int lists."""
    indices = [h.vertex_index(v) for v in members]
    star = 0
    for i in indices:
        star |= h.star_masks[i]
    s = _scale(w, bit_indices(star))
    return s, _scaled_columns(h, w, indices, [s] * len(indices))


def weighted_adjacency(h: Hypergraph, w: EdgeWeighting) -> RationalMatrix:
    """|V| x |V| symmetric matrix with zero diagonal; entry (u,v) sums the
    weights of edges containing both u and v.  Each column is built times its
    own star's s and divided back cell by cell; a zero cell is the int 0."""
    _check_weighting(h, w)
    # one lcm over all edges would grow with every distinct denominator and
    # slow every division
    scales = [_scale(w, bit_indices(star)) for star in h.star_masks]
    columns = _scaled_columns(h, w, range(h.n_vertices), scales)
    # symmetric, so its columns are its rows
    return RationalMatrix(
        [[Fraction(x, s) if x else 0 for x in column] for s, column in zip(scales, columns)],
        h.vertices,
        h.vertices,
    )


def column_inner_product(h: Hypergraph, u: str, v: str, w: EdgeWeighting) -> Fraction:
    """Weighted inner product of two incidence columns: sum of w(e) over the
    edges containing both vertices (the degree-like sum when u == v)."""
    _check_weighting(h, w)
    common = bit_indices(h.star_masks[h.vertex_index(u)] & h.star_masks[h.vertex_index(v)])
    s = _scale(w, common)
    return Fraction(_scaled_sum(w, common, s), s)


def _eigenpair_for_class(
    h: Hypergraph, w: EdgeWeighting, members: Sequence[str]
) -> PredictedEigenpair:
    """The class's pair differences x = e_m - e_base, each checked by exact
    A*x = lambda*x on every row: A*x is column m minus column base, so it must
    be lambda at m, -lambda at base and 0 elsewhere.  Every check runs on the
    columns times s, the class's common denominator, as ints; lambda is built
    once as a Fraction."""
    members = tuple(members)
    base = members[0]
    s, (base_column, *columns) = _adjacency_columns(h, w, members)
    stars = [h.star_masks[h.vertex_index(v)] for v in members]
    # s times the weighted inner product of two columns, so -s*lambda; within
    # one class they all coincide, and each is symmetric in its two columns,
    # so each unordered pair is checked once
    inner = _scaled_sum(w, bit_indices(stars[0] & stars[1]), s)
    for a, b in itertools.combinations(stars, 2):
        if _scaled_sum(w, bit_indices(a & b), s) != inner:
            raise ArithmeticError("eigenvalue is not well-defined on the class")
    verified = True
    for m, column in zip(members[1:], columns):
        expected = [0] * h.n_vertices
        expected[h.vertex_index(m)], expected[h.vertex_index(base)] = -inner, inner
        verified = verified and [a - b for a, b in zip(column, base_column)] == expected
    vectors = tuple(VertexVector({m: Fraction(1), base: Fraction(-1)}) for m in members[1:])
    if span_dimension(vectors) != len(members) - 1:
        raise ArithmeticError("eigenvectors are not linearly independent")
    return PredictedEigenpair(
        eigenvalue=Fraction(-inner, s),
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
    _check_weighting(h, w)
    out = []
    for unit in compute_units(h).units:
        if len(unit.members) < 2:
            continue
        pair = _eigenpair_for_class(h, w, unit.members)
        # the generator's own lcm g keeps every term exact, even for an edge
        # outside the members' stars; total/g = -lambda, cross-multiplied
        generator = bit_indices(unit.star)
        g = _scale(w, generator)
        eigenvalue = pair.eigenvalue
        if _scaled_sum(w, generator, g) * eigenvalue.denominator != -eigenvalue.numerator * g:
            raise ArithmeticError("eigenvalue does not match the generator weight sum")
        out.append(pair)
    return out


def matrix_equivalence(m: RationalMatrix) -> MatrixEquivalence:
    """Group the labels of a square matrix by the swap symmetry relation:
    u ~ v iff the diagonal entries agree, the (u,v)/(v,u) pair is symmetric,
    and rows/columns agree everywhere away from u and v.

    Each label is bucketed by one exact signature, its diagonal entry and its
    sorted off-diagonal (row, column) pairs, and joins the first class in its
    bucket whose first member it is equivalent to: u ~ v says that swapping
    u and v fixes the matrix, and such swaps compose, so ~ is an equivalence
    relation.  The signature settles the diagonal and the (u,v)/(v,u) pair.
    """
    if m.rows != m.cols:
        raise NonSquare("matrix equivalence needs a square matrix")
    n = m.rows
    labels = m.row_labels

    def equivalent(i: int, j: int) -> bool:
        # labels in one bucket share the diagonal entry and equal multisets of
        # (row, column) pairs, so once the pairs away from i and j match, i's
        # remaining pair (A[i][j], A[j][i]) equals j's, its mirror
        for k in range(n):
            if k == i or k == j:
                continue
            if m.entries[i][k] != m.entries[j][k] or m.entries[k][i] != m.entries[k][j]:
                return False
        return True

    buckets: dict[object, list[list[int]]] = {}
    classes: list[list[int]] = []
    for i in range(n):
        off = sorted((m.entries[i][k], m.entries[k][i]) for k in range(n) if k != i)
        bucket = buckets.setdefault((m.entries[i][i], tuple(off)), [])
        for cls in bucket:
            if equivalent(cls[0], i):
                cls.append(i)
                break
        else:
            bucket.append([i])
            classes.append(bucket[-1])
    return MatrixEquivalence(tuple(tuple(labels[i] for i in cls) for cls in classes))


def _normalize_partition(p) -> tuple[frozenset[str], ...]:
    if isinstance(p, (UnitPartition, MatrixEquivalence)):
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
    classes = matrix_equivalence(weighted_adjacency(h, w))
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
        out.append(_eigenpair_for_class(h, w, members))
    return out
