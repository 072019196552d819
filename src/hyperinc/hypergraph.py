"""Hypergraph data model and structural operations.

A hypergraph is a non-empty vertex set together with a list of hyperedges,
each a non-empty subset of the vertices.  Edge collections have set
semantics: two edges that are equal as sets are the same edge, and feeding
duplicates to the constructor is an error.  Vertex labels are opaque strings;
they are kept in a canonical order (numeric labels sort numerically, others
lexicographically) so that matrix rows and columns are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CycleTooShort,
    DuplicateEdge,
    EmptyEdge,
    EmptySubset,
    EmptyVertexSet,
    InstanceTooLarge,
    InvalidParameters,
    IsolatedVertex,
    SupportOutsideSubset,
    UnknownEdge,
    UnknownVertex,
    UnknownVertexInEdge,
)

DEFAULT_ISO_BOUND = 12
ISO_BOUND_ENV_VAR = "HYPERINC_ISO_BOUND"


def label_sort_key(label: str):
    """Canonical ordering key: decimal labels compare as integers."""
    if label.isdecimal():
        return (0, int(label), label)
    return (1, 0, label)


def canonical_labels(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted((str(x) for x in labels), key=label_sort_key))


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask  # the lowest set bit; work per bit, not per width
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class VertexVector:
    """Sparse exact vector keyed by vertex (or edge) labels.

    Absent labels are implicitly zero; explicit zeros are dropped on
    construction so equality is structural.  Entries may be ``Fraction``
    values or cyclotomic field elements.
    """

    entries: Mapping[str, object]

    def __init__(self, entries: Mapping[str, object]):
        cleaned = {str(k): v for k, v in entries.items() if v != 0}
        object.__setattr__(self, "entries", cleaned)

    def value(self, label: str):
        return self.entries.get(label, 0)

    def support(self) -> frozenset[str]:
        return frozenset(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if isinstance(other, VertexVector):
            return self.entries == other.entries
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.entries.items(), key=lambda kv: label_sort_key(kv[0]))
        )
        return f"VertexVector({{{inner}}})"


@dataclass(frozen=True)
class Star:
    """The set of hyperedges (by index) incident to one vertex."""

    vertex: str
    edges: frozenset[int]


@dataclass(frozen=True)
class Unit:
    """A maximal set of vertices sharing one star; that star generates it."""

    members: tuple[str, ...]
    generator: frozenset[int]


@dataclass(frozen=True)
class UnitPartition:
    units: tuple[Unit, ...]
    vertex_to_unit: Mapping[str, int]

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(u.members) for u in self.units)

    def __len__(self):
        return len(self.units)


class Hypergraph:
    """Immutable hypergraph with canonically ordered vertices and named edges.

    The incidence relation is indexed once, at construction, as two tuples of
    Python ints used as bitmasks: ``edge_masks[i]`` has bit j set when the
    j-th canonical vertex lies in edge i, and ``star_masks[j]`` has bit i set
    when edge i contains vertex j.  Stars, units, the dual, intersection
    counts and both incidence matrices are read off these masks.
    """

    __slots__ = (
        "vertices", "edges", "edge_labels", "edge_masks", "star_masks", "_vindex", "_eindex"
    )

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Sequence[Iterable[str]],
        edge_labels: Optional[Sequence[str]] = None,
    ):
        vlist = [str(v) for v in vertices]
        if not vlist:
            raise EmptyVertexSet("a hypergraph needs at least one vertex")
        if len(set(vlist)) != len(vlist):
            raise InvalidParameters("duplicate vertex labels")
        self.vertices: tuple[str, ...] = canonical_labels(vlist)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

        edge_sets, edge_masks = [], []
        seen: set[int] = set()
        star_masks = [0] * len(self.vertices)
        for pos, e in enumerate(edges):
            members = frozenset(str(v) for v in e)
            if not members:
                raise EmptyEdge(f"edge at position {pos} is empty")
            unknown = members - self._vindex.keys()
            if unknown:
                raise UnknownVertexInEdge(
                    f"edge at position {pos} uses unknown vertices {sorted(unknown)}"
                )
            mask, bit = 0, 1 << pos
            for v in members:
                j = self._vindex[v]
                mask |= 1 << j
                star_masks[j] |= bit
            if mask in seen:
                raise DuplicateEdge(f"edge at position {pos} repeats an earlier edge")
            seen.add(mask)
            edge_sets.append(members)
            edge_masks.append(mask)
        self.edges: tuple[frozenset[str], ...] = tuple(edge_sets)
        self.edge_masks: tuple[int, ...] = tuple(edge_masks)
        self.star_masks: tuple[int, ...] = tuple(star_masks)

        if edge_labels is None:
            edge_labels = [f"e{i + 1}" for i in range(len(edge_sets))]
        else:
            edge_labels = [str(x) for x in edge_labels]
            if len(edge_labels) != len(edge_sets):
                raise InvalidParameters("edge_labels length does not match edges")
            if len(set(edge_labels)) != len(edge_labels):
                raise InvalidParameters("duplicate edge labels")
        self.edge_labels: tuple[str, ...] = tuple(edge_labels)
        self._eindex = {name: i for i, name in enumerate(self.edge_labels)}

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[str(v)]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def edge_index(self, name: str) -> int:
        try:
            return self._eindex[str(name)]
        except KeyError:
            raise UnknownEdge(f"unknown edge {name!r}") from None

    def has_vertex(self, v: str) -> bool:
        return str(v) in self._vindex

    def edge_size_profile(self) -> tuple[int, ...]:
        return tuple(sorted(len(e) for e in self.edges))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.edge_labels == other.edge_labels
        )

    def __repr__(self):
        return f"Hypergraph(|V|={self.n_vertices}, |E|={self.n_edges})"


def build_hypergraph(
    vertices: Iterable[str],
    edges: Sequence[Iterable[str]],
    edge_labels: Optional[Sequence[str]] = None,
) -> Hypergraph:
    """Validate and canonicalize raw input into a ``Hypergraph``."""
    return Hypergraph(vertices, edges, edge_labels)


def uniform_cycle(n: int, k: int) -> Hypergraph:
    """The k-uniform cycle on vertices 0..n-1 (labels are stringified residues).

    Edge ``e{i}`` is the cyclic window {i, i+1, ..., i+k-1} taken mod n.  For
    n > k the n windows are pairwise distinct; for n == k they all coincide
    with the full vertex set, and edge-set semantics leave a single hyperedge.
    """
    if k < 2:
        raise InvalidParameters(f"window size k must be at least 2, got {k}")
    if n < k:
        raise CycleTooShort(f"need n >= k, got n={n}, k={k}")
    vertices = [str(i) for i in range(n)]
    seen = set()
    edges, labels = [], []
    for i in range(n):
        window = frozenset(str((i + j) % n) for j in range(k))
        if window in seen:
            continue
        seen.add(window)
        edges.append(window)
        labels.append(f"e{i}")
    return Hypergraph(vertices, edges, labels)


def star(h: Hypergraph, v: str) -> Star:
    """All hyperedges incident to ``v``, as a set of edge indices."""
    v = str(v)
    return Star(v, frozenset(bit_indices(h.star_masks[h.vertex_index(v)])))


def induced_subhypergraph(
    h: Hypergraph, u: Iterable[str]
) -> tuple[Hypergraph, dict[int, int]]:
    """Sub-hypergraph induced by the vertex set ``u``.

    Edges are the non-empty traces e & u, deduplicated (set semantics).  Also
    returns the surjective map from original edge index to induced edge index
    for every original edge with a non-empty trace.
    """
    uset = frozenset(str(x) for x in u)
    if not uset:
        raise EmptySubset("inducing vertex set is empty")
    for v in uset:
        h.vertex_index(v)

    traces: list[frozenset[str]] = []
    labels: list[str] = []
    where: dict[frozenset[str], int] = {}
    edge_map: dict[int, int] = {}
    for i, e in enumerate(h.edges):
        t = e & uset
        if not t:
            continue
        if t not in where:
            where[t] = len(traces)
            traces.append(t)
            labels.append(h.edge_labels[i])
        edge_map[i] = where[t]
    return Hypergraph(uset, traces, labels), edge_map


def extend_vector(h: Hypergraph, u: Iterable[str], y: VertexVector) -> VertexVector:
    """Extend a vector supported on ``u`` by zero to all of V(H)."""
    uset = frozenset(str(x) for x in u)
    for v in uset:
        h.vertex_index(v)
    outside = y.support() - uset
    if outside:
        raise SupportOutsideSubset(f"vector has support outside the subset: {sorted(outside)}")
    return VertexVector(dict(y.entries))


def compute_units(h: Hypergraph) -> UnitPartition:
    """Partition V(H) into units: maximal groups of vertices with equal stars.

    Grouping is by the star mask itself, which is exactly the equivalence
    relation; units are ordered by their smallest member in the canonical
    vertex order.
    """
    groups: dict[int, list[str]] = {}
    for v, s in zip(h.vertices, h.star_masks):
        groups.setdefault(s, []).append(v)
    units = [
        Unit(tuple(members), frozenset(bit_indices(s)))
        for s, members in groups.items()
    ]
    units.sort(key=lambda unit: label_sort_key(unit.members[0]))
    v2u = {v: i for i, unit in enumerate(units) for v in unit.members}
    return UnitPartition(tuple(units), v2u)


def unit_contraction(
    h: Hypergraph,
) -> tuple[Hypergraph, dict[str, str], dict[int, int]]:
    """Contract every unit to a single vertex.

    The contracted vertex for a unit is labelled by joining its members with
    '+'.  An edge meeting a unit contains all of it (its members share one
    star), so distinct edges keep distinct images and every edge keeps its
    label.  Returns the contracted hypergraph, the vertex map, and the
    original-edge -> contracted-edge map, which is the identity on indices.
    """
    partition = compute_units(h)
    unit_label = ["+".join(unit.members) for unit in partition.units]
    vertex_map = {v: unit_label[partition.vertex_to_unit[v]] for v in h.vertices}
    images = [{vertex_map[v] for v in e} for e in h.edges]
    edge_map = {i: i for i in range(h.n_edges)}
    return Hypergraph(unit_label, images, h.edge_labels), vertex_map, edge_map


def dual(h: Hypergraph) -> tuple[Hypergraph, dict[str, int]]:
    """The dual hypergraph: vertices are edge names, edges are vertex stars.

    Every vertex must lie in at least one edge (its star is a hyperedge of the
    dual and hyperedges are non-empty).  Equal stars are deduplicated; the
    returned map sends each original vertex to the dual edge index holding its
    star.  Dual edges are named after the first vertex producing them.
    """
    stars: list[list[str]] = []
    labels: list[str] = []
    where: dict[int, int] = {}
    vertex_map: dict[str, int] = {}
    for v, s in zip(h.vertices, h.star_masks):
        if not s:
            raise IsolatedVertex(f"vertex {v!r} lies in no edge; dual undefined")
        if s not in where:
            where[s] = len(stars)
            stars.append([h.edge_labels[i] for i in bit_indices(s)])
            labels.append(v)
        vertex_map[v] = where[s]
    return Hypergraph(h.edge_labels, stars, labels), vertex_map


def _iso_bound(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ISO_BOUND_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameters(f"{ISO_BOUND_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_ISO_BOUND


def _incident_size_profile(h: Hypergraph) -> dict[str, tuple[int, ...]]:
    """Per vertex, the sorted sizes of the edges containing it."""
    return {
        v: tuple(sorted(len(h.edges[i]) for i in bit_indices(s)))
        for v, s in zip(h.vertices, h.star_masks)
    }


def are_isomorphic(
    h1: Hypergraph, h2: Hypergraph, max_vertices: Optional[int] = None
) -> Optional[dict[str, str]]:
    """Search for a vertex bijection carrying E(h1) exactly onto E(h2).

    Backtracking over vertices with incident-edge-size-profile pruning; meant
    for desk-scale instances, so anything above the vertex bound (default 12,
    or the HYPERINC_ISO_BOUND environment variable) is rejected.  Returns a
    witnessing mapping, or None when no isomorphism exists.
    """
    bound = _iso_bound(max_vertices)
    if h1.n_vertices > bound or h2.n_vertices > bound:
        raise InstanceTooLarge(
            f"isomorphism search limited to {bound} vertices "
            f"(got {h1.n_vertices} and {h2.n_vertices})"
        )
    if h1.n_vertices != h2.n_vertices or h1.n_edges != h2.n_edges:
        return None
    if h1.edge_size_profile() != h2.edge_size_profile():
        return None

    prof1, prof2 = _incident_size_profile(h1), _incident_size_profile(h2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None

    edge_set2 = set(h2.edges)
    candidates = {
        u: [v for v in h2.vertices if prof2[v] == prof1[u]] for u in h1.vertices
    }
    order = sorted(h1.vertices, key=lambda u: (len(candidates[u]), label_sort_key(u)))
    # edges of h1 indexed by the position (in `order`) of their last vertex,
    # so each edge is checked exactly once, as soon as it is fully mapped
    rank_of = {u: i for i, u in enumerate(order)}
    edges_closing_at: list[list[frozenset[str]]] = [[] for _ in order]
    for e in h1.edges:
        edges_closing_at[max(rank_of[u] for u in e)].append(e)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        u = order[pos]
        for v in candidates[u]:
            if v in used:
                continue
            mapping[u] = v
            used.add(v)
            if all(
                frozenset(mapping[x] for x in e) in edge_set2
                for e in edges_closing_at[pos]
            ) and extend(pos + 1):
                return True
            used.remove(v)
            del mapping[u]
        return False

    if extend(0):
        # injective on equal-size sets and image inside E(h2) of equal
        # cardinality forces image == E(h2)
        return dict(mapping)
    return None


def is_non_contractible(h: Hypergraph) -> bool:
    """True when every unit is a singleton (contraction changes nothing)."""
    return len(compute_units(h)) == h.n_vertices
