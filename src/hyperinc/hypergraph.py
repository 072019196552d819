"""Hypergraph data model and structural operations.

A hypergraph is a non-empty vertex set together with a list of hyperedges,
each a non-empty subset of the vertices.  Edge collections have set
semantics: two edges that are equal as sets are the same edge, and feeding
duplicates to the constructor is an error.  Labels are opaque strings the text
form can carry (``_check_labels``); vertices are kept in a canonical order
(numeric labels sort numerically, others lexicographically) so that matrix
rows and columns are reproducible.
"""

from __future__ import annotations

import re
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
    UnknownEdge,
    UnknownVertex,
    UnknownVertexInEdge,
)

DEFAULT_ISO_BOUND = 12


def label_sort_key(label: str):
    """Canonical ordering key: decimal labels first, in the order of their
    integer values, then the others as strings.

    A decimal label is compared by its digit count without leading zeros,
    then by its digits, so no length limit of ``int`` applies; equal values
    fall back to the label itself.
    """
    if label.isdecimal():
        digits = label
        if not label.isascii():
            import unicodedata  # here, not at the top: loading it adds ~0.4 MiB to a process

            digits = "".join(str(unicodedata.decimal(c)) for c in label)
        digits = digits.lstrip("0")
        return (0, len(digits), digits, label)
    return (1, 0, "", label)


def canonical_labels(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted((str(x) for x in labels), key=label_sort_key))


# in a str pattern, \s matches exactly the characters for which str.isspace() holds
_LABEL_BREAK = re.compile(r"[\s#:]")


def _check_labels(labels: Iterable[str], what: str) -> None:
    """One rule for vertex and edge labels, so that the text form carries them
    (its parser splits on ``str.isspace`` whitespace, '#' and ':')."""
    for x in labels:
        if not x or x == "vertices" or _LABEL_BREAK.search(x):
            raise InvalidParameters(
                f"{what} label {x!r} is empty, contains whitespace, '#' or ':', or is 'vertices'"
            )


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask  # the lowest set bit; work per bit, not per width
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _str_keyed(entries: Mapping) -> dict:
    """``entries`` keyed by the ``str`` of each key; InvalidParameters when two
    keys share one, as 1 and "1" do."""
    keyed = {str(k): v for k, v in entries.items()}
    if len(keyed) < len(entries):
        labels = [str(k) for k in entries]
        merged = sorted({x for x in labels if labels.count(x) > 1})
        raise InvalidParameters(f"vector keys collide under str(): {merged}")
    return keyed


_set = object.__setattr__  # how a record's own ``__init__`` sets its fields


class Record:
    """Base of the package's small immutable values.

    A record names its fields in ``__slots__``, in order.  It compares,
    hashes and prints as a frozen dataclass would, over every field not in
    ``_hidden``, and refuses assignment and deletion with AttributeError.
    This ``__init__`` takes every field, by position or keyword; a record
    built on a per-call path writes its own, setting each field with ``_set``.
    ``replace``, ``copy``, ``deepcopy`` and ``pickle`` rebuild a record
    through its ``__init__``, so that its checks run again.
    """

    __slots__ = ()
    _hidden = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args))
        repeated = values.keys() & kwargs.keys()
        values.update(kwargs)
        if len(args) > len(names) or repeated or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {names}, "
                f"got {len(args)} by position and {sorted(kwargs)} by keyword"
            )
        for name, value in values.items():
            _set(self, name, value)

    def _shown(self) -> tuple:
        """The values of the fields that equality, hashing and repr read."""
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._hidden)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shown() == other._shown()

    def __hash__(self):
        return hash(self._shown())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def replace(record: Record, **changes) -> Record:
    """``record`` rebuilt through its ``__init__`` with the fields in
    ``changes`` replaced, as ``dataclasses.replace`` does."""
    return type(record)(**{**{name: getattr(record, name) for name in record.__slots__}, **changes})


class VertexVector(Record):
    """Sparse exact vector keyed by vertex (or edge) labels; a ``Record``
    with the one field ``entries``.

    Absent labels are implicitly zero; explicit zeros are dropped on
    construction so equality is structural.  Keys are read by ``str``, and
    two keys with one string (1 and "1") raise InvalidParameters.  Entries
    may be ``Fraction`` values or cyclotomic field elements.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, object]):
        cleaned = {str(k): v for k, v in entries.items() if v != 0}
        if len(cleaned) < len(entries):  # zeros dropped, or keys merged by str()
            _str_keyed(entries)
        _set(self, "entries", cleaned)

    def value(self, label: str):
        return self.entries.get(label, 0)

    def support(self) -> frozenset[str]:
        return frozenset(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        inner = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.entries.items(), key=lambda kv: label_sort_key(kv[0]))
        )
        return f"VertexVector({{{inner}}})"


class Unit(Record):
    """A maximal set of vertices sharing one star; that star generates it.

    ``star`` is the shared star mask (bit i set when edge i contains every
    member); ``generator`` decodes it into the set of edge indices."""

    __slots__ = ("members", "star")

    def __init__(self, members: tuple[str, ...], star: int):
        _set(self, "members", members)
        _set(self, "star", star)

    @property
    def generator(self) -> frozenset[int]:
        return frozenset(bit_indices(self.star))


class UnitPartition(Record):
    """The units of a hypergraph, ``units: tuple[Unit, ...]``, and the
    position of each vertex's unit, ``vertex_to_unit: Mapping[str, int]``."""

    __slots__ = ("units", "vertex_to_unit")

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(u.members) for u in self.units)

    def __len__(self):
        return len(self.units)


class Hypergraph:
    """Immutable hypergraph with canonically ordered vertices and named edges.

    The incidence relation is stored once, at construction, as two tuples of
    Python ints used as bitmasks: ``edge_masks[i]`` has bit j set when the
    j-th canonical vertex lies in edge i, and ``star_masks[j]`` has bit i set
    when edge i contains vertex j.  Everything else, ``edges`` included, is
    read off these masks.
    """

    __slots__ = ("vertices", "edge_labels", "edge_masks", "star_masks", "_vindex", "_eindex")

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
        # checked in canonical order, so the label named does not depend on the input's order
        self.vertices: tuple[str, ...] = canonical_labels(vlist)
        _check_labels(self.vertices, "vertex")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

        vindex = self._vindex
        edge_masks = []
        stars = [0] * len(self.vertices)
        seen: set[int] = set()
        for pos, e in enumerate(edges):
            mask, edge_bit = 0, 1 << pos
            members = iter(e)
            try:
                for v in members:
                    j = vindex[v if type(v) is str else str(v)]
                    mask |= 1 << j
                    stars[j] |= edge_bit
            except KeyError:
                # v is the first unknown member; the rest of the edge is still in ``members``
                unknown = {str(v), *map(str, members)} - vindex.keys()
                raise UnknownVertexInEdge(
                    f"edge at position {pos} uses unknown vertices {sorted(unknown)}"
                ) from None
            if not mask:
                raise EmptyEdge(f"edge at position {pos} is empty")
            if mask in seen:
                raise DuplicateEdge(f"edge at position {pos} repeats an earlier edge")
            seen.add(mask)
            edge_masks.append(mask)
        self.edge_masks: tuple[int, ...] = tuple(edge_masks)
        self.star_masks: tuple[int, ...] = tuple(stars)

        if edge_labels is None:
            edge_labels = [f"e{i + 1}" for i in range(len(edge_masks))]
        else:
            edge_labels = [str(x) for x in edge_labels]
            if len(edge_labels) != len(edge_masks):
                raise InvalidParameters("edge_labels length does not match edges")
            if len(set(edge_labels)) != len(edge_labels):
                raise InvalidParameters("duplicate edge labels")
            _check_labels(edge_labels, "edge")
        self.edge_labels: tuple[str, ...] = tuple(edge_labels)
        self._eindex = {name: i for i, name in enumerate(self.edge_labels)}

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_masks)

    @property
    def edges(self) -> tuple[frozenset[str], ...]:
        """Each edge as a frozenset of vertex labels, derived from the masks."""
        return tuple(frozenset(self.mask_labels(m)) for m in self.edge_masks)

    def mask_labels(self, mask: int) -> list[str]:
        """The labels of the vertices whose bits are set in ``mask``, in canonical order."""
        return [self.vertices[j] for j in bit_indices(mask)]

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

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edge_masks == other.edge_masks
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


def _checked_int(value, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` if it is an int, not a bool, in least..most (a bound left None
    is open); otherwise ``InvalidParameters``, so a float or a bool is never read
    as the int it is close to."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (least is None or value >= least) and (most is None or value <= most):
            return value
    bounds = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
    raise InvalidParameters(f"{name} must be an int{bounds}, got {value!r}")


def uniform_cycle(n: int, k: int) -> Hypergraph:
    """The k-uniform cycle on vertices 0..n-1 (labels are stringified residues).

    Edge ``e{i}`` is the cyclic window {i, i+1, ..., i+k-1} taken mod n.  For
    n > k the n windows are pairwise distinct; for n == k they all coincide
    with the full vertex set, and edge-set semantics leave the single edge e0.
    """
    k = _checked_int(k, "window size k", 2)
    if _checked_int(n, "cycle size n") < k:
        raise CycleTooShort(f"need n >= k, got n={n}, k={k}")
    starts = range(1) if n == k else range(n)
    edges = [[str((i + j) % n) for j in range(k)] for i in starts]
    return Hypergraph([str(i) for i in range(n)], edges, [f"e{i}" for i in starts])


def induced_subhypergraph(
    h: Hypergraph, u: Iterable[str]
) -> tuple[Hypergraph, dict[int, int]]:
    """Sub-hypergraph induced by the vertex set ``u``.

    Edges are the non-empty traces e & u (as masks), deduplicated (set
    semantics).  Also returns the surjective map from original edge index to
    induced edge index for every original edge with a non-empty trace.
    """
    if isinstance(u, str):
        raise InvalidParameters(f"the inducing vertex set is the string {u!r}, not a collection of labels")
    uset = frozenset(str(x) for x in u)
    if not uset:
        raise EmptySubset("inducing vertex set is empty")
    umask = 0
    for v in uset:
        umask |= 1 << h.vertex_index(v)

    traces: list[list[str]] = []
    labels: list[str] = []
    where: dict[int, int] = {}
    edge_map: dict[int, int] = {}
    for i, e in enumerate(h.edge_masks):
        t = e & umask
        if not t:
            continue
        if t not in where:
            where[t] = len(traces)
            traces.append(h.mask_labels(t))
            labels.append(h.edge_labels[i])
        edge_map[i] = where[t]
    return Hypergraph(uset, traces, labels), edge_map


def compute_units(h: Hypergraph) -> UnitPartition:
    """Partition V(H) into units: maximal groups of vertices with equal stars.

    Grouping is by the star mask itself, which is exactly the equivalence
    relation, and each unit keeps that mask as its ``star``; units are
    ordered by their smallest member in the canonical vertex order.
    """
    groups: dict[int, list[str]] = {}
    for v, s in zip(h.vertices, h.star_masks):
        groups.setdefault(s, []).append(v)
    # groups open in canonical vertex order, so units come sorted by first member
    units = [Unit(tuple(members), s) for s, members in groups.items()]
    v2u = {v: i for i, unit in enumerate(units) for v in unit.members}
    return UnitPartition(tuple(units), v2u)


def unit_contraction(
    h: Hypergraph,
) -> tuple[Hypergraph, dict[str, str], dict[int, int]]:
    """Contract every unit to a single vertex.

    The contracted vertex for a unit is labelled by joining its members with
    '+'; a joined label already taken by a singleton unit or an earlier unit
    gets "'" appended until it is free.  An edge meeting a unit contains all
    of it (its members share one star), so distinct edges keep distinct images
    and every edge keeps its label.  Returns the contracted hypergraph, the
    vertex map, and the original-edge -> contracted-edge map, which is the
    identity on indices.
    """
    partition = compute_units(h)
    used = {unit.members[0] for unit in partition.units if len(unit.members) == 1}
    unit_label = []
    for unit in partition.units:
        label = "+".join(unit.members)
        while len(unit.members) > 1 and label in used:
            label += "'"
        used.add(label)
        unit_label.append(label)
    vertex_map = {v: unit_label[partition.vertex_to_unit[v]] for v in h.vertices}
    images = [{vertex_map[v] for v in h.mask_labels(m)} for m in h.edge_masks]
    edge_map = {i: i for i in range(h.n_edges)}
    return Hypergraph(unit_label, images, h.edge_labels), vertex_map, edge_map


def dual(h: Hypergraph) -> tuple[Hypergraph, dict[str, int]]:
    """The dual hypergraph: vertices are edge names, edges are vertex stars.

    Every vertex must lie in at least one edge (its star is a hyperedge of the
    dual and hyperedges are non-empty).  Equal stars are one dual edge: the
    dual's edges are the units' generators, in unit order, each named after its
    unit's first member, and the returned map sends each original vertex to its
    unit's index.
    """
    partition = compute_units(h)
    for unit in partition.units:
        if not unit.star:
            raise IsolatedVertex(f"vertex {unit.members[0]!r} lies in no edge; dual undefined")
    stars = [[h.edge_labels[i] for i in bit_indices(unit.star)] for unit in partition.units]
    labels = [unit.members[0] for unit in partition.units]
    vertex_map = {v: partition.vertex_to_unit[v] for v in h.vertices}
    return Hypergraph(h.edge_labels, stars, labels), vertex_map


def _incident_size_profile(h: Hypergraph) -> dict[str, tuple[int, ...]]:
    """Per vertex, the sorted sizes of the edges containing it."""
    return {
        v: tuple(sorted(h.edge_masks[i].bit_count() for i in bit_indices(s)))
        for v, s in zip(h.vertices, h.star_masks)
    }


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> Optional[dict[str, str]]:
    """Search for a vertex bijection carrying E(h1) exactly onto E(h2).

    Backtracking over vertices with incident-edge-size-profile pruning; meant
    for desk-scale instances, so anything above ``DEFAULT_ISO_BOUND`` vertices
    is rejected.  Returns a witnessing mapping, or None when no isomorphism
    exists.
    """
    if h1.n_vertices > DEFAULT_ISO_BOUND or h2.n_vertices > DEFAULT_ISO_BOUND:
        raise InstanceTooLarge(
            f"isomorphism search limited to {DEFAULT_ISO_BOUND} vertices "
            f"(got {h1.n_vertices} and {h2.n_vertices})"
        )
    # their multiset fixes |V| and the edge sizes: an edge of size s adds s entries s
    prof1, prof2 = _incident_size_profile(h1), _incident_size_profile(h2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None

    edges1, edge_set2 = h1.edges, set(h2.edges)
    candidates = {
        u: [v for v in h2.vertices if prof2[v] == prof1[u]] for u in h1.vertices
    }
    order = sorted(h1.vertices, key=lambda u: (len(candidates[u]), label_sort_key(u)))
    # edges of h1 indexed by the position (in `order`) of their last vertex,
    # so each edge is checked exactly once, as soon as it is fully mapped
    rank_of = {u: i for i, u in enumerate(order)}
    edges_closing_at: list[list[frozenset[str]]] = [[] for _ in order]
    for e in edges1:
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
