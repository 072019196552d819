"""The one-pass ``Hypergraph`` constructor checked against the one it replaced.

``ReferenceHypergraph.__init__`` and ``reference_check_labels`` are the
earlier constructor and label rule, kept verbatim: per member they convert to
``str``, build a frozenset per edge, take a set difference for unknown
members and OR a bit into the member's star mask; the label rule runs a
per-character ``any()``.  On seeded instances both must give the same
vertices, edge masks, star masks and edge labels, and on malformed input the
same exception class and message.
"""

import random
import sys

import pytest

from hyperinc import Hypergraph
from hyperinc.errors import (
    DuplicateEdge,
    EmptyEdge,
    EmptyVertexSet,
    InvalidParameters,
    UnknownVertexInEdge,
)
from hyperinc.formats import parse_hypergraph
from hyperinc.hypergraph import _LABEL_BREAK, _check_labels, canonical_labels

from conftest import random_instance


def reference_check_labels(labels, what: str) -> None:
    """One rule for vertex and edge labels, so that the text form carries them
    (its parser splits on ``str.isspace`` whitespace, '#' and ':')."""
    for x in labels:
        if not x or x == "vertices" or any(c.isspace() or c in "#:" for c in x):
            raise InvalidParameters(
                f"{what} label {x!r} is empty, contains whitespace, '#' or ':', or is 'vertices'"
            )


class ReferenceHypergraph:
    __slots__ = ("vertices", "edge_labels", "edge_masks", "star_masks", "_vindex", "_eindex")

    def __init__(self, vertices, edges, edge_labels=None):
        vlist = [str(v) for v in vertices]
        if not vlist:
            raise EmptyVertexSet("a hypergraph needs at least one vertex")
        if len(set(vlist)) != len(vlist):
            raise InvalidParameters("duplicate vertex labels")
        reference_check_labels(vlist, "vertex")
        self.vertices: tuple[str, ...] = canonical_labels(vlist)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

        edge_masks = []
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
            edge_masks.append(mask)
        self.edge_masks: tuple[int, ...] = tuple(edge_masks)
        self.star_masks: tuple[int, ...] = tuple(star_masks)

        if edge_labels is None:
            edge_labels = [f"e{i + 1}" for i in range(len(edge_masks))]
        else:
            edge_labels = [str(x) for x in edge_labels]
            if len(edge_labels) != len(edge_masks):
                raise InvalidParameters("edge_labels length does not match edges")
            if len(set(edge_labels)) != len(edge_labels):
                raise InvalidParameters("duplicate edge labels")
            reference_check_labels(edge_labels, "edge")
        self.edge_labels: tuple[str, ...] = tuple(edge_labels)
        self._eindex = {name: i for i, name in enumerate(self.edge_labels)}


def state(h):
    return h.vertices, h.edge_masks, h.star_masks, h.edge_labels


def assert_same(vertices, edges, edge_labels=None):
    """Both constructors on the same arguments: equal state, or the same error.
    ``edges`` is a function, so that each constructor gets fresh iterators."""
    try:
        expected = state(ReferenceHypergraph(vertices, edges(), edge_labels))
    except Exception as exc:  # the reference's error, whatever it is, is the expectation
        with pytest.raises(type(exc)) as got:
            Hypergraph(vertices, edges(), edge_labels)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return None
    assert state(Hypergraph(vertices, edges(), edge_labels)) == expected
    return expected


def sparse_shape(rng, n_vertices=200, n_edges=900):
    """Edges of 2-8 random vertices out of ``n_vertices``, all distinct, in
    random order; vertex labels 1..n given shuffled, some edges as ints."""
    labels = [str(i) for i in range(1, n_vertices + 1)]
    seen, edges = set(), []
    while len(edges) < n_edges:
        e = frozenset(rng.sample(labels, rng.randint(2, 8)))
        if e not in seen:
            seen.add(e)
            edges.append(sorted(e, key=int))
    edges = [[int(v) for v in e] if i % 7 == 0 else e for i, e in enumerate(edges)]
    rng.shuffle(labels)
    return labels, edges


def test_agrees_on_seeded_random_instances():
    rng = random.Random(22001)
    for _ in range(300):
        h = random_instance(rng, max_vertices=14, max_edges=20)
        vertices = list(h.vertices)
        rng.shuffle(vertices)
        edges = [h.mask_labels(m) for m in h.edge_masks]
        for e in edges:
            rng.shuffle(e)
        assert assert_same(vertices, lambda: edges, list(h.edge_labels)) is not None
        assert assert_same(vertices, lambda: [iter(e) for e in edges]) is not None


def test_agrees_on_the_sparse_scan_shape():
    rng = random.Random(22002)
    for _ in range(3):
        vertices, edges = sparse_shape(rng)
        names = [f"e{i + 1}" for i in range(len(edges))]
        rng.shuffle(names)
        vs, masks, stars, labels = assert_same(vertices, lambda: edges, names)
        assert len(vs) == 200 and len(masks) == 900 and any(stars)


def test_agrees_on_mixed_labels_isolated_vertices_and_no_edges():
    vertices = ["b", "10", "2", "a", "x10", "x2", "٣", "007", "z"]
    assert_same(vertices, lambda: [["b", "2"], ("10", "x2"), {"a"}, frozenset({"x10", "b"})])
    assert_same(vertices, lambda: [])
    assert_same(range(5), lambda: [range(3), [4], (0, 4)])


@pytest.mark.parametrize(
    "vertices, edges, edge_labels",
    [
        ([], [], None),
        (["1", "2", "1"], [["1"]], None),
        ([1, "1"], [], None),
        (["1", "a b"], [["1"]], None),
        (["1", ""], [["1"]], None),
        (["1", "vertices"], [["1"]], None),
        (["1", "x#"], [["1"]], None),
        (["1", "x:y"], [["1"]], None),
        (["1", "x\x1c"], [["1"]], None),
        (["a:b", "c d", "1"], [["1"]], None),  # two bad labels, given in canonical order
        (["1", "2"], [["1"], []], None),
        (["1", "2"], [["1"], ["2", "9", "1", "8"]], None),
        (["1", "2"], [["1"], [9]], None),
        (["1", "2"], [["1", "2"], ["2", "1"]], None),
        (["1", "2"], [["1", "2"], ["2", "1"], ["7"]], None),  # the duplicate comes first
        (["1", "2"], [["1", "7"], ["1", "7"]], None),  # the unknown member comes first
        (["1", "2"], [["1"], ["2"]], ["e1"]),
        (["1", "2"], [["1"], ["2"]], ["e1", "e2", "e3"]),
        (["1", "2"], [["1"], ["2"]], ["e1", "e1"]),
        (["1", "2"], [["1"], ["2"]], ["e1", "e 2"]),
        (["1", "2"], [["1"], ["2"]], ["vertices", "e2"]),
        (["1", "2"], [["1"], ["2"]], [1, "1"]),
    ],
)
def test_same_error_on_malformed_input(vertices, edges, edge_labels):
    assert assert_same(vertices, lambda: [list(e) for e in edges], edge_labels) is None


def test_unknown_members_of_a_one_shot_edge_are_all_named():
    """The edge is an iterator: the members after the first unknown one are
    still read, so the message lists every unknown member."""
    def edges():
        return [iter(["1", "x", "2", "y", 3])]
    with pytest.raises(UnknownVertexInEdge, match=r"\['3', 'x', 'y'\]"):
        Hypergraph(["1", "2"], edges())
    assert_same(["1", "2"], edges)


def test_bad_vertex_label_named_in_canonical_order():
    """Vertex labels are checked in canonical order, so the label named does
    not depend on the order given (the earlier rule named the first given)."""
    for vertices in (["c d", "a:b", "1"], ["a:b", "1", "c d"], {"1", "c d", "a:b"}):
        with pytest.raises(InvalidParameters, match="'a:b'"):
            Hypergraph(vertices, [["1"]])
    with pytest.raises(InvalidParameters, match="'a:b'"):
        parse_hypergraph("e1: 1 c:d a:b\n")


def test_repeated_member_collapses_and_int_members_become_strings():
    h = Hypergraph([1, 2, 3], [[1, "1", 2, 2], (3,)])
    assert h.vertices == ("1", "2", "3")
    assert h.edge_masks == (0b011, 0b100)
    assert h.star_masks == (0b01, 0b01, 0b10)
    assert state(h) == state(ReferenceHypergraph([1, 2, 3], [[1, "1", 2, 2], (3,)]))


def test_label_rule_matches_isspace_on_every_code_point():
    """``[\\s#:]`` flags exactly the characters ``str.isspace()`` or '#'/':' flags."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = {c for c in everything if c.isspace() or c in "#:"}
    assert set(_LABEL_BREAK.findall(everything)) == expected
    for c in expected:
        label = f"a{c}b"
        with pytest.raises(InvalidParameters) as got:
            _check_labels([label], "vertex")
        with pytest.raises(InvalidParameters) as ref:
            reference_check_labels([label], "vertex")
        assert str(got.value) == str(ref.value)
