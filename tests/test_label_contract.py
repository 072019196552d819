"""The label contract: every label the constructor accepts survives both file forms.

A vertex or edge label may not be empty, contain whitespace, '#' or ':', or be
'vertices'; the text form could not carry it.  The property test feeds
arbitrary text labels: either the constructor raises a ``HyperincError``, or
text and JSON serialization both parse back to the same hypergraph.
"""

import json

import pytest

from hyperinc import Hypergraph, build_hypergraph
from hyperinc.errors import HyperincError, InvalidParameters
from hyperinc.formats import (
    parse_hypergraph,
    parse_hypergraph_json,
    serialize_hypergraph_json,
    serialize_hypergraph_text,
)
from hyperinc.hypergraph import dual

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

UNSAFE = ["", "a b", "a\tb", "a\nb", "a\u00a0b", "a\u2003b", "a\x1cb", " a", "a#b", "#", "a:b", ":", "vertices"]


@pytest.mark.parametrize("label", UNSAFE)
def test_unsafe_vertex_label_rejected(label):
    with pytest.raises(InvalidParameters):
        build_hypergraph([label, "c"], [[label, "c"]])


@pytest.mark.parametrize("label", UNSAFE)
def test_unsafe_edge_label_rejected(label):
    with pytest.raises(InvalidParameters):
        build_hypergraph(["a", "c"], [["a", "c"]], [label])


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": ["a b", "c"], "edges": {"e1": ["a b", "c"]}},
        {"vertices": ["a#b", "c"], "edges": {"e1": ["a#b", "c"]}},
        {"vertices": ["", "c"], "edges": {"e1": ["", "c"]}},
        {"vertices": ["a", "c"], "edges": {"vertices": ["a", "c"]}},
        {"vertices": ["a", "c"], "edges": {"x:y": ["a", "c"]}},
    ],
)
def test_json_instances_the_text_form_cannot_carry_are_rejected(data):
    with pytest.raises(InvalidParameters):
        parse_hypergraph_json(json.dumps(data))


def test_dual_stays_total_on_accepted_labels():
    h = build_hypergraph(["a+b", "x'", "²"], [["a+b", "x'"], ["²", "x'"]], ["E-1", "e.2"])
    hd, _ = dual(h)
    assert hd.vertices == ("E-1", "e.2")
    assert dual(hd)[0].n_edges == h.n_edges


def round_trips(vertex: str, edge: str) -> None:
    try:
        h = Hypergraph([vertex, "0", "iso"], [[vertex], [vertex, "0"]], [edge, "e0"])
    except HyperincError:
        return
    assert parse_hypergraph(serialize_hypergraph_text(h)) == h
    assert parse_hypergraph(serialize_hypergraph_json(h)) == h


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.text(), st.text())
@example("a b", "e1")
@example("a#b", "e1")
@example("", "e1")
@example("v", "vertices")
@example("v", "x:y")
@example("{", "}")
@example("²", "e\u200b")  # a zero-width space is not whitespace
def test_accepted_labels_round_trip_through_text_and_json(vertex, edge):
    round_trips(vertex, edge)
