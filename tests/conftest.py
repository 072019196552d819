"""Shared example hypergraphs used across the test modules."""

import math
import os
from pathlib import Path

import pytest

import hyperinc
from hyperinc import build_hypergraph
from hyperinc.generators import random_hypergraph
from hyperinc.hypergraph import bit_indices

# a child process imports the same hyperinc as this one, installed or not
SRC = str(Path(hyperinc.__file__).resolve().parents[1])
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
)


def with_extra_vertices(rng, h, clones: int, isolated: int):
    """``h`` with ``clones`` vertices copying the star of a random vertex
    (planted units) and ``isolated`` vertices in no edge."""
    clone_of = {f"c{j}": rng.choice(h.vertices) for j in range(clones)}
    edges = [set(e) | {c for c, v in clone_of.items() if v in e} for e in h.edges]
    extra = list(clone_of) + [f"z{j}" for j in range(isolated)]
    return build_hypergraph(list(h.vertices) + extra, edges, h.edge_labels)


def star_edges(h, v):
    """The indices of the edges containing ``v``, read off its star mask."""
    return frozenset(bit_indices(h.star_masks[h.vertex_index(v)]))


def random_instance(rng, max_vertices=10, max_edges=8):
    """One random test hypergraph; edge count is clamped to what exists."""
    n = rng.randint(2, max_vertices)
    max_size = rng.randint(1, n)
    available = sum(math.comb(n, s) for s in range(1, max_size + 1))
    m = rng.randint(1, min(max_edges, available))
    return random_hypergraph(n, m, max_size, rng)


@pytest.fixture
def unit_example():
    """11-vertex hypergraph whose units are {1,2},{3,4},{5,6,7},{8,9},{10},{11}."""
    return build_hypergraph(
        [str(i) for i in range(1, 12)],
        [
            ["1", "2", "5", "6", "7", "10", "11"],
            ["1", "2", "3", "4"],
            ["3", "4", "10"],
            ["5", "6", "7", "8", "9"],
            ["8", "9", "10", "11"],
        ],
        ["e1", "e2", "e3", "e4", "e5"],
    )


@pytest.fixture
def induced_cycle_example():
    """8-vertex hypergraph; vertices 1..6 induce a 4-uniform 6-cycle."""
    return build_hypergraph(
        [str(i) for i in range(1, 9)],
        [
            ["1", "2", "3", "4", "7"],
            ["2", "3", "4", "5", "8"],
            ["3", "4", "5", "6"],
            ["4", "5", "6", "1"],
            ["5", "6", "1", "2"],
            ["6", "1", "2", "3"],
        ],
        ["e1", "e2", "e3", "e4", "e5", "e6"],
    )


@pytest.fixture
def seven_vertex_example():
    """7-vertex hypergraph; vertices 1..6 induce a 3-uniform 6-cycle."""
    edges = []
    for l in range(1, 7):
        window = [str((l - 1 + j) % 6 + 1) for j in range(3)]
        edges.append(window + ["7"])
    return build_hypergraph([str(i) for i in range(1, 8)], edges)


@pytest.fixture
def equal_partition_example():
    """5 vertices, 3 edges; {1,5} vs {2,3,4} is an equal partition of hyperedges."""
    return build_hypergraph(
        ["1", "2", "3", "4", "5"],
        [["1", "2", "3", "5"], ["1", "3", "4", "5"], ["1", "2", "4", "5"]],
        ["e1", "e2", "e3"],
    )


@pytest.fixture
def k4_graph():
    """Complete graph on 4 vertices, edges named so {e1,e2} is a perfect matching."""
    return build_hypergraph(
        ["1", "2", "3", "4"],
        [["1", "2"], ["3", "4"], ["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]],
        ["e1", "e2", "e3", "e4", "e5", "e6"],
    )


@pytest.fixture
def triangle_fan_example():
    """4 vertices, three 3-edges all containing vertex 1; symmetry classes {1},{2,3,4}."""
    return build_hypergraph(
        ["1", "2", "3", "4"],
        [["1", "2", "3"], ["1", "3", "4"], ["1", "4", "2"]],
        ["e1", "e2", "e3"],
    )
