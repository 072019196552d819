"""Shared example hypergraphs used across the test modules."""

import importlib.util
import math
import os
import sys
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


def bench_workloads():
    """``bench/workloads.py``, loaded by path: the benchmark's instance
    shapes and generators, which ``bench/`` keeps apart from the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


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


# the four stages of ``linalg._ladder``, by the prime of a call: GF(2),
# GF(3), and ``_rank_mod_p`` at 5 and at the primes above 2**20
STAGES = ("GF(2)", "GF(3)", "mod 5", "primes")


def stage_of(p: int) -> str:
    return {2: "GF(2)", 3: "GF(3)", 5: "mod 5"}.get(p, "primes")


def shift_stages(monkeypatch, shift: int = 0, stages=STAGES, consistent: bool = True, at=None) -> list:
    """Patch the rank stages in ``hyperinc.linalg`` to log the prime of each
    call (2 and 3 for GF(2) and GF(3)), in the list returned, and to answer
    ``shift`` off at the ``stages`` named: at the calls of those stages
    numbered in ``at`` (counting from 0), or at all of them when it is None.
    Shifted ``consistent``ly, a stage one too high adds the first row outside
    its basis (row 0 when there is none), and one too low drops its last
    basis row; otherwise only the rank moves.  More than 40 calls fail."""
    from hyperinc import linalg

    log, hits = [], []
    gf2, gf3, mod_p = linalg._rank_gf2, linalg._rank_gf3, linalg._rank_mod_p

    def answer(p, n_rows, rank, rows):
        log.append(p)
        assert len(log) <= 40, "the ladder did not stop"
        if not shift or stage_of(p) not in stages:
            return rank, rows
        hits.append(p)
        if at is not None and len(hits) - 1 not in at:
            return rank, rows
        if not consistent:
            return rank + shift, rows
        if shift > 0:
            return rank + 1, rows + [next((i for i in range(n_rows) if i not in rows), 0)]
        return rank - 1, rows[:-1]

    monkeypatch.setattr(linalg, "_rank_gf2", lambda masks, limit=None: answer(2, len(masks), *gf2(masks, limit)))
    monkeypatch.setattr(linalg, "_rank_gf3", lambda rows, limit=None: answer(3, len(rows), *gf3(rows, limit)))
    monkeypatch.setattr(linalg, "_rank_mod_p", lambda rows, p, limit=None: answer(p, len(rows), *mod_p(rows, p, limit)))
    return log


def shifted_ladder(monkeypatch, shift: int, on) -> list:
    """Patch ``linalg._ladder``, which ``_modular_rank`` was, to answer a highest
    rank ``shift`` off on the matrices ``on`` picks; log, for each call, whether
    it was shifted."""
    from hyperinc import linalg

    ladder = linalg._ladder
    shifted = []

    def answer(m, ceiling, *args, **kwargs):
        rank, rows, reached = ladder(m, ceiling, *args, **kwargs)
        shifted.append(on(m))
        return rank + shift * shifted[-1], rows, reached

    monkeypatch.setattr(linalg, "_ladder", answer)
    return shifted
