"""Seeded random hypergraph generation for tests and the CLI."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Optional, Union

from .errors import InvalidParameters
from .hypergraph import Hypergraph, _checked_int

RandomSource = Union[int, random.Random, None]


def _rng(seed: RandomSource) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_hypergraph(
    n_vertices: int,
    n_edges: int,
    max_size: Optional[int] = None,
    seed: RandomSource = None,
) -> Hypergraph:
    """Distinct random hyperedges drawn uniformly among the non-empty vertex
    subsets of size <= max_size: a size s with weight C(n, s), then a uniform
    s-subset; a repeated edge is drawn again.

    Vertices are labelled "1".."n"; isolated vertices are allowed and simply
    stay uncovered.  ``n_vertices`` (>= 1), ``n_edges`` (>= 0) and a given
    ``max_size`` (>= 1, clamped to n) follow the integer rule of
    ``_checked_int``, and more distinct edges than exist raise
    ``InvalidParameters`` too.
    """
    _checked_int(n_vertices, "vertex count", 1)
    _checked_int(n_edges, "edge count", 0)
    if max_size is None:
        max_size = n_vertices
    max_size = min(_checked_int(max_size, "max edge size", 1), n_vertices)
    cumulative = list(itertools.accumulate(math.comb(n_vertices, s) for s in range(1, max_size + 1)))
    n_subsets = cumulative[-1]
    if n_edges > n_subsets:
        raise InvalidParameters(
            f"cannot draw {n_edges} distinct edges from {n_subsets} subsets"
        )
    rng = _rng(seed)
    vertices = [str(i) for i in range(1, n_vertices + 1)]
    chosen: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    while len(chosen) < n_edges:
        # integer weights keep the size draw exact
        size = bisect.bisect_right(cumulative, rng.randrange(n_subsets)) + 1
        edge = frozenset(rng.sample(vertices, size))
        if edge in seen:
            continue
        seen.add(edge)
        chosen.append(edge)
    return Hypergraph(vertices, chosen)
