"""``random_hypergraph`` draws uniformly among the allowed edges."""

import itertools
import random
from collections import Counter

import pytest

from hyperinc.errors import InvalidParameters
from hyperinc.generators import random_hypergraph


def test_every_small_subset_at_equal_rates():
    """On four vertices every non-empty subset of size <= max_size is drawn,
    each within 15% of its share over 6000 one-edge draws."""
    vertices = ["1", "2", "3", "4"]
    for max_size in (1, 2, 3, None):
        top = 4 if max_size is None else max_size
        allowed = {
            frozenset(c) for s in range(1, top + 1) for c in itertools.combinations(vertices, s)
        }
        rng = random.Random(top)
        draws = 6000
        counts = Counter(random_hypergraph(4, 1, max_size, rng).edges[0] for _ in range(draws))
        assert set(counts) == allowed
        share = draws / len(allowed)
        assert all(abs(count - share) < 0.15 * share for count in counts.values()), counts


def test_distinct_edges_up_to_the_last_subset():
    h = random_hypergraph(4, 10, 2, seed=3)
    assert len(set(h.edges)) == 10 and all(len(e) <= 2 for e in h.edges)


def test_negative_edge_count_is_refused():
    with pytest.raises(InvalidParameters, match="edge count must be an int >= 0, got -3"):
        random_hypergraph(5, -3, seed=0)
    assert random_hypergraph(5, 0, seed=0).n_edges == 0
