"""``compute_units`` and ``_window_length`` checked against the code they replaced.

``reference_compute_units`` is the earlier ``compute_units``: it decoded every
unit's star mask into a frozenset of edge indices, its generator.  It is kept
as it was, except that it returns (members, generator) pairs, since ``Unit``
now stores the star mask itself.  ``reference_window_length`` is the earlier
``_window_length``, kept verbatim: it mapped each residue to its bit through
a table and built each of the n windows by adding its k bits, where the
current one requires the residues in canonical order, so that bit j is residue
j, and takes the windows as the n rotations of the lowest k bits.  Both must
agree exactly on seeded instances; they differ only on labels with a sign or
an underscore, which ``int`` reads as residues but which sort after the
decimal labels (``test_sign_labels_are_not_residues``).
"""

import random

from hyperinc import Hypergraph, compute_units, uniform_cycle
from hyperinc.hypergraph import bit_indices
from hyperinc.kernels import _window_length

from conftest import random_instance


def reference_compute_units(h):
    groups = {}
    for v, s in zip(h.vertices, h.star_masks):
        groups.setdefault(s, []).append(v)
    units = [(tuple(members), frozenset(bit_indices(s))) for s, members in groups.items()]
    v2u = {v: i for i, (members, _) in enumerate(units) for v in members}
    return units, v2u


def reference_window_length(h):
    n = h.n_vertices
    try:
        residues = [int(v) for v in h.vertices]
    except ValueError:
        return None
    if sorted(residues) != list(range(n)):
        return None
    lengths = {mask.bit_count() for mask in h.edge_masks}
    if len(lengths) != 1:
        return None
    k = lengths.pop()
    bit = [0] * n
    for j, residue in enumerate(residues):
        bit[residue] = 1 << j
    windows = {sum(bit[(start + t) % n] for t in range(k)) for start in range(n)}
    return k if all(mask in windows for mask in h.edge_masks) else None


def with_twins(rng, h):
    """``h`` with a few vertices cloned, so that units of 2 or more appear."""
    vertices, edges = list(h.vertices), [set(e) for e in h.edges]
    for i in range(rng.randint(0, 3)):
        original, twin = rng.choice(h.vertices), f"t{i}"
        vertices.append(twin)
        for e in edges:
            if original in e:
                e.add(twin)
    if rng.random() < 0.3:
        vertices.append("isolated")
    return Hypergraph(vertices, edges, h.edge_labels)


def test_units_agree_with_reference():
    rng = random.Random(35301)
    multi = 0
    for _ in range(200):
        h = with_twins(rng, random_instance(rng, max_vertices=12, max_edges=10))
        partition = compute_units(h)
        units, v2u = reference_compute_units(h)
        assert [(u.members, u.generator) for u in partition.units] == units
        assert partition.vertex_to_unit == v2u
        for u in partition.units:
            assert u.generator == frozenset(bit_indices(u.star))
            assert u.star == h.star_masks[h.vertex_index(u.members[0])]
            # the units report lists the generator in this order, unsorted
            assert bit_indices(u.star) == sorted(u.generator)
        multi += sum(len(u.members) > 1 for u in partition.units)
    assert multi > 100


def relabelled(rng, h):
    """``h`` with one residue written with a leading zero, which still reads as
    a residue but sorts differently, or renamed to a word."""
    old = rng.choice(h.vertices)
    name = {old: rng.choice(["0" + old, "x"])}
    return Hypergraph([name.get(v, v) for v in h.vertices], [[name.get(v, v) for v in e] for e in h.edges])


def random_uniform(rng, n, k):
    """k-sets of residues 0..n-1, drawn at random: rarely all windows."""
    edges = {frozenset(rng.sample(range(n), k)) for _ in range(rng.randint(1, n))}
    return Hypergraph([str(i) for i in range(n)], [[str(v) for v in e] for e in edges])


def test_window_length_agrees_with_reference():
    rng = random.Random(35302)
    instances = []
    for n in range(2, 13):
        for k in range(2, n + 1):  # n = k included: the one full window
            cycle = uniform_cycle(n, k)
            instances.append(cycle)
            edges = list(cycle.edges)
            instances.append(Hypergraph(cycle.vertices, rng.sample(edges, rng.randint(1, len(edges)))))
            instances.append(relabelled(rng, cycle))
            instances.append(random_uniform(rng, n, k))
    instances += [random_instance(rng, max_vertices=9, max_edges=8) for _ in range(100)]
    instances.append(Hypergraph(["0"], [["0"]]))
    lengths = [_window_length(h) for h in instances]
    assert lengths == [reference_window_length(h) for h in instances]
    assert sum(k is not None for k in lengths) > 100
    assert sum(k is None for k in lengths) > 100


def test_sign_labels_are_not_residues():
    """``+0 1 2`` holds the residues 0, 1, 2 to ``int``, but its canonical order
    is ``1 2 +0``: the reference read the triangle as a 2-uniform cycle, the
    current ``_window_length`` reads no cycle.  The same holds for an
    underscore; such a label at the top residue sorts where its value would,
    and both read the cycle.  ``verify_certificate`` never asks, since it
    first requires the labels to be exactly 0..n-1."""
    for zero in ("+0", "0_0"):
        h = Hypergraph([zero, "1", "2"], [[zero, "1"], ["1", "2"], ["2", zero]])
        assert h.vertices == ("1", "2", zero)
        assert reference_window_length(h) == 2
        assert _window_length(h) is None
    h = Hypergraph(["0", "1", "+2"], [["0", "1"], ["1", "+2"], ["+2", "0"]])
    assert reference_window_length(h) == _window_length(h) == 2
