"""The bitmask incidence index against the frozenset formulas it replaced.

Every function below named ``ref_*`` is the label-set computation that each
consumer ran before ``Hypergraph`` carried ``edge_masks`` and ``star_masks``;
they are the slow reference.  The index-based code must agree with them
exactly on seeded random hypergraphs with isolated vertices, singleton edges,
duplicated stars, and uniform cycles with perturbations that break (or keep)
the window structure.
"""

import random
from fractions import Fraction

import pytest

from hyperinc import (
    Hypergraph,
    Unit,
    column_inner_product,
    compute_units,
    custom_weighting,
    dual,
    dual_side_certificate,
    edge_vertex_incidence,
    equal_partition_certificate,
    general_combination_certificate,
    ratio_partition_certificate,
    star,
    three_set_certificate,
    uniform_cycle,
    unit_contraction,
    vertex_edge_incidence,
    weighted_adjacency,
)
from hyperinc.errors import DuplicateEdge, IsolatedVertex
from hyperinc.hypergraph import _incident_size_profile, label_sort_key
from hyperinc.kernels import _combinatorial_side, _window_length

LABEL_POOL = [str(i) for i in range(14)] + ["a", "b", "x1", "x10", "x2", "z"]


# -- the slow reference ---------------------------------------------------------


def ref_star(h, v):
    return frozenset(i for i, e in enumerate(h.edges) if v in e)


def ref_units(h):
    groups = {}
    for v in h.vertices:
        groups.setdefault(ref_star(h, v), []).append(v)
    units = [Unit(tuple(members), generator) for generator, members in groups.items()]
    units.sort(key=lambda unit: label_sort_key(unit.members[0]))
    return tuple(units), {v: i for i, unit in enumerate(units) for v in unit.members}


def ref_unit_contraction(h):
    units, v2u = ref_units(h)
    unit_label = ["+".join(unit.members) for unit in units]
    vertex_map = {v: unit_label[v2u[v]] for v in h.vertices}
    images, labels, where, edge_map = [], [], {}, {}
    for i, e in enumerate(h.edges):
        img = frozenset(vertex_map[v] for v in e)
        if img not in where:
            where[img] = len(images)
            images.append(img)
            labels.append(h.edge_labels[i])
        edge_map[i] = where[img]
    return Hypergraph(unit_label, images, labels), vertex_map, edge_map


def ref_dual(h):
    stars, labels, where, vertex_map = [], [], {}, {}
    for v in h.vertices:
        s = frozenset(h.edge_labels[i] for i, e in enumerate(h.edges) if v in e)
        if not s:
            raise IsolatedVertex(v)
        if s not in where:
            where[s] = len(stars)
            stars.append(s)
            labels.append(v)
        vertex_map[v] = where[s]
    return Hypergraph(h.edge_labels, stars, labels), vertex_map


def ref_weighted_adjacency(h, weights):
    n = h.n_vertices
    stars = [ref_star(h, v) for v in h.vertices]
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            total = sum((weights[k] for k in stars[i] & stars[j]), Fraction(0))
            entries[i][j] = entries[j][i] = total
    return entries


def ref_column_inner_product(h, u, v, weights):
    return sum((weights[i] for i in ref_star(h, u) & ref_star(h, v)), Fraction(0))


def ref_window_length(h):
    n = h.n_vertices
    try:
        residues = sorted(int(v) for v in h.vertices)
    except ValueError:
        return None
    if residues != list(range(n)):
        return None
    lengths = {len(e) for e in h.edges}
    if len(lengths) != 1:
        return None
    k = lengths.pop()
    for e in h.edges:
        members = frozenset(int(v) for v in e)
        if not any(
            members == frozenset((start + j) % n for j in range(k)) for start in members
        ):
            return None
    return k


def ref_profile(h):
    return {v: tuple(sorted(len(e) for e in h.edges if v in e)) for v in h.vertices}


def ref_counts(h, c):
    """Per edge (side B) or per vertex (side I): members of each set met."""
    if c.side == "B":
        return [[len(e & set(members)) for _, members in c.sets] for e in h.edges]
    return [
        [len({h.edge_labels[i] for i in ref_star(h, v)} & set(members)) for _, members in c.sets]
        for v in h.vertices
    ]


# -- instances --------------------------------------------------------------------


def random_case(rng):
    """A random hypergraph with, at random, singleton edges, twin vertices
    (duplicated stars) and isolated vertices; labels mix numbers and words."""
    vertices = rng.sample(LABEL_POOL, rng.randint(1, 9))
    edges, seen = [], set()
    for _ in range(rng.randint(0, 9)):
        size = 1 if rng.random() < 0.25 else rng.randint(1, len(vertices))
        e = frozenset(rng.sample(vertices, size))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    spare = [x for x in LABEL_POOL if x not in vertices]
    if edges and spare and rng.random() < 0.5:
        original, twin = rng.choice(vertices), spare.pop()
        edges = [e | {twin} if original in e else e for e in edges]
        vertices.append(twin)
    if spare and rng.random() < 0.4:
        vertices.append(spare.pop())
    return Hypergraph(vertices, edges)


def perturbed_cycle(rng):
    """C(n, k), sometimes perturbed: an edge dropped (still windows), an edge
    swapped for a non-window k-set, an extra edge, or a vertex relabelled."""
    n = rng.randint(3, 10)
    k = rng.randint(2, n)
    h = uniform_cycle(n, k)
    edges = list(h.edges)
    how = rng.choice(["none", "drop", "swap", "extra", "relabel"])
    if how == "drop" and len(edges) > 1:
        edges.pop(rng.randrange(len(edges)))
    elif how in ("swap", "extra"):
        candidate = frozenset(rng.sample(h.vertices, k if how == "swap" else rng.randint(1, n)))
        if candidate not in edges:
            if how == "swap":
                edges[rng.randrange(len(edges))] = candidate
            else:
                edges.append(candidate)
    elif how == "relabel":
        old = rng.choice(h.vertices)
        edges = [frozenset("x" if v == old else v for v in e) for e in edges]
        return Hypergraph([("x" if v == old else v) for v in h.vertices], edges)
    return Hypergraph(h.vertices, edges)


N_CYCLES = 100
_rng = random.Random(20240611)
INSTANCES = [random_case(_rng) for _ in range(150)] + [perturbed_cycle(_rng) for _ in range(N_CYCLES)]


# -- agreement --------------------------------------------------------------------


def test_masks_and_incidence_matrices():
    for h in INSTANCES:
        for i, e in enumerate(h.edges):
            for j, v in enumerate(h.vertices):
                inside = v in e
                assert bool(h.edge_masks[i] >> j & 1) == inside
                assert bool(h.star_masks[j] >> i & 1) == inside
        assert edge_vertex_incidence(h).entries == [
            [Fraction(int(v in e)) for v in h.vertices] for e in h.edges
        ]
        assert vertex_edge_incidence(h) == edge_vertex_incidence(h).transpose()


def test_star_units_contraction_dual_profile():
    for h in INSTANCES:
        for v in h.vertices:
            assert star(h, v).edges == ref_star(h, v)
        partition = compute_units(h)
        assert (partition.units, partition.vertex_to_unit) == ref_units(h)
        assert unit_contraction(h) == ref_unit_contraction(h)
        assert _incident_size_profile(h) == ref_profile(h)
        try:
            expected = ref_dual(h)
        except IsolatedVertex:
            with pytest.raises(IsolatedVertex):
                dual(h)
        else:
            assert dual(h) == expected


def test_weighted_adjacency_and_inner_products():
    rng = random.Random(5)
    for h in INSTANCES[::2]:
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in h.edges]
        w = custom_weighting(h, weights)
        assert weighted_adjacency(h, w).matrix.entries == ref_weighted_adjacency(h, weights)
        for u in h.vertices:
            for v in h.vertices:
                expected = ref_column_inner_product(h, u, v, weights)
                assert column_inner_product(h, u, v, w) == expected


def test_window_length():
    lengths = [_window_length(h) for h in INSTANCES]
    assert lengths == [ref_window_length(h) for h in INSTANCES]
    # the corpus has cycles the perturbation kept and cycles it broke
    cycles = lengths[len(lengths) - N_CYCLES:]
    assert any(k is None for k in cycles) and any(k is not None for k in cycles)


def test_counting_side():
    """The mask counts of every linear certificate kind equal the set counts."""
    rng = random.Random(11)
    verdicts = set()
    for h in INSTANCES:
        for c in random_certificates(rng, h):
            counts = ref_counts(h, c)
            if c.kind == "general_combination":
                expected = all(
                    sum(a * n for a, n in zip(c.coefficients, row)) == 0 for row in counts
                )
            elif c.kind == "three_set_relation":
                expected = all(cu - cv == c.ratio * cw for cu, cv, cw in counts)
            elif c.kind == "equal_edge_partition":
                expected = all(cu == cv for cu, cv in counts)
            else:
                expected = all(ce == c.ratio * cf for ce, cf in counts)
            assert _combinatorial_side(h, c) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def random_certificates(rng, h):
    assign = [rng.randrange(4) for _ in h.vertices]
    u, v, w = ([x for x, a in zip(h.vertices, assign) if a == s] for s in (1, 2, 3))
    ratio = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    if u or v or w:
        yield general_combination_certificate(h, [(u, 1), (v, -ratio), (w, 2)])
    if w:
        yield three_set_certificate(h, u, v, w, ratio)
    if u and v:
        yield equal_partition_certificate(h, u, v)
        yield ratio_partition_certificate(h, u, v, ratio)
    if h.n_edges >= 2:
        names = list(h.edge_labels)
        rng.shuffle(names)
        cut = rng.randint(1, len(names) - 1)
        yield dual_side_certificate(h, names[:cut], names[cut:], ratio)


def test_duplicate_edge_names_its_position():
    with pytest.raises(DuplicateEdge, match="edge at position 2 repeats an earlier edge"):
        Hypergraph(["1", "2", "3"], [["1", "2"], ["3"], ["2", "1"], ["1", "3"]])


def test_corpus_has_every_feature():
    random_part = INSTANCES[: len(INSTANCES) - N_CYCLES]
    assert any(not ref_star(h, v) for h in random_part for v in h.vertices)
    assert any(len(e) == 1 for h in random_part for e in h.edges)
    assert any(len(compute_units(h)) < h.n_vertices and h.n_edges for h in random_part)
    assert any(h.n_edges == 0 for h in random_part)
