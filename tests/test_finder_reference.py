"""The exhaustive finder against the enumerator it replaced.

``find_certificates_exhaustive``, ``_pair_assignments`` and
``_consistent_ratio`` below are the finder as it was before one
``_disjoint_families`` enumerator served every kind: all 3^n (4^n for the
three-set kind) assignments are built and the ones with the wrong
orientation are discarded, and ratios are compared as ``Fraction`` values.
They are the slow reference.  The finder must return the identical list
(the same certificates in the same order) on 60 seeded instances with 1 to
8 ground elements, isolated vertices, singleton edges, twin vertices and
planted partitions, plus an edgeless instance and K4, so it is checked for
completeness as well as soundness.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from hyperinc import Hypergraph
from hyperinc import kernels
from hyperinc.errors import InstanceTooLarge, InvalidParameters
from hyperinc.hypergraph import bit_indices, compute_units
from hyperinc.kernels import (
    ALL_KINDS,
    DEFAULT_FINDER_BOUND,
    DEFAULT_THREE_SET_BOUND,
    EQUAL_EDGE_PARTITION,
    EQUAL_VERTEX_PARTITION,
    GENERAL_COMBINATION,
    RATIO_EDGE_PARTITION,
    RATIO_VERTEX_PARTITION,
    ROOT_OF_UNITY_CYCLE,
    THREE_SET_RELATION,
    UNIT_PAIR,
    KernelCertificate,
    dual_side_certificate,
    equal_partition_certificate,
    ratio_partition_certificate,
    three_set_certificate,
    unit_pair_certificate,
)

LABEL_POOL = [str(i) for i in range(12)] + ["a", "b", "x1", "x10", "x2", "z"]
ENUMERABLE_KINDS = sorted(ALL_KINDS - {GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})


# -- the slow reference --------------------------------------------------------------


def _pair_assignments(n: int):
    """All (U, V) index pairs over range(n), disjoint, non-empty, with the
    smallest assigned index in U (one orientation per unordered pair)."""
    for assign in itertools.product((0, 1, 2), repeat=n):
        first = next((a for a in assign if a), 0)
        if first != 1:
            continue
        if 2 not in assign:
            continue
        u = tuple(i for i, a in enumerate(assign) if a == 1)
        v = tuple(i for i, a in enumerate(assign) if a == 2)
        yield u, v


def _consistent_ratio(counts) -> Optional[Fraction]:
    """The unique r with num = r * den across all count pairs, if any.

    Pairs with den = 0 force num = 0; if no pair determines r it defaults
    to 1 (any value would do).  Accepts a lazy iterable and stops at the
    first contradiction.
    """
    r: Optional[Fraction] = None
    for num, den in counts:
        if den == 0:
            if num != 0:
                return None
            continue
        candidate = Fraction(num, den)
        if r is None:
            r = candidate
        elif r != candidate:
            return None
    return Fraction(1) if r is None else r


def find_certificates_exhaustive(
    h: Hypergraph, kind: str, max_ground: Optional[int] = None
) -> list[KernelCertificate]:
    """Enumerate every certificate of one kind over all disjoint set families.

    This is an oracle for property tests, not a scalable search: the ground
    set (vertices for edge-partition kinds, edges for vertex-partition kinds)
    is capped at 12 elements by default (10 for the three-set kind, whose
    enumeration is 4-way).  Output order is deterministic.
    """
    if kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {kind!r}")
    if kind in (GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE):
        raise InvalidParameters(
            f"kind {kind!r} has no finite certificate family to enumerate"
        )

    bound = max_ground
    if bound is None:
        bound = DEFAULT_THREE_SET_BOUND if kind == THREE_SET_RELATION else DEFAULT_FINDER_BOUND

    if kind in (EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION):
        # per-vertex counts against each candidate edge set
        ground, rows, noun = h.edge_labels, h.star_masks, "edges"
    else:
        # per-edge counts against each candidate vertex set
        ground, rows, noun = h.vertices, h.edge_masks, "vertices"
    if len(ground) > bound:
        raise InstanceTooLarge(f"{len(ground)} {noun} exceeds the finder bound {bound}")

    results: list[KernelCertificate] = []
    if kind == UNIT_PAIR:
        for unit in compute_units(h).units:
            for u, v in itertools.combinations(unit.members, 2):
                results.append(unit_pair_certificate(h, u, v))
        return results

    if kind == THREE_SET_RELATION:
        # 4-way assignment, all three sets non-empty
        for assign in itertools.product((0, 1, 2, 3), repeat=len(ground)):
            first = next((a for a in assign if a in (1, 2)), 0)
            if first != 1 or 2 not in assign or 3 not in assign:
                continue
            u, v, w = (sum(1 << i for i, a in enumerate(assign) if a == s) for s in (1, 2, 3))
            r = _consistent_ratio(
                ((row & u).bit_count() - (row & v).bit_count(), (row & w).bit_count())
                for row in rows
            )
            if r is not None:
                u_set, v_set, w_set = ([ground[i] for i in bit_indices(m)] for m in (u, v, w))
                results.append(three_set_certificate(h, u_set, v_set, w_set, r))
        return results

    for u_idx, v_idx in _pair_assignments(len(ground)):
        u, v = sum(1 << i for i in u_idx), sum(1 << i for i in v_idx)
        counts = (((row & u).bit_count(), (row & v).bit_count()) for row in rows)
        if kind in (EQUAL_EDGE_PARTITION, EQUAL_VERTEX_PARTITION):
            r = Fraction(1) if all(cu == cv for cu, cv in counts) else None
        else:
            r = _consistent_ratio(counts)
        if r is None:
            continue
        u_set, v_set = [ground[i] for i in u_idx], [ground[i] for i in v_idx]
        if kind == EQUAL_EDGE_PARTITION:
            results.append(equal_partition_certificate(h, u_set, v_set))
        elif kind == RATIO_EDGE_PARTITION:
            results.append(ratio_partition_certificate(h, u_set, v_set, r))
        else:
            results.append(dual_side_certificate(h, u_set, v_set, r))
    return results


# -- instances --------------------------------------------------------------------


def planted_edges(rng, vertices):
    """Edges that keep one planted relation: |e & U| = r * |e & V| (r = 1 or
    2), |e & U| - |e & V| = |e & W|, or, on the edge side, two different
    partitions of one vertex set, or two against a third (every vertex meets
    E once or twice for each time it meets F)."""
    how = rng.choice(["equal", "ratio", "three", "edge_side", "random"])
    shuffled = rng.sample(vertices, len(vertices))
    if how == "edge_side" and len(vertices) >= 2:
        ground = shuffled[: rng.randint(2, len(vertices))]
        blocks = []
        for _ in range(3):
            order = rng.sample(ground, len(ground))
            cuts = sorted(rng.sample(range(1, len(order)), rng.randint(1, len(order) - 1)))
            blocks.append({frozenset(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)])})
        if rng.random() < 0.5 and not (blocks[0] & blocks[1] or blocks[2] & (blocks[0] | blocks[1])):
            return list(blocks[0] | blocks[1] | blocks[2])  # meets E twice as often as F
        return list(blocks[0] ^ blocks[1])
    if how in ("equal", "ratio", "three") and len(vertices) >= 3:
        a, b = sorted(rng.sample(range(1, len(vertices)), 2))
        u, v, w = shuffled[:a], shuffled[a:b], shuffled[b:]
        edges = []
        for _ in range(rng.randint(1, 9)):
            if how == "three":
                c = rng.randint(0, min(len(v), len(u)))
                take_w = rng.sample(w, rng.randint(0, max(0, min(len(w), len(u) - c))))
                e = rng.sample(v, c) + rng.sample(u, c + len(take_w)) + take_w
            else:
                r = 1 if how == "equal" else 2
                c = rng.randint(0, min(len(v), len(u) // r))
                e = rng.sample(v, c) + rng.sample(u, r * c) + rng.sample(w, rng.randint(0, len(w)))
            edges.append(frozenset(e))
        return edges
    return [
        frozenset(rng.sample(vertices, 1 if rng.random() < 0.25 else rng.randint(1, len(vertices))))
        for _ in range(rng.randint(len(vertices) // 3, 10))
    ]


def random_instance(rng, size):
    """``size`` vertices, up to two of them a twin (the same star as another
    vertex) or isolated, and at most 8 edges: a planted relation, sometimes
    a singleton edge; labels mix numbers and words."""
    vertices = rng.sample(LABEL_POOL, size - rng.randint(0, min(2, size - 1)))
    edges = planted_edges(rng, vertices)
    if rng.random() < 0.4:
        edges.append(frozenset([rng.choice(vertices)]))
    edges = [e for e in dict.fromkeys(edges) if e][:8]
    while len(vertices) >= 6 and len(edges) < 3:  # else nearly every family is a hit
        e = frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))
        if e not in edges:
            edges.append(e)
    spare = [x for x in LABEL_POOL if x not in vertices]
    while len(vertices) < size:
        extra = spare.pop()
        if edges and rng.random() < 0.6:
            original = rng.choice(vertices)
            edges = [e | {extra} if original in e else e for e in edges]
        vertices.append(extra)
    return Hypergraph(vertices, edges)


_rng = random.Random(20261018)
INSTANCES = [random_instance(_rng, 1 + i % 8) for i in range(60)] + [
    Hypergraph(["1", "2", "a"], []),
    # K4: a perfect matching against the other four edges, ratio 1/2
    Hypergraph("1234", ["12", "34", "13", "14", "23", "24"]),
]


# -- agreement --------------------------------------------------------------------


def test_corpus_shape():
    """Every ground-set size from 1 to 8, an edgeless instance, singleton
    edges and isolated vertices."""
    assert {h.n_vertices for h in INSTANCES} == set(range(1, 9))
    assert max(h.n_edges for h in INSTANCES) == 8
    assert any(h.n_edges == 0 for h in INSTANCES)
    assert any(mask.bit_count() == 1 for h in INSTANCES for mask in h.edge_masks)
    assert any(mask == 0 for h in INSTANCES for mask in h.star_masks)


def test_finder_matches_reference():
    """Same certificates in the same order, for every enumerable kind."""
    hits = dict.fromkeys(ENUMERABLE_KINDS, 0)
    for h in INSTANCES:
        for kind in ENUMERABLE_KINDS:
            expected = find_certificates_exhaustive(h, kind)
            assert kernels.find_certificates_exhaustive(h, kind) == expected
            hits[kind] += len(expected)
    assert all(hits.values()), hits


def test_disjoint_families_order():
    """The assignment order of itertools.product, minus wrong orientations
    and empty sets."""
    for k in (2, 3):
        for n in range(7):
            expected = [
                tuple(sum(1 << i for i, a in enumerate(assign) if a == s) for s in range(1, k + 1))
                for assign in itertools.product(range(k + 1), repeat=n)
                if next((a for a in assign if a in (1, 2)), 0) == 1
                and all(s in assign for s in range(2, k + 1))
            ]
            assert list(kernels._disjoint_families(n, k)) == expected
    assert list(_pair_assignments(5)) == [
        tuple(tuple(bit_indices(m)) for m in masks) for masks in kernels._disjoint_families(5, 2)
    ]


def test_consistent_ratio_matches_reference():
    rng = random.Random(7)
    for _ in range(2000):
        counts = [(rng.randint(-3, 4), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        got = kernels._consistent_ratio(counts)
        assert got == _consistent_ratio(counts)
        assert got is None or type(got) is Fraction


def test_bounds_and_kinds_match_reference():
    h = Hypergraph([str(i) for i in range(13)], [["0", "1"]])
    for kind in (EQUAL_EDGE_PARTITION, THREE_SET_RELATION):
        with pytest.raises(InstanceTooLarge) as new:
            kernels.find_certificates_exhaustive(h, kind)
        with pytest.raises(InstanceTooLarge) as ref:
            find_certificates_exhaustive(h, kind)
        assert str(new.value) == str(ref.value)
    for kind in (GENERAL_COMBINATION, "nonsense"):
        for finder in (kernels.find_certificates_exhaustive, find_certificates_exhaustive):
            with pytest.raises(InvalidParameters):
                finder(h, kind)
