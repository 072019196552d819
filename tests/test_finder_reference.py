"""The kernel-vector finder against the three finders it replaced.

``find_certificates_exhaustive``, ``_pair_assignments`` and
``_fraction_ratio`` below are the first finder: all 3^n (4^n for the
three-set kind) assignments are built and the ones with the wrong
orientation are discarded, and ratios are compared as ``Fraction`` values.
``find_certificates_pruned`` with ``_disjoint_families`` and
``_consistent_ratio`` is the second: one pruned enumerator of the disjoint
set families.  The finder must return the identical list (the same
certificates in the same order) as the first on 60 seeded instances with 1
to 8 ground elements, isolated vertices, singleton edges, twin vertices and
planted partitions, plus an edgeless instance and K4, and as the second on
the benchmark's planted shapes with 8 to 11 ground elements, on an
instance with three isolated vertices and on the 13-edge golden instance
``tall_8x13_isolated``, so it is checked for completeness as well as
soundness.  ``find_certificates_split`` is the third: the kernel-vector
finder before one decode rule replaced its special cases.  On all of those
instances and the golden ones the finder must return its list, and it must
admit every corpus search that the third admits, at the third's count.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from hyperinc import Hypergraph
from hyperinc import kernels, linalg
from hyperinc.errors import InstanceTooLarge, InvalidParameters
from hyperinc.formats import load_hypergraph
from hyperinc.hypergraph import bit_indices, compute_units
from hyperinc.kernels import (
    ALL_KINDS,
    EQUAL_EDGE_PARTITION,
    EQUAL_VERTEX_PARTITION,
    GENERAL_COMBINATION,
    RATIO_EDGE_PARTITION,
    RATIO_VERTEX_PARTITION,
    ROOT_OF_UNITY_CYCLE,
    SET_KINDS,
    THREE_SET_RELATION,
    UNIT_PAIR,
    KernelCertificate,
    _patterns,
)
from hyperinc.linalg import edge_vertex_incidence, proven_kernel, vertex_edge_incidence

GOLDEN = Path(__file__).resolve().parent / "golden"
LABEL_POOL = [str(i) for i in range(12)] + ["a", "b", "x1", "x10", "x2", "z"]
ENUMERABLE_KINDS = sorted(ALL_KINDS - {GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})


# -- the references' own kinds -------------------------------------------------------

# The sides, symbol tables and certificate builder of the finder before one
# table described each set kind, copied so that a fault in that table cannot
# sit on both sides of a comparison.  Every reference builds its
# certificates with ``_mask_certificate`` below, none with a constructor.
EDGE_SIDE_KINDS = frozenset({EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION})
_SIGNED = ((0, 0), (1, 0), (-1, 0))  # unused 0, U = 1, V = -1
_RATIO = ((0, 0), (1, 0), (0, -1))  # unused 0, U = 1, V = -r
_THREE_SET = ((0, 0), (1, 0), (-1, 0), (0, -1))  # unused 0, U = 1, V = -1, W = -r


def _mask_certificate(h: Hypergraph, kind: str, masks, r=None) -> KernelCertificate:
    """The certificate of a set ``kind`` on disjoint ``masks`` at ratio ``r``;
    members in index order.  Each kind is kept, and an equal kind states no
    ratio."""
    side, names = ("I", ("E", "F")) if kind in EDGE_SIDE_KINDS else ("B", ("U", "V"))
    if kind == THREE_SET_RELATION:
        names, coefficients = ("U", "V", "W"), (Fraction(-1), Fraction(1), r)
    elif kind == UNIT_PAIR:
        names, coefficients = ("u", "v"), (Fraction(1), Fraction(-1))
    elif kind in (EQUAL_EDGE_PARTITION, EQUAL_VERTEX_PARTITION):
        coefficients, r = (Fraction(1), Fraction(-1)), None
    else:  # chi(U) - r*chi(V) on vertices, or chi(E) - r*chi(F) on edges
        coefficients = (Fraction(1), -r)
    labels = h.vertices if side == "B" else h.edge_labels
    sets = tuple(
        (name, tuple(labels[i] for i in bit_indices(mask))) for name, mask in zip(names, masks)
    )
    return KernelCertificate(kind, side, sets, coefficients, ratio=r)


def _unit_pairs(h: Hypergraph) -> list[KernelCertificate]:
    """The unit pair certificates, each unit's pairs in member order."""
    index = h.vertex_index
    return [
        _mask_certificate(h, UNIT_PAIR, (1 << index(u), 1 << index(v)))
        for unit in compute_units(h).units
        for u, v in itertools.combinations(unit.members, 2)
    ]


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


def _fraction_ratio(counts) -> Optional[Fraction]:
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


def find_certificates_exhaustive(h: Hypergraph, kind: str) -> list[KernelCertificate]:
    """Enumerate every certificate of one kind over all disjoint set families.

    This is an oracle for property tests, not a scalable search: it takes
    3^n steps on n ground elements (4^n for the three-set kind), vertices for
    edge-partition kinds and edges for vertex-partition kinds, so callers
    keep n small.  Output order is deterministic.
    """
    if kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {kind!r}")
    if kind in (GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE):
        raise InvalidParameters(
            f"kind {kind!r} has no finite certificate family to enumerate"
        )

    if kind in (EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION):
        # per-vertex counts against each candidate edge set
        ground, rows = h.edge_labels, h.star_masks
    else:
        # per-edge counts against each candidate vertex set
        ground, rows = h.vertices, h.edge_masks

    results: list[KernelCertificate] = []
    if kind == UNIT_PAIR:
        return _unit_pairs(h)

    if kind == THREE_SET_RELATION:
        # 4-way assignment, all three sets non-empty
        for assign in itertools.product((0, 1, 2, 3), repeat=len(ground)):
            first = next((a for a in assign if a in (1, 2)), 0)
            if first != 1 or 2 not in assign or 3 not in assign:
                continue
            u, v, w = (sum(1 << i for i, a in enumerate(assign) if a == s) for s in (1, 2, 3))
            r = _fraction_ratio(
                ((row & u).bit_count() - (row & v).bit_count(), (row & w).bit_count())
                for row in rows
            )
            if r is not None:
                results.append(_mask_certificate(h, kind, (u, v, w), r))
        return results

    for u_idx, v_idx in _pair_assignments(len(ground)):
        u, v = sum(1 << i for i in u_idx), sum(1 << i for i in v_idx)
        counts = (((row & u).bit_count(), (row & v).bit_count()) for row in rows)
        if kind in (EQUAL_EDGE_PARTITION, EQUAL_VERTEX_PARTITION):
            r = Fraction(1) if all(cu == cv for cu, cv in counts) else None
        else:
            r = _fraction_ratio(counts)
        if r is not None:
            results.append(_mask_certificate(h, kind, (u, v), r))
    return results


# -- the pruned reference ------------------------------------------------------------

# ``find_certificates_pruned``, ``_disjoint_families`` and ``_consistent_ratio``
# are the finder before it enumerated kernel vectors: one pruned enumerator of
# the disjoint set families, each tested by integer cross-multiplication.


def _disjoint_families(n: int, k: int):
    """Every k-tuple of bitmasks of pairwise disjoint, non-empty subsets of
    range(n) whose smallest element of S1 | S2 lies in S1 (one orientation
    per unordered pair), in the lexicographic order of the assignments
    range(n) -> {0 (unused), 1..k}.  A prefix that puts an element in S2
    before any in S1 is cut, not completed and discarded."""

    def extend(i: int, masks: tuple[int, ...]):
        if i == n:
            if all(masks):
                yield masks
            return
        yield from extend(i + 1, masks)
        bit = 1 << i
        for s in range(k):
            if s == 1 and not masks[0]:
                continue
            yield from extend(i + 1, masks[:s] + (masks[s] | bit,) + masks[s + 1:])

    return extend(0, (0,) * k)


def _consistent_ratio(counts) -> Optional[Fraction]:
    """The unique r with num = r * den across all count pairs, if any.

    Pairs with den = 0 force num = 0; if no pair determines r it defaults
    to 1 (any value would do).  Accepts a lazy iterable and stops at the
    first contradiction.
    """
    r_num, r_den = 1, 0  # r = r_num / r_den once a pair with den != 0 fixed it
    for num, den in counts:
        if den == 0:
            if num != 0:
                return None
        elif r_den == 0:
            r_num, r_den = num, den
        elif num * r_den != r_num * den:
            return None
    return Fraction(r_num, r_den) if r_den else Fraction(1)


def find_certificates_pruned(h: Hypergraph, kind: str) -> list[KernelCertificate]:
    """Enumerate every certificate of one kind over all disjoint set families.

    This is an oracle for property tests, not a scalable search: it visits
    up to 3^n families of n ground elements (4^n for the three-set kind), so
    callers keep n small.  Output order is deterministic.
    """
    if kind not in ALL_KINDS:
        raise InvalidParameters(f"unknown certificate kind {kind!r}")
    if kind in (GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE):
        raise InvalidParameters(
            f"kind {kind!r} has no finite certificate family to enumerate"
        )

    if kind in (EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION):
        # per-vertex counts against each candidate edge set
        ground, rows = h.edge_labels, h.star_masks
    else:
        # per-edge counts against each candidate vertex set
        ground, rows = h.vertices, h.edge_masks

    results: list[KernelCertificate] = []
    if kind == UNIT_PAIR:
        return _unit_pairs(h)

    # pairs test |row & U| = r * |row & V|; the three-set kind tests
    # |row & U| - |row & V| = r * |row & W|; an equal kind needs r = 1
    k = 3 if kind == THREE_SET_RELATION else 2
    for masks in _disjoint_families(len(ground), k):
        plus, minus, scaled = masks if k == 3 else (masks[0], 0, masks[1])
        r = _consistent_ratio(
            ((row & plus).bit_count() - (row & minus).bit_count(), (row & scaled).bit_count())
            for row in rows
        )
        if r is None or (r != 1 and kind in (EQUAL_EDGE_PARTITION, EQUAL_VERTEX_PARTITION)):
            continue
        results.append(_mask_certificate(h, kind, masks, r))
    return results


# -- the split reference ------------------------------------------------------------

# ``find_certificates_split`` with ``_pinned_ratios``, ``_kernel_vectors``,
# ``_submasks``, ``_splits`` ``_three_set_cores``, ``_masks``,
# ``_leads``, ``_assignment_key`` and ``_spread`` is the finder before it
# had one decode rule: one walk split into {0, 1, -1} vectors and vectors that
# pin r, with the r = 0, 1 and -1 three-set families and the ratio kinds'
# r = 0 family rebuilt from submasks, each hit carried as set masks.  Copied as it was, except that it
# returns its counted work with the certificates and leaves unit pairs out.


def _masks(kernel, free, free_codes, pivot_codes, n_sets):
    masks = [0] * (n_sets + 1)
    for j, s in itertools.chain(zip(free, free_codes), zip(kernel[0], pivot_codes)):
        masks[s] |= 1 << j
    return tuple(masks[1:])


def _leads(u: int, v: int) -> bool:
    """The smallest element of U | V lies in U (one orientation per pair)."""
    return bool((u | v) & -(u | v) & u)


def _assignment_key(masks: tuple[int, ...], n: int) -> list[int]:
    """The order of the assignments range(n) -> {0 (unused), 1..k}, element 0
    most significant."""
    code = [0] * n
    for s, mask in enumerate(masks, start=1):
        for j in bit_indices(mask):
            code[j] = s
    return code


def _spread(cores, zero):
    """Every core with each zero column added to no set or to one of its
    sets (a zero column changes no count, so r stays), kept when every set
    is non-empty and U leads U | V."""
    bits = [1 << j for j in bit_indices(zero)]
    for core, r in cores:
        family = [core]
        for bit in bits:
            family += [m[:i] + (m[i] | bit,) + m[i + 1:] for m in family for i in range(len(m))]
        for masks in family:
            if all(masks) and _leads(masks[0], masks[1]):
                yield masks, r


def _pinned_ratios(a_sums, b_sums, d, symbols) -> list[Fraction]:
    """The r at which the first pivot that pins r takes a symbol's value.

    Pivot p takes symbol (a, b) where (a_p - d*a) + (b_p - d*b) * r = 0.  A
    pivot that takes one symbol at every r pins nothing; when no pivot pins
    r, the vector lies in the kernel at every r and the list is empty.
    """
    for x, y in zip(a_sums, b_sums):
        roots = []
        for a, b in symbols:
            k0, k1 = x - d * a, y - d * b
            if k1:
                roots.append(Fraction(-k0, k1))
            elif not k0:
                break
        else:
            return roots
    return []


def _kernel_vectors(kernel, free, symbols, accept):
    """One walk over the patterns of ``symbols``: (signed, pinned), the (plus,
    minus) masks of every {0, 1, -1} kernel vector, zero included, whose free
    codes are no symbol of r (none when ``symbols`` has no -1), and (masks, r)
    for every kernel vector whose coordinates all take symbol values at one r
    that a pivot pins and ``accept`` admits (none when ``accept`` is None)."""
    d = kernel[1]
    sign = {0: 0, d: 1, -d: 2}
    signs = (-1, 0) in symbols
    signed, pinned = [], []
    for free_codes, a_sums, b_sums in _patterns(kernel, free, symbols):
        # no free code of r: columns meeting a row never cancel
        if signs and not any(b_sums):
            pivot_codes = [sign.get(x) for x in a_sums]
            if None not in pivot_codes:
                signed.append(_masks(kernel, free, free_codes, pivot_codes, 2))
        if accept is None:
            continue
        for r in _pinned_ratios(a_sums, b_sums, d, symbols):
            if not accept(r):
                continue
            # every value scaled by d * r.denominator, so the test is on integers
            num, den = r.numerator, r.denominator
            code = {d * (a * den + b * num): s for s, (a, b) in enumerate(symbols)}
            pivot_codes = [code.get(x * den + y * num) for x, y in zip(a_sums, b_sums)]
            if None not in pivot_codes:
                pinned.append((_masks(kernel, free, free_codes, pivot_codes, len(symbols) - 1), r))
    return signed, pinned


def _submasks(mask: int):
    """The non-empty submasks of ``mask``."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _splits(plus, minus, nonzero, n_zero):
    """(mask, r) for each family of cores (plus - W, minus - W, W) that the
    {0, 1, -1} kernel vector (plus, minus) expands to, W over the non-empty
    submasks of mask: W outside plus | minus (r = 0), inside minus (r = 1) or
    inside plus (r = -1).  A family that leaves more of U and V empty than
    there are zero columns to fill them is skipped: none of its cores spreads
    to a certificate."""
    families = (
        (nonzero ^ plus ^ minus, 0, (not plus) + (not minus)),
        (minus, 1, not plus),
        (plus, -1, not minus),
    )
    return [(mask, Fraction(r)) for mask, r, empty in families if empty <= n_zero]


def _three_set_cores(signed, splits, pinned):
    """(U, V, W) cores of |row & U| - |row & V| = r * |row & W|.  Where -r
    is 0, 1 or -1 they come from a {0, 1, -1} kernel vector (plus, minus):
    W empty (no row meets W, so r = 1) or one of its ``_splits``, given in
    ``splits`` in the order of ``signed``.  Any other r is ``pinned``."""
    cores = []
    for (plus, minus), split in zip(signed, splits):
        cores.append(((plus, minus, 0), Fraction(1)))
        for mask, r in split:
            cores.extend(((plus & ~w, minus & ~w, w), r) for w in _submasks(mask))
    return cores + pinned


def find_certificates_split(h: Hypergraph, kind: str) -> tuple[list[KernelCertificate], int]:
    """The certificates of one enumerable kind other than unit pairs, and the
    steps counted for them."""
    # the ground elements are the columns: edges (I_H) or vertices (B_H)
    if kind in EDGE_SIDE_KINDS:
        columns, n_rows, incidence = h.edge_masks, h.n_vertices, vertex_edge_incidence
    else:
        columns, n_rows, incidence = h.star_masks, h.n_edges, edge_vertex_incidence
    n = len(columns)
    work = 0

    def charge(cost: int) -> None:
        nonlocal work
        work += cost
        if work > kernels.FINDER_BOUND:
            raise InstanceTooLarge(
                f"finding {kind} certificates takes at least {work} counted steps, "
                f"over the finder bound {kernels.FINDER_BOUND}"
            )

    def check_output(cells: int) -> None:
        if cells > kernels.OUTPUT_BOUND:
            raise InstanceTooLarge(
                f"checking the {kind} certificates found takes {cells} incidence cells, "
                f"over the output bound {kernels.OUTPUT_BOUND}"
            )

    kernel = proven_kernel(incidence(h))
    zero = sum(1 << j for j, column in enumerate(columns) if not column)  # meet no row
    nonzero = ((1 << n) - 1) ^ zero
    n_zero = zero.bit_count()
    free = [j for j in bit_indices(nonzero) if j in kernel[2]]
    ratio = kind in (RATIO_EDGE_PARTITION, RATIO_VERTEX_PARTITION)
    if kind == THREE_SET_RELATION:
        symbols, accept = _THREE_SET, lambda r: r not in (0, 1, -1)
    elif ratio:
        symbols, accept = _RATIO, lambda r: r > 0
    else:
        symbols, accept = _SIGNED, None  # no symbol of r, so no pivot pins one
    charge(len(symbols) ** len(free) * len(kernel[0]))
    if ratio and zero:
        charge(2 ** nonzero.bit_count() - 1)  # the r = 0 family
    signed, pinned = _kernel_vectors(kernel, free, symbols, accept)
    if kind == THREE_SET_RELATION:
        splits = [_splits(plus, minus, nonzero, n_zero) for plus, minus in signed]
        charge(sum(2 ** mask.bit_count() - 1 for split in splits for mask, _ in split))
        cores = _three_set_cores(signed, splits, pinned)
    else:
        # the ratio kinds take the zero vector, which no pivot pins, and U
        # empty (only zero columns can fill it) against any V at r = 0
        if ratio:
            signed = [(0, 0)]
            pinned += [((0, v), Fraction(0)) for v in _submasks(nonzero if zero else 0)]
        cores = [(masks, Fraction(1)) for masks in signed] + pinned
    charge(len(cores) * (len(symbols) ** n_zero - 1))
    hits = sorted(_spread(cores, zero), key=lambda hit: _assignment_key(hit[0], n))
    # the product indexes every column and reads each row at the sets' elements
    check_output(sum(n + n_rows * sum(m.bit_count() for m in masks) for masks, _ in hits))

    return [_mask_certificate(h, kind, masks, r) for masks, r in hits], work


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


# The benchmark's planted shapes, larger than the corpus: U = {1,2} against
# V = {3,4} (equal), {5,6} against {7} (ratio 2) and twins 8 and 9, every
# edge a disjoint union of atoms that keeps all three; and U = {1,2},
# V = {3}, W = {4} (three-set, r = 1).  Vertices "0" and "a" meet no edge.
PAIR_ATOMS = ("13", "24", "14", "23", "89", "567")
THREE_SET_PATTERNS = ("", "13", "23", "14", "24", "1234")
ISOLATED = ("0", "a")


def pair_shape_instance(rng, n_free, n_isolated):
    free = [str(10 + i) for i in range(n_free)]
    atoms = [frozenset(a) for a in PAIR_ATOMS] + [frozenset([v]) for v in free]
    edges: dict[frozenset, None] = {}
    n_edges = rng.randint(7, 10)
    while len(edges) < n_edges:
        chosen = rng.sample(atoms, rng.randint(1, 3))
        e = frozenset().union(*chosen)
        if len(e) == sum(map(len, chosen)) and len(e) >= 2:
            edges[e] = None
    vertices = [str(v) for v in range(1, 10)] + free + list(ISOLATED[:n_isolated])
    return Hypergraph(vertices, list(edges))


def three_set_shape_instance(rng, n_vertices, n_isolated):
    free = [str(v) for v in range(5, n_vertices + 1)]
    edges: dict[frozenset, None] = {}
    for _ in range(n_vertices):
        e = frozenset(rng.choice(THREE_SET_PATTERNS)) | {v for v in free if rng.random() < 0.4}
        if len(e) >= 2:
            edges[e] = None
    vertices = [str(v) for v in range(1, n_vertices + 1)] + list(ISOLATED[:n_isolated])
    return Hypergraph(vertices, list(edges))


_bench_rng = random.Random(9110)
PAIR_SHAPES = [
    pair_shape_instance(_bench_rng, n_free, n_isolated)
    for n_free, n_isolated in ((0, 0), (1, 0), (2, 0), (0, 2), (1, 1), (2, 0))
]
THREE_SET_SHAPES = [
    three_set_shape_instance(_bench_rng, 8, 0),
    three_set_shape_instance(_bench_rng, 6, 2),
    Hypergraph([str(v) for v in range(1, 9)], []),
]


# Five vertices with planted edges and three isolated ones, "0" first in the
# order so that r = 0 ratio hits (U isolated) lead: the zero core spreads into
# U, V and W from the isolated vertices alone.
_isolated_rng = random.Random(3196)
ISOLATED_INSTANCE = Hypergraph(
    ["0", "1", "2", "3", "4", "5", "6", "7"],
    [e for e in dict.fromkeys(planted_edges(_isolated_rng, ["1", "2", "3", "4", "5"])) if e],
)


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
    """Same certificates in the same order, for every enumerable kind, and
    identical: equal reprs pin the types of coefficients and ratio too."""
    hits = dict.fromkeys(ENUMERABLE_KINDS, 0)
    for h in INSTANCES:
        for kind in ENUMERABLE_KINDS:
            expected = find_certificates_exhaustive(h, kind)
            found = kernels.find_certificates_exhaustive(h, kind)
            assert found == expected and repr(found) == repr(expected)
            hits[kind] += len(expected)
    assert all(hits.values()), hits


def test_bench_shapes_match_pruned_reference():
    """Same certificates in the same order as the pruned enumerator, on the
    benchmark's shapes: zero columns exercise the r = 0 ratio hits, the
    edgeless instance the default r = 1 ones."""
    assert {h.n_vertices for h in PAIR_SHAPES} == {9, 10, 11}
    assert any(h.star_masks.count(0) == 2 for h in PAIR_SHAPES)  # two isolated vertices
    assert any(h.star_masks.count(0) == 2 for h in THREE_SET_SHAPES[:2])
    ratio_hits = 0
    for h in PAIR_SHAPES + THREE_SET_SHAPES:
        for kind in ENUMERABLE_KINDS:
            if kind == THREE_SET_RELATION and h.n_vertices > 8:
                continue
            expected = find_certificates_pruned(h, kind)
            found = kernels.find_certificates_exhaustive(h, kind)
            assert found == expected and repr(found) == repr(expected), (h, kind)
            ratio_hits += sum(c.ratio not in (None, 1) for c in found)
    assert ratio_hits


def test_bench_shapes_match_reference():
    """The slow reference too, where it takes well under a second: the
    nine-vertex pair shape and both three-set shapes with edges."""
    for h in [PAIR_SHAPES[0], *THREE_SET_SHAPES[:2]]:
        for kind in ENUMERABLE_KINDS:
            found, expected = kernels.find_certificates_exhaustive(h, kind), find_certificates_exhaustive(h, kind)
            assert found == expected and repr(found) == repr(expected)


# per fault, the message on B_H of ``PAIR_SHAPES[0]`` (side "B": one of its
# free columns is eliminated, the others copy a pivot) and on I_H (side "I":
# two free columns are eliminated)
ECHELON_FAULTS = {
    "extra_pivot": {"B": "rank disagreement", "I": "rank disagreement"},
    "missing_pivot": {"B": "rank disagreement", "I": "rank disagreement"},
    "wrong_entry": {"B": "re-multiplication", "I": "re-multiplication"},
}


@pytest.mark.parametrize("fault", sorted(ECHELON_FAULTS))
def test_echelon_faults_are_caught(monkeypatch, fault):
    """A wrong echelon form raises instead of returning a shorter list.  A
    pivot too many or too few is not the rank of the stage whose basis rows
    were eliminated, and a wrong reduced entry moves its own vector, which
    fails the re-multiplication."""
    h = PAIR_SHAPES[0]
    eliminate = linalg._fraction_free_rref

    def faulty(rows):
        pivots, reduced, d = eliminate(rows)
        if fault == "extra_pivot":
            pivots = pivots + [next(c for c in range(len(rows[0])) if c not in pivots)]
        elif fault == "missing_pivot":
            pivots = pivots[:-1]
        else:
            reduced[0][0] += 1  # the first free column's entry in the first pivot row
        return pivots, reduced, d

    kinds = (EQUAL_EDGE_PARTITION, RATIO_VERTEX_PARTITION, THREE_SET_RELATION)
    assert {SET_KINDS[kind][0] for kind in kinds} == {"B", "I"}
    for kind in kinds:
        assert kernels.find_certificates_exhaustive(h, kind)
    monkeypatch.setattr(linalg, "_fraction_free_rref", faulty)
    for kind in kinds:
        with pytest.raises(ArithmeticError, match=ECHELON_FAULTS[fault][SET_KINDS[kind][0]]):
            kernels.find_certificates_exhaustive(h, kind)


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
            assert list(_disjoint_families(n, k)) == expected
    assert list(_pair_assignments(5)) == [
        tuple(tuple(bit_indices(m)) for m in masks) for masks in _disjoint_families(5, 2)
    ]


def test_consistent_ratio_matches_reference():
    rng = random.Random(7)
    for _ in range(2000):
        counts = [(rng.randint(-3, 4), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        got = _consistent_ratio(counts)
        assert got == _fraction_ratio(counts)
        assert got is None or type(got) is Fraction


def test_bounds_and_kinds_match_reference():
    """Thirteen edges were over the old ground-set cap; the finder now
    returns the pruned reference's list for them.  A search whose counted
    work passes the bound is refused, and an unknown or unenumerable kind
    is refused by both."""
    tall = load_hypergraph(str(GOLDEN / "tall_8x13_isolated.txt"))
    assert tall.n_edges == 13
    found = kernels.find_certificates_exhaustive(tall, EQUAL_VERTEX_PARTITION)
    assert len(found) == 30 and found == find_certificates_pruned(tall, EQUAL_VERTEX_PARTITION)

    h = Hypergraph([str(i) for i in range(13)], [["0", "1"]])  # 11 isolated: 4^11 spreads
    with pytest.raises(InstanceTooLarge, match="over the finder bound"):
        kernels.find_certificates_exhaustive(h, THREE_SET_RELATION)
    for kind in (GENERAL_COMBINATION, "nonsense"):
        for finder in (kernels.find_certificates_exhaustive, find_certificates_exhaustive):
            with pytest.raises(InvalidParameters):
                finder(h, kind)


def test_isolated_vertices_match_pruned_reference():
    """Three isolated vertices next to planted edges, on every kind: r = 0,
    pinned and r = 1 hits, and three-set hits made of isolated vertices."""
    h = ISOLATED_INSTANCE
    assert h.n_edges and h.star_masks.count(0) == 3
    found = {kind: kernels.find_certificates_exhaustive(h, kind) for kind in ENUMERABLE_KINDS}
    for kind in ENUMERABLE_KINDS:
        assert found[kind] == find_certificates_pruned(h, kind), kind
    ratios = {c.ratio for kind in (RATIO_EDGE_PARTITION, RATIO_VERTEX_PARTITION) for c in found[kind]}
    assert {0, 1} < ratios  # r = 0, r = 1 and at least one pinned ratio
    isolated = {"0", "6", "7"}
    assert any(
        all(set(members) <= isolated for _, members in c.sets) for c in found[THREE_SET_RELATION]
    )


def test_patterns_walk_only_columns_that_meet_a_row(monkeypatch):
    """Each search walks once; the walk gets no zero column and visits
    len(symbols)^(nullity - |Z|) patterns: one, not 4^8, on the edgeless
    eight-vertex instance."""
    walks = []
    patterns = kernels._patterns

    def counting(echelon, free, symbols):
        walked = list(patterns(echelon, free, symbols))
        walks.append((free, len(symbols), len(walked)))
        return iter(walked)

    monkeypatch.setattr(kernels, "_patterns", counting)
    edgeless = THREE_SET_SHAPES[2]
    for h in [*INSTANCES, PAIR_SHAPES[3], THREE_SET_SHAPES[1], ISOLATED_INSTANCE]:
        for kind in sorted(set(ENUMERABLE_KINDS) - {UNIT_PAIR}):
            if kind == THREE_SET_RELATION and h.n_vertices > 10:
                continue
            edge_side = kind in (EQUAL_VERTEX_PARTITION, RATIO_VERTEX_PARTITION)
            incidence = linalg.vertex_edge_incidence if edge_side else linalg.edge_vertex_incidence
            columns = h.edge_masks if edge_side else h.star_masks
            zero = {j for j, column in enumerate(columns) if not column}
            nullity = linalg.rank_and_nullspace(incidence(h)).nullity
            walks.clear()
            kernels.find_certificates_exhaustive(h, kind)
            assert len(walks) == 1
            for free, n_symbols, n_walked in walks:
                assert not zero.intersection(free)
                assert len(free) == nullity - len(zero)
                assert n_walked == n_symbols ** len(free)
    walks.clear()
    assert len(kernels.find_certificates_exhaustive(edgeless, THREE_SET_RELATION)) == 23310
    assert [n_walked for *_, n_walked in walks] == [1]


# Every search the split reference is checked on: the corpus, the benchmark's
# shapes, the isolated instance and the golden instances.
SPLIT_SEARCHES = [
    (h, kind)
    for h in [
        *INSTANCES,
        *PAIR_SHAPES,
        *THREE_SET_SHAPES,
        ISOLATED_INSTANCE,
        *(load_hypergraph(str(path)) for path in sorted(GOLDEN.glob("*.txt"))),
    ]
    for kind in sorted(set(ENUMERABLE_KINDS) - {UNIT_PAIR})
]


def test_finder_matches_split_reference():
    """Same certificates in the same order as the finder with the split walk
    and the rebuilt r = 0, 1 and -1 families, on every search of
    ``SPLIT_SEARCHES``."""
    for h, kind in SPLIT_SEARCHES:
        expected, _ = find_certificates_split(h, kind)
        found = kernels.find_certificates_exhaustive(h, kind)
        assert found == expected and repr(found) == repr(expected), (h, kind)


def test_searches_the_split_reference_admits_are_admitted(monkeypatch):
    """With the finder bound set to the split reference's counted work, every
    corpus search it admits is admitted: the one decode rule never counts
    more.  Some count less, as the W sets that a {0, 1, -1} vector leaves at
    r = 0, 1 and -1 are expanded at the pivots of each pattern, where the
    reference expanded them over every column that meets a row."""
    bound, cheaper = kernels.FINDER_BOUND, 0
    for h in INSTANCES:
        for kind in sorted(set(ENUMERABLE_KINDS) - {UNIT_PAIR}):
            monkeypatch.setattr(kernels, "FINDER_BOUND", bound)
            expected, work = find_certificates_split(h, kind)
            monkeypatch.setattr(kernels, "FINDER_BOUND", work)
            assert kernels.find_certificates_exhaustive(h, kind) == expected
            monkeypatch.setattr(kernels, "FINDER_BOUND", work - 1)
            try:
                kernels.find_certificates_exhaustive(h, kind)
                cheaper += 1
            except InstanceTooLarge:
                pass
    assert cheaper
