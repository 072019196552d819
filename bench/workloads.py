"""Seeded workloads: instance generators with planted ground truth, and the
pool of CLI calls each workload repeats.

The generators here are the benchmark's own.  ``hyperinc.generators`` is not
used: ``random_hypergraph`` includes each vertex with probability 1/2 and
rejects edges above ``max_size``, so sparse draws effectively never return.

A pool is one cycle of CLI calls.  Every run writes its pool once and repeats
whole cycles, so the mix of calls is the same in every run whatever the
machine speed, and counts taken by the traced run repeat exactly for a seed.
Instance shapes are fixed per slot of the cycle; the seed only decides their
contents, which keeps the cost of a cycle nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("rank-dense", "certify-find", "sparse-scan")

# Seconds one cycle of the pool takes on the reference machine (a shared
# 2-core x86-64 sandbox, Python 3.11).  A run makes --seconds / this many
# whole cycles, so the parent and a change run exactly the same calls.
NOMINAL_CYCLE_S = {"rank-dense": 6.0, "certify-find": 6.0, "sparse-scan": 6.0}


@dataclass
class Instance:
    """A hypergraph as the benchmark knows it, independent of hyperinc."""

    vertices: list[str]  # the program's canonical order: numeric labels by value
    edges: list[tuple[str, frozenset[str]]]  # (name, members) in file order
    planted: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        for name, members in self.edges:
            lines.append(f"{name}: " + " ".join(sorted(members, key=int)))
        return "\n".join(lines) + "\n"

    def stars(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for name, members in self.edges:
            for v in members:
                out[v].add(name)
        return {v: frozenset(s) for v, s in out.items()}


@dataclass
class Op:
    """One CLI call of the pool: its argv, the exit code a correct program
    returns, and what the checker needs to judge the report."""

    argv: list[str]
    expected_exit: int
    kind: str  # the key of its check in checker.CHECKS
    instance: Instance
    truth: dict = field(default_factory=dict)


def _labels(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def _make_instance(vertices, edge_sets) -> Instance:
    edges = [(f"e{i + 1}", frozenset(e)) for i, e in enumerate(edge_sets)]
    return Instance(sorted(vertices, key=int), edges)


# -- rank-dense -------------------------------------------------------------------

# (base vertices, planted duplicate vertices, edges) per slot of a cycle:
# 46-62 vertices, 30-44 edges, 0-20 duplicates.  The middle shape appears
# twice, so the median call and the tail (the third-slowest of 8 calls at 5
# cycles) fall among calls of one shape, not in the gap between two shapes.
DENSE_SLOTS = ((40, 10, 30), (46, 0, 36), (46, 0, 36), (42, 20, 44))


def dense_instance(rng: random.Random, n_base: int, n_clones: int, n_edges: int) -> Instance:
    """Edges of about half the base vertices; each clone copies the star of
    a random base vertex, so clone and base form a unit."""
    base = _labels(n_base)
    clone_of = {str(n_base + 1 + j): rng.choice(base) for j in range(n_clones)}
    seen: set[frozenset[str]] = set()
    edge_sets = []
    while len(edge_sets) < n_edges:
        e = frozenset(v for v in base if rng.random() < 0.5)
        if len(e) < 2 or e in seen:
            continue
        seen.add(e)
        edge_sets.append(e | {c for c, b in clone_of.items() if b in e})
    return _make_instance(base + list(clone_of), edge_sets)


def rank_dense_pool(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for slot, shape in enumerate(((6, 2, 5),) if tiny else DENSE_SLOTS):
        inst = dense_instance(rng, *shape)
        path = f"dense{slot}.txt"
        ops.append(Op(["rank", path, "--json"], 0, "rank", inst))
        ops.append(Op(["contract", path, "--json"], 0, "contract", inst))
    return ops


# -- certify-find ------------------------------------------------------------------

# (free vertices, edges) of the pair-kind instances, and vertices of the
# three-set instance.  Ground sets are 11 vertices and 10 edges (three-set:
# 8); a ground set of 12 triples a finder call and would leave too few calls
# per run.  Both pair instances have one shape, so the tail (the third-slowest
# of 14 calls at 5 cycles) is an equal_edge_partition search on either.
PAIR_SLOTS = ((2, 10), (2, 10))
THREE_SET_VERTICES = 8

PAIR_KINDS = (
    "equal_edge_partition",
    "ratio_edge_partition",
    "unit_pair",
    "equal_vertex_partition",
    "ratio_vertex_partition",
)


def pair_kind_instance(rng: random.Random, n_free: int, n_edges: int) -> Instance:
    """A hypergraph with one planted certificate of every pair kind.

    Vertices 1-4 split as U = {1,2}, V = {3,4} (equal partition); 5,6,7 form
    the ratio-2 block U2 = {5,6}, V2 = {7}; 8 and 9 are twins (a unit).  Every
    edge is a disjoint union of "atoms" that respect all of these, so the
    vertex-side plants hold on every edge.  The edge-side plants are fixed
    edges: E = {A+B, C+D} against F = {A+C, B+D} is an equal partition of
    vertices, and E = {P+Q, P+R, Q+R} against F = {P+Q+R} has ratio 2.
    """
    free = [str(10 + i) for i in range(n_free)]
    a1, a2 = frozenset({"1", "3"}), frozenset({"2", "4"})
    twins, p = frozenset({"8", "9"}), frozenset({"5", "6", "7"})
    z = frozenset({free[0]})
    fixed = [a1 | a2, twins | z, a1 | twins, a2 | z, p | z, p | a1, z | a1, p | z | a1]
    atoms = [a1, a2, frozenset({"1", "4"}), frozenset({"2", "3"}), twins, p]
    atoms += [frozenset({v}) for v in free]
    seen = set(fixed)
    edge_sets = list(fixed)
    # cover every free vertex, then fill with random disjoint atom unions
    pending = [frozenset({v}) for v in free[1:]]
    while len(edge_sets) < n_edges:
        chosen = [pending.pop()] if pending else []
        target = rng.randint(2, 3)
        for atom in rng.sample(atoms, len(atoms)):
            if len(chosen) == target:
                break
            if all(atom.isdisjoint(c) for c in chosen):
                chosen.append(atom)
        e = frozenset().union(*chosen)
        if len(e) >= 2 and e not in seen:
            seen.add(e)
            edge_sets.append(e)
    inst = _make_instance([str(v) for v in range(1, 10)] + free, edge_sets)
    name = {e: f"e{i + 1}" for i, e in enumerate(edge_sets)}
    inst.planted = {
        "equal_edge_partition": [(frozenset({"1", "2"}), frozenset({"3", "4"}), Fraction(1))],
        "ratio_edge_partition": [(frozenset({"5", "6"}), frozenset({"7"}), Fraction(2))],
        "unit_pair": [(frozenset({"8"}), frozenset({"9"}), Fraction(1))],
        "equal_vertex_partition": [
            (frozenset({name[a1 | a2], name[twins | z]}),
             frozenset({name[a1 | twins], name[a2 | z]}), Fraction(1))
        ],
        "ratio_vertex_partition": [
            (frozenset({name[p | z], name[p | a1], name[z | a1]}),
             frozenset({name[p | z | a1]}), Fraction(2))
        ],
    }
    return inst


# (|U|, |V|, |W|) counts on {1,2} = U, {3} = V, {4} = W with |U|-|V| = |W|
THREE_SET_PATTERNS = (
    frozenset(),
    frozenset({"1", "3"}),
    frozenset({"2", "3"}),
    frozenset({"1", "4"}),
    frozenset({"2", "4"}),
    frozenset({"1", "2", "3", "4"}),
)


def three_set_instance(rng: random.Random, n_vertices: int) -> Instance:
    """Planted three-set relation chi(W) - (chi(U) - chi(V)) with U = {1,2},
    V = {3}, W = {4}, r = 1; no two vertices share a star, so contraction is
    trivial and ``contract`` runs the isomorphism search."""
    free = [str(v) for v in range(5, n_vertices + 1)]
    while True:
        seen: set[frozenset[str]] = set()
        edge_sets = []
        for _ in range(200):
            if len(edge_sets) == n_vertices:
                break
            pattern = rng.choice(THREE_SET_PATTERNS)
            e = pattern | {v for v in free if rng.random() < 0.4}
            if len(e) >= 2 and e not in seen:
                seen.add(e)
                edge_sets.append(e)
        inst = _make_instance(_labels(n_vertices), edge_sets)
        stars = list(inst.stars().values())
        if all(stars) and len(set(stars)) == len(stars):
            break
    inst.planted = {
        "three_set_relation": [
            (frozenset({"1", "2"}), frozenset({"3"}), frozenset({"4"}), Fraction(1))
        ]
    }
    return inst


def _find_ops(path: str, inst: Instance, kinds) -> list[Op]:
    ops = [Op(["find", path, "--kind", kind, "--json"], 0, "find", inst, {"kind": kind}) for kind in kinds]
    return ops + [Op(["contract", path, "--json"], 0, "contract", inst)]


def certify_find_pool(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        return _find_ops("three.txt", three_set_instance(rng, 5), PAIR_KINDS + ("three_set_relation",))
    ops = []
    for slot, (n_free, n_edges) in enumerate(PAIR_SLOTS):
        ops += _find_ops(f"pairs{slot}.txt", pair_kind_instance(rng, n_free, n_edges), PAIR_KINDS)
    inst = three_set_instance(rng, THREE_SET_VERTICES)
    return ops + _find_ops("three.txt", inst, ("three_set_relation",))


# -- sparse-scan ---------------------------------------------------------------------

# (vertices, edges) per sparse slot; each op of a slot gets its own instance.
# One shape three times, so the median call is among the three spectra calls
# and the tail among the six sparse verify calls.
SPARSE_SLOTS = ((200, 900),) * 3
SPARSE_UNIT_BASES = 6  # planted units of size 2-3
SPARSE_PARTITION_SIZE = 6  # |U| = |V| of the planted equal partition

# (r, a, b): cycle C(a*r, b*r) with gcd(a, b) = 1, so gcd(n, k) = r.  The
# cost grows like r^2 * phi(r), and phi jumps at primes, so r is fixed per
# slot and the seed draws the power.
CYCLE_SLOTS = ((12, 3, 2), (30, 2, 1), (60, 2, 1))


def sparse_instance(rng: random.Random, n_vertices: int, n_edges: int) -> Instance:
    """Edges of 2-8 random vertices, a planted equal partition (U, V) that
    every edge meets equally often, and clones that share a vertex's star.

    Also plants an invalid copy U' of U (one member swapped for an outside
    vertex), chosen so that some edge meets U' and V unequally.
    """
    labels = _labels(n_vertices)
    k = SPARSE_PARTITION_SIZE
    u, v = labels[:k], labels[k:2 * k]
    bases = labels[2 * k:2 * k + SPARSE_UNIT_BASES]
    n_clones = SPARSE_UNIT_BASES + SPARSE_UNIT_BASES // 2
    clones = labels[n_vertices - n_clones:]
    clone_of = {c: bases[i % len(bases)] for i, c in enumerate(clones)}
    free = labels[2 * k:n_vertices - n_clones]
    seen: set[frozenset[str]] = set()
    edge_sets = []
    # cover every free vertex once, then draw edges at random
    pending = list(free)
    rng.shuffle(pending)
    while len(edge_sets) < n_edges:
        size = rng.randint(2, 8)
        balanced = rng.choices((0, 1, 2), weights=(14, 5, 1))[0]
        balanced = min(balanced, size // 2)
        members = set(rng.sample(u, balanced)) | set(rng.sample(v, balanced))
        if pending:
            members.add(pending.pop())
        while len(members) < size:
            members.add(rng.choice(free))
        e = frozenset(members | {c for c, b in clone_of.items() if b in members})
        if e in seen:
            continue
        seen.add(e)
        edge_sets.append(e)
    inst = _make_instance(labels, edge_sets)
    stars = inst.stars()
    outside = [w for w in free if w not in bases]
    while True:
        drop, add = rng.choice(u), rng.choice(outside)
        bad_u = frozenset(u) - {drop} | {add}
        if any(len(e & bad_u) != len(e & frozenset(v)) for e in edge_sets) and stars[add]:
            break
    inst.planted = {"U": frozenset(u), "V": frozenset(v), "bad_U": bad_u}
    return inst


def cycle_instance(n: int, k: int) -> Instance:
    vertices = [str(i) for i in range(n)]
    edge_sets = [frozenset(str((i + j) % n) for j in range(k)) for i in range(n)]
    return Instance(vertices, [(f"e{i}", e) for i, e in enumerate(edge_sets)])


def _equal_partition_json(u, v) -> dict:
    return {
        "kind": "equal_edge_partition",
        "sets": {"U": sorted(u, key=int), "V": sorted(v, key=int)},
    }


def sparse_scan_pool(rng: random.Random, tiny: bool):
    """Returns the ops and the extra files (certificates) they read."""
    ops, files = [], {}
    for slot, (n_vertices, n_edges) in enumerate(((40, 60),) if tiny else SPARSE_SLOTS):
        for role in ("verify-valid", "verify-invalid", "units", "spectra"):
            inst = sparse_instance(rng, n_vertices, n_edges)
            path = f"sparse{slot}-{role}.txt"
            if role.startswith("verify"):
                valid = role == "verify-valid"
                u = inst.planted["U"] if valid else inst.planted["bad_U"]
                cert = f"sparse{slot}-{role}.json"
                files[cert] = json.dumps(_equal_partition_json(u, inst.planted["V"]))
                truth = {"U": u, "V": inst.planted["V"], "valid": valid}
                ops.append(Op(["verify", path, "--certificate", cert, "--json"],
                              0 if valid else 1, "verify", inst, truth))
            elif role == "units":
                ops.append(Op(["units", path, "--json"], 0, "units", inst))
            else:
                ops.append(Op(["spectra", path, "--weighting", "banerjee", "--json"],
                              0, "spectra", inst))
    for slot, (r, a, b) in enumerate(((3, 2, 1),) if tiny else CYCLE_SLOTS):
        for valid in (True, False):
            n, k = a * r, b * r
            power = rng.randint(1, r - 1) if valid else r
            inst = cycle_instance(n, k)
            tag = "valid" if valid else "invalid"
            path, cert = f"cycle{slot}-{tag}.txt", f"cycle{slot}-{tag}.json"
            files[cert] = json.dumps({"kind": "root_of_unity_cycle", "order": r, "power": power})
            # r divides gcd(n, k), so the identity holds exactly when r does not divide power
            truth = {"order": r, "power": power, "valid": math.gcd(n, k) % r == 0 and power % r != 0}
            ops.append(Op(["verify", path, "--certificate", cert, "--json"],
                          0 if truth["valid"] else 1, "verify-cycle", inst, truth))
    return ops, files


def build_pool(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Generate the workload's pool from its seed and write its input files.

    ``tiny`` gives a pool with one call of each op kind on instances of a few
    vertices: the warm-up of the set-up measurement, and the self-test's size.
    """
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    if workload == "rank-dense":
        ops = rank_dense_pool(rng, tiny)
    elif workload == "certify-find":
        ops = certify_find_pool(rng, tiny)
    elif workload == "sparse-scan":
        ops, files = sparse_scan_pool(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        files.setdefault(op.argv[1], op.instance.text())
    for name, content in files.items():
        (workdir / name).write_text(content, encoding="utf-8")
    return ops
