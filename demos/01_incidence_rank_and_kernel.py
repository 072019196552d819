#!/usr/bin/env python3
"""Incidence matrices, exact rank, and null-space bases.

Builds an 11-vertex hypergraph whose edge-vertex incidence matrix has rank 5
and a 6-dimensional kernel, prints the matrix, and re-multiplies every kernel
basis vector through it to show the zeros are exact (no tolerances anywhere).
"""

from hyperinc import (
    build_hypergraph,
    edge_vertex_incidence,
    matvec,
    rank_and_nullspace,
    rank_modular_oracle,
    vertex_edge_incidence,
)

h = build_hypergraph(
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

print("=" * 64)
print("  Edge-vertex incidence matrix B_H")
print("=" * 64)
b = edge_vertex_incidence(h)
print("      " + "  ".join(f"{v:>2}" for v in b.col_labels))
for name, row in zip(b.row_labels, b.entries):
    print(f"  {name}  " + "  ".join(f"{int(x):>2}" for x in row))

ns = rank_and_nullspace(b)
print(f"\nrank(B_H) = {ns.rank}, nullity = {ns.nullity}  (rank + nullity = {b.cols} columns)")
print(f"independent cross-check, exact rank over Q from ranks over GF(p): {rank_modular_oracle(b)}")

print("\nKernel basis (each vector re-multiplied through B_H):")
for vec in ns.vectors:
    product = matvec(b, vec)
    assert all(value == 0 for value in product.values())
    entries = ", ".join(f"x({k}) = {v}" for k, v in sorted(vec.entries.items(), key=lambda kv: int(kv[0])))
    print(f"  B_H * [{entries}] = 0   exactly")

i_matrix = vertex_edge_incidence(h)
ns_i = rank_and_nullspace(i_matrix)
print(f"\nThe transpose I_H has the same rank: {ns_i.rank} (nullity {ns_i.nullity} over {i_matrix.cols} edges)")
