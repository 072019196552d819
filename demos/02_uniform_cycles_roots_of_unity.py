#!/usr/bin/env python3
"""Uniform cycles and root-of-unity kernel vectors.

A k-uniform cycle on n vertices has edges that are all length-k cyclic
windows of Z_n.  Whenever r = gcd(k, n) >= 2, plugging an r-th root of unity
zeta into i -> zeta**i produces a kernel vector of the incidence matrix.  The
check runs in the cyclotomic field Q(zeta_r), so "equals zero" is a theorem
about polynomials, not a floating-point accident.
"""

from math import gcd

from hyperinc import (
    cyclotomic_polynomial,
    edge_vertex_incidence,
    matvec,
    rank_and_nullspace,
    root_of_unity_vector,
    uniform_cycle,
)

print("=" * 64)
print("  The 4-uniform cycle on 8 vertices")
print("=" * 64)
h = uniform_cycle(8, 4)
for name, e in zip(h.edge_labels, h.edges):
    print(f"  {name}: {{{', '.join(sorted(e, key=int))}}}")

b = edge_vertex_incidence(h)
vec = root_of_unity_vector(8, 4, 1)
print("\nx(i) = zeta_4**i  (zeta_4 is the 4th root of unity, reduced mod x^2 + 1):")
for i in range(8):
    print(f"  x({i}) = {vec.value(str(i))!r}")
product = matvec(b, vec)
assert all(value == 0 for value in product.values())
print("B * x = 0 exactly, in Q(zeta_4)")

print("\n" + "=" * 64)
print("  Rank across the cycle family (r = gcd(k, n))")
print("=" * 64)
print(f"  {'n':>3} {'k':>3} {'r':>3} {'rank':>5} {'n-r+1':>6}")
for n in range(4, 13):
    for k in (2, 3, 4):
        if k > n:
            continue
        r = gcd(k, n)
        rank = rank_and_nullspace(edge_vertex_incidence(uniform_cycle(n, k))).rank
        bound = n - r + 1
        marker = "  <- bound tight" if rank == bound and r > 1 else ""
        assert rank <= bound
        print(f"  {n:>3} {k:>3} {r:>3} {rank:>5} {bound:>6}{marker}")

print("\nCyclotomic polynomials used for the reductions:")
for r in (2, 3, 4, 6):
    coeffs = cyclotomic_polynomial(r)
    terms = " + ".join(
        f"{c}*x^{i}" if i else str(c) for i, c in enumerate(coeffs) if c
    )
    print(f"  Phi_{r}(x) = {terms}")
