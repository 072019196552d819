#!/usr/bin/env python3
"""Units force eigenvalues on weighted adjacency matrices.

Give every edge a positive rational weight w(e) and form the adjacency
matrix with entries a_uv = sum of w(e) over edges containing both u and v
(zero diagonal).  Two vertices with the same star have interchangeable rows,
so their difference vector is an eigenvector; the eigenvalue is minus the
weighted inner product of their incidence columns.  A unit with m vertices
certifies multiplicity at least m - 1, all verified by exact arithmetic.
"""

from fractions import Fraction

from hyperinc import (
    banerjee_weighting,
    build_hypergraph,
    column_inner_product,
    compute_units,
    custom_weighting,
    is_finer,
    matrix_equivalence,
    predict_class_eigenpairs,
    predict_unit_eigenpairs,
    unit_weighting,
    weighted_adjacency,
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
print("  Constant weights w(e) = 1")
print("=" * 64)
for p in predict_unit_eigenpairs(h, unit_weighting(h)):
    print(f"  unit {{{','.join(p.members)}}}: eigenvalue {p.eigenvalue}, "
          f"multiplicity >= {p.multiplicity_lower_bound}, verified = {p.verified}")
total = sum(p.multiplicity_lower_bound for p in predict_unit_eigenpairs(h, unit_weighting(h)))
print(f"  so -2 has multiplicity at least {total}")

print("\n" + "=" * 64)
print("  Size-normalized weights w(e) = 1/(|e| - 1)")
print("=" * 64)
w2 = banerjee_weighting(h)
for p in predict_unit_eigenpairs(h, w2):
    u, v = p.members[0], p.members[1]
    inner = column_inner_product(h, u, v, w2)
    print(f"  unit {{{','.join(p.members)}}}: eigenvalue {p.eigenvalue} "
          f"= -(s_{u}, s_{v})_w = -({inner})")

print("\n" + "=" * 64)
print("  Coarser symmetry classes work too")
print("=" * 64)
fan = build_hypergraph(
    ["1", "2", "3", "4"],
    [["1", "2", "3"], ["1", "3", "4"], ["1", "4", "2"]],
)
a = weighted_adjacency(fan, unit_weighting(fan))
classes = matrix_equivalence(a)
print("adjacency of the 3-edge fan over {1,2,3,4}:")
for label, row in zip(a.row_labels, a.entries):
    print(f"  {label}: " + " ".join(str(x) for x in row))
print(f"row/column symmetry classes: "
      + ", ".join("{" + ",".join(c) + "}" for c in classes.classes))
print(f"units refine those classes: {is_finer(compute_units(fan), classes)}")
for p in predict_class_eigenpairs(fan, unit_weighting(fan), classes):
    print(f"  class {{{','.join(p.members)}}}: eigenvalue {p.eigenvalue}, "
          f"multiplicity >= {p.multiplicity_lower_bound}")
w_equal = custom_weighting(fan, [Fraction(1, 2)] * 3)
for p in predict_class_eigenpairs(fan, w_equal, classes):
    print(f"  same class with w = 1/2 everywhere: eigenvalue {p.eigenvalue}")
