"""Exact-arithmetic toolkit for hypergraph incidence matrices.

Models hypergraphs and their edge-vertex / vertex-edge incidence matrices
over the rationals, computes exact ranks and null-space bases, builds and
verifies structural kernel certificates (equal and ratio partitions,
three-set relations, general combinations, unit pairs, root-of-unity cycle
vectors), relates a hypergraph to its unit contraction, and certifies the
adjacency eigenpairs that units and coarser symmetry classes force.
"""

__version__ = "0.1.0"

from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    root_of_unity_vector,
    zeta,
)
from .errors import HyperincError
from .generators import random_hypergraph
from .hypergraph import (
    Hypergraph,
    Unit,
    UnitPartition,
    VertexVector,
    are_isomorphic,
    build_hypergraph,
    compute_units,
    dual,
    induced_subhypergraph,
    uniform_cycle,
    unit_contraction,
)
from .kernels import (
    EQUAL_EDGE_PARTITION,
    EQUAL_VERTEX_PARTITION,
    GENERAL_COMBINATION,
    RATIO_EDGE_PARTITION,
    RATIO_VERTEX_PARTITION,
    ROOT_OF_UNITY_CYCLE,
    THREE_SET_RELATION,
    UNIT_PAIR,
    CertificateCheck,
    KernelCertificate,
    NullityDecomposition,
    SWReport,
    SWSubspace,
    dual_side_certificate,
    equal_partition_certificate,
    extension_theorem_check,
    find_certificates_exhaustive,
    general_combination_certificate,
    nullity_decomposition,
    ratio_partition_certificate,
    root_of_unity_certificate,
    sw_subspace,
    three_set_certificate,
    unit_pair_certificate,
    verify_certificate,
    verify_certificates,
)
from .linalg import (
    NullspaceBasis,
    RationalMatrix,
    edge_vertex_incidence,
    matvec,
    rank_and_nullspace,
    rank_modular_oracle,
    span_dimension,
    vertex_edge_incidence,
)
from .spectra import (
    EdgeWeighting,
    MatrixEquivalence,
    PredictedEigenpair,
    banerjee_weighting,
    column_inner_product,
    custom_weighting,
    is_finer,
    matrix_equivalence,
    predict_class_eigenpairs,
    predict_unit_eigenpairs,
    unit_weighting,
    weighted_adjacency,
)
