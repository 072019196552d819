"""Exact-arithmetic toolkit for hypergraph incidence matrices.

Models hypergraphs and their edge-vertex / vertex-edge incidence matrices
over the rationals, computes exact ranks and null-space bases, builds and
verifies structural kernel certificates (equal and ratio partitions,
three-set relations, general combinations, unit pairs, root-of-unity cycle
vectors), relates a hypergraph to its unit contraction, and certifies the
adjacency eigenpairs that units and coarser symmetry classes force.

The public names below are imported from their modules on first use, so
``import hyperinc`` compiles none of them and a CLI command compiles only
the modules it calls.
"""

import sys

__version__ = "0.1.0"

# public name -> the module of the package that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("cyclotomic", "CyclotomicNumber cyclotomic_polynomial root_of_unity_vector zeta"),
        ("errors", "HyperincError"),
        ("generators", "random_hypergraph"),
        (
            "hypergraph",
            "Hypergraph Unit UnitPartition VertexVector are_isomorphic build_hypergraph"
            " compute_units dual induced_subhypergraph uniform_cycle unit_contraction",
        ),
        (
            "kernels",
            "EQUAL_EDGE_PARTITION EQUAL_VERTEX_PARTITION GENERAL_COMBINATION"
            " RATIO_EDGE_PARTITION RATIO_VERTEX_PARTITION ROOT_OF_UNITY_CYCLE"
            " THREE_SET_RELATION UNIT_PAIR CertificateCheck KernelCertificate"
            " NullityDecomposition SWReport SWSubspace dual_side_certificate"
            " equal_partition_certificate extension_theorem_check"
            " find_certificates_exhaustive general_combination_certificate"
            " nullity_decomposition ratio_partition_certificate"
            " root_of_unity_certificate sw_subspace three_set_certificate"
            " unit_pair_certificate verify_certificate verify_certificates",
        ),
        (
            "linalg",
            "NullspaceBasis RationalMatrix edge_vertex_incidence matvec rank_and_nullspace"
            " rank_modular_oracle span_dimension vertex_edge_incidence",
        ),
        (
            "spectra",
            "EdgeWeighting MatrixEquivalence PredictedEigenpair banerjee_weighting"
            " column_inner_product custom_weighting is_finer matrix_equivalence"
            " predict_class_eigenpairs predict_unit_eigenpairs unit_weighting"
            " weighted_adjacency",
        ),
    )
    for name in names.split()
}
__all__ = list(_EXPORTS)


def _deferred(namespace: dict, table: dict[str, str], name: str):
    """``name`` as read in the module whose globals are ``namespace``.

    A name ``table`` maps to a module of this package is imported from it
    and bound in ``namespace`` on its first read; a name already bound
    there, such as a wrapper set in its place, is kept as it is.  Each
    module that defers names answers its ``__getattr__`` with this, and
    calls ``__getattr__(name)`` where it uses one.
    """
    if name in namespace:
        return namespace[name]
    if name not in table:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    module = f"{__name__}.{table[name]}"
    __import__(module)
    return namespace.setdefault(name, getattr(sys.modules[module], name))


def __getattr__(name):
    return _deferred(globals(), _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
