"""The names ``hyperinc`` exports, each the object its defining module binds.

The package imports a module on the first read of one of its names, so each
way of reaching a name is checked in a fresh interpreter: ``getattr``,
``from hyperinc import name`` and ``from hyperinc import *``.
"""

import json
import subprocess
import sys

import pytest

import hyperinc
from conftest import CHILD_ENV

# defining module -> the public names the package has exported from it
EXPORTED = {
    "cyclotomic": "CyclotomicNumber cyclotomic_polynomial root_of_unity_vector zeta",
    "errors": "HyperincError",
    "generators": "random_hypergraph",
    "hypergraph": "Hypergraph Unit UnitPartition VertexVector are_isomorphic build_hypergraph"
    " compute_units dual induced_subhypergraph uniform_cycle unit_contraction",
    "kernels": "EQUAL_EDGE_PARTITION EQUAL_VERTEX_PARTITION GENERAL_COMBINATION"
    " RATIO_EDGE_PARTITION RATIO_VERTEX_PARTITION ROOT_OF_UNITY_CYCLE THREE_SET_RELATION"
    " UNIT_PAIR CertificateCheck KernelCertificate NullityDecomposition SWReport SWSubspace"
    " dual_side_certificate equal_partition_certificate extension_theorem_check"
    " find_certificates_exhaustive general_combination_certificate nullity_decomposition"
    " ratio_partition_certificate root_of_unity_certificate sw_subspace three_set_certificate"
    " unit_pair_certificate verify_certificate verify_certificates",
    "linalg": "NullspaceBasis RationalMatrix edge_vertex_incidence matvec rank_and_nullspace"
    " rank_modular_oracle span_dimension vertex_edge_incidence",
    "spectra": "EdgeWeighting MatrixEquivalence PredictedEigenpair banerjee_weighting"
    " column_inner_product custom_weighting is_finer matrix_equivalence"
    " predict_class_eigenpairs predict_unit_eigenpairs unit_weighting weighted_adjacency",
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}

# Each reads every name one way and prints the names whose object is not the
# defining module's own; ``loaded`` is the package's modules before any read.
CHILD = """
import json, sys
import hyperinc
loaded = sorted(m for m in sys.modules if m.startswith("hyperinc."))
names = json.loads(sys.argv[1])
values = {}
%s
wrong = [n for n, m in names.items() if values[n] is not getattr(sys.modules["hyperinc." + m], n)]
print(json.dumps({"loaded": loaded, "wrong": wrong}))
"""
READS = {
    "getattr": "values = {n: getattr(hyperinc, n) for n in names}",
    "from-import": "for n in names:\n    exec(f'from hyperinc import {n}', values)",
    "star-import": "exec('from hyperinc import *', values)",
}


def test_the_package_exports_63_names():
    assert len(NAMES) == 63
    assert sorted(hyperinc.__all__) == sorted(NAMES)


@pytest.mark.parametrize("read", READS)
def test_every_name_is_its_defining_modules_object(read):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD % READS[read], json.dumps(NAMES)],
        env=CHILD_ENV, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["loaded"] == []  # importing the package imports none of its modules
    assert out["wrong"] == []


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as caught:
        hyperinc.no_such_name
    assert str(caught.value) == "module 'hyperinc' has no attribute 'no_such_name'"
    assert not hasattr(hyperinc, "_no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'hyperinc'"):
        from hyperinc import no_such_name  # noqa: F401


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(hyperinc))
    assert {"__version__", "__all__"} <= set(dir(hyperinc))
