"""The package's records against the frozen dataclasses they replaced.

``hyperinc`` declares its small immutable values (units, certificates,
bases, weightings, eigenpairs) on ``hypergraph.Record``: slotted classes
with no per-field code generation, so that importing the package loads no
``dataclasses``.  The twelve ``@dataclass(frozen=True)`` definitions they
replaced are kept below, verbatim, as the reference.  On records the
package builds from seeded instances, each record and its reference
(built from the same field values) must agree on equality, hashing,
``repr``, refused assignment and deletion, construction by position and by
keyword, and ``replace`` against ``dataclasses.replace``; ``copy``,
``deepcopy`` and ``pickle`` must rebuild every record.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

import pytest

import hyperinc
from conftest import random_instance, with_extra_vertices
from hyperinc import hypergraph, kernels, linalg, spectra
from hyperinc.cyclotomic import root_of_unity_vector
from hyperinc.errors import DimensionMismatch, InvalidParameters
from hyperinc.hypergraph import Hypergraph, _str_keyed, bit_indices, label_sort_key, replace
from hyperinc.kernels import ROOT_OF_UNITY_CYCLE
from hyperinc.linalg import exact_rational

# -- the reference: the dataclasses of hypergraph.py ------------------------------------
@dataclass(frozen=True)
class VertexVector:
    """Sparse exact vector keyed by vertex (or edge) labels.

    Absent labels are implicitly zero; explicit zeros are dropped on
    construction so equality is structural.  Keys are read by ``str``, and
    two keys with one string (1 and "1") raise InvalidParameters.  Entries
    may be ``Fraction`` values or cyclotomic field elements.
    """

    entries: Mapping[str, object]

    def __init__(self, entries: Mapping[str, object]):
        cleaned = {str(k): v for k, v in entries.items() if v != 0}
        if len(cleaned) < len(entries):  # zeros dropped, or keys merged by str()
            _str_keyed(entries)
        object.__setattr__(self, "entries", cleaned)

    def value(self, label: str):
        return self.entries.get(label, 0)

    def support(self) -> frozenset[str]:
        return frozenset(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        inner = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.entries.items(), key=lambda kv: label_sort_key(kv[0]))
        )
        return f"VertexVector({{{inner}}})"


@dataclass(frozen=True)
class Unit:
    """A maximal set of vertices sharing one star; that star generates it.

    ``star`` is the shared star mask (bit i set when edge i contains every
    member); ``generator`` decodes it into the set of edge indices."""

    members: tuple[str, ...]
    star: int

    @property
    def generator(self) -> frozenset[int]:
        return frozenset(bit_indices(self.star))


@dataclass(frozen=True)
class UnitPartition:
    units: tuple[Unit, ...]
    vertex_to_unit: Mapping[str, int]

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(u.members) for u in self.units)

    def __len__(self):
        return len(self.units)


# -- the reference: the dataclasses of kernels.py ---------------------------------------
@dataclass(frozen=True)
class KernelCertificate:
    """A structural kernel witness: named sets, coefficients, and kind.

    ``side`` is "B" when the induced vector lives on vertices (certifying the
    edge-vertex incidence matrix) and "I" when it lives on edges (certifying
    the transpose).  The induced vector is always the signed combination
    sum(coefficients[i] * chi(sets[i])) of pairwise disjoint sets, except for
    the root-of-unity kind, which stores the root order and power instead.
    """

    kind: str
    side: str
    sets: tuple[tuple[str, tuple[str, ...]], ...]
    coefficients: tuple[Fraction, ...]
    ratio: Optional[Fraction] = None
    order: Optional[int] = None
    power: Optional[int] = None

    def induced_vector(self, h: Hypergraph) -> VertexVector:
        if self.kind == ROOT_OF_UNITY_CYCLE:
            return root_of_unity_vector(h.n_vertices, self.order, self.power)
        return VertexVector(
            {m: coeff for (_, members), coeff in zip(self.sets, self.coefficients) for m in members}
        )

    def named_set(self, name: str) -> tuple[str, ...]:
        for set_name, members in self.sets:
            if set_name == name:
                return members
        raise KeyError(name)


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    residual: dict[str, object]
    combinatorial: bool


@dataclass(frozen=True)
class SWSubspace:
    """Vectors supported in a vertex set whose entries sum to zero."""

    members: tuple[str, ...]
    basis: tuple[VertexVector, ...]


@dataclass(frozen=True)
class SWReport:
    subspace: SWSubspace
    contained_in_kernel: bool
    maximal: bool


@dataclass(frozen=True)
class NullityDecomposition:
    rank: int
    nullity: int
    contraction_rank: int
    contraction_nullity: int
    n_units: int
    units_deficiency: int
    # the ``unit_contraction`` triple the identities were checked on
    contraction: tuple[Hypergraph, dict, dict] = field(repr=False, compare=False)


# -- the reference: the dataclasses of linalg.py ----------------------------------------
@dataclass(frozen=True)
class NullspaceBasis:
    """Exact kernel basis together with the RREF pivot columns it was read
    from; their count is the rank it certifies."""

    pivots: tuple[int, ...]
    cols: int
    vectors: tuple[VertexVector, ...]

    def __post_init__(self):
        if self.rank + len(self.vectors) != self.cols:
            raise DimensionMismatch("rank + nullity must equal the column count")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nullity(self) -> int:
        return len(self.vectors)


# -- the reference: the dataclasses of spectra.py ---------------------------------------
@dataclass(frozen=True)
class EdgeWeighting:
    """Positive rational weight per hyperedge, in edge order; each weight is
    read by ``exact_rational`` and stored as a Fraction."""

    name: str
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            weights = tuple(
                w if type(w) is Fraction else Fraction(exact_rational(w)) for w in self.weights
            )
        except InvalidParameters as exc:
            raise InvalidParameters(f"weights must be finite rationals: {exc}") from None
        if any(w.numerator <= 0 for w in weights):  # a Fraction's denominator is positive
            raise InvalidParameters("edge weights must be positive")
        object.__setattr__(self, "weights", weights)

    def weight(self, edge_index: int) -> Fraction:
        return self.weights[edge_index]


@dataclass(frozen=True)
class PredictedEigenpair:
    """An eigenvalue with its certified eigenvectors and multiplicity bound."""

    eigenvalue: Fraction
    members: tuple[str, ...]
    eigenvectors: tuple[VertexVector, ...]
    multiplicity_lower_bound: int
    verified: bool


@dataclass(frozen=True)
class MatrixEquivalence:
    """Partition of the labels of a square matrix by row/column symmetry."""

    classes: tuple[tuple[str, ...], ...]

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c) for c in self.classes)


# -- the records the package builds -------------------------------------------------

REFERENCE = {
    cls.__name__: cls
    for cls in (
        VertexVector, Unit, UnitPartition, KernelCertificate, CertificateCheck, SWSubspace,
        SWReport, NullityDecomposition, NullspaceBasis, EdgeWeighting, PredictedEigenpair,
        MatrixEquivalence,
    )
}
RECORDS = {name: getattr(hyperinc, name) for name in REFERENCE}
SEEDS = range(48001, 48007)


def values(record) -> tuple:
    """The field values of ``record``, in field order."""
    return tuple(getattr(record, name) for name in record.__slots__)


def reference(record):
    """The reference dataclass of ``record``, built from its field values."""
    return REFERENCE[type(record).__name__](*values(record))


def outcome(build):
    """``build()``, or the type of the exception it raises."""
    try:
        return build()
    except Exception as exc:  # the type is what the two sides must share
        return type(exc)


def same(record, ref) -> bool:
    """Whether an outcome of the package and one of the reference agree: the
    same exception type, or the same class name, repr and field values."""
    if isinstance(record, type) or isinstance(ref, type):
        return record is ref
    return (
        type(record).__name__ == type(ref).__name__
        and repr(record) == repr(ref)
        and values(record) == tuple(getattr(ref, f.name) for f in dataclasses.fields(ref))
    )


def records(seed: int) -> list:
    """Records of every class, built by the package on one seeded instance
    with planted units."""
    rng = random.Random(seed)
    h = with_extra_vertices(rng, random_instance(rng, 6, 6), clones=2, isolated=0)
    units = hypergraph.compute_units(h)
    certs = [
        *kernels.find_certificates_exhaustive(h, kernels.UNIT_PAIR)[:2],
        *kernels.find_certificates_exhaustive(h, kernels.EQUAL_EDGE_PARTITION)[:2],
        *kernels.find_certificates_exhaustive(h, kernels.RATIO_EDGE_PARTITION)[:2],
        kernels.root_of_unity_certificate(hypergraph.uniform_cycle(8, 4), 4, 1 + seed % 3),
    ]
    weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(h.n_edges)]
    weightings = [spectra.unit_weighting(h), spectra.custom_weighting(h, weights)]
    bases = [linalg.rank_and_nullspace(m) for m in (linalg.edge_vertex_incidence(h), linalg.vertex_edge_incidence(h))]
    pairs = [p for w in weightings for p in spectra.predict_unit_eigenpairs(h, w)]
    unit_sets = [u.members for u in units.units if len(u.members) > 1][:1]
    reports = [kernels.sw_subspace(h, w) for w in unit_sets + [tuple(rng.sample(h.vertices, 2))]]
    return [
        units, *units.units, *certs, *bases, *(v for b in bases for v in b.vectors), *weightings, *pairs,
        *kernels.verify_certificates(h, [c for c in certs if c.side == "B" and c.order is None]),
        *reports,
        *(r.subspace for r in reports),
        kernels.nullity_decomposition(h),
        *(spectra.matrix_equivalence(spectra.weighted_adjacency(h, w)) for w in weightings),
    ]


SAMPLES = [x for seed in SEEDS for x in records(seed)]
BY_CLASS = {name: [x for x in SAMPLES if type(x).__name__ == name] for name in REFERENCE}


def test_every_record_has_its_reference_fields_in_order():
    for name, cls in RECORDS.items():
        assert issubclass(cls, hypergraph.Record)
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(REFERENCE[name]))
        assert len(BY_CLASS[name]) >= 2, name
    assert not any(dataclasses.is_dataclass(x) for x in SAMPLES)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_repr_and_hash_match_the_reference(name):
    for x in BY_CLASS[name]:
        ref = reference(x)
        assert repr(x) == repr(ref)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(ref))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_equality_matches_the_reference(name):
    samples = BY_CLASS[name] + [copy.copy(x) for x in BY_CLASS[name][:3]]
    for a, b in itertools.product(samples, repeat=2):
        assert (a == b) == (reference(a) == reference(b))
        assert (a != b) == (reference(a) != reference(b))
    for x in samples[:2]:
        assert x.__eq__(values(x)) is NotImplemented
        assert reference(x).__eq__(values(x)) is NotImplemented
        assert x != reference(x)


def test_the_contraction_is_left_out_of_equality_hash_and_repr():
    a, b = BY_CLASS["NullityDecomposition"][:2]
    c = replace(a, contraction=b.contraction)
    assert c == a and hash(c) == hash(a) and repr(c) == repr(a)
    assert c.contraction is b.contraction
    assert "contraction=" not in repr(a)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_assignment_and_deletion_are_refused(name):
    x = BY_CLASS[name][0]
    before = values(x)
    for obj in (x, reference(x)):
        for attr in (*x.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
    assert values(x) == before


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_construction_by_position_and_keyword_matches_the_reference(name):
    cls, ref_cls = RECORDS[name], REFERENCE[name]
    fields = dataclasses.fields(ref_cls)
    required = sum(f.default is dataclasses.MISSING for f in fields)
    for x in BY_CLASS[name][:4]:
        args = values(x)
        kwargs = dict(zip(cls.__slots__, args))
        for build in (
            lambda c: c(*args),
            lambda c: c(**kwargs),
            lambda c: c(*args[:1], **dict(list(kwargs.items())[1:])),
            lambda c: c(*args[:required]),  # the defaults
            lambda c: c(*args[: required - 1]),  # a missing field
            lambda c: c(**dict(list(kwargs.items())[1:])),
            lambda c: c(*args, other=1),  # an unexpected field
            lambda c: c(*args, *args[:1]),  # one too many
            lambda c: c(*args, **{cls.__slots__[0]: args[0]}),  # a repeated field
        ):
            assert same(outcome(lambda: build(cls)), outcome(lambda: build(ref_cls)))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_replace_matches_dataclasses_replace(name):
    samples = BY_CLASS[name]
    for x, y in zip(samples, samples[1:] + samples[:1]):
        ref = reference(x)
        for attr, value in zip(x.__slots__, values(y)):
            assert same(outcome(lambda: replace(x, **{attr: value})),
                        outcome(lambda: dataclasses.replace(ref, **{attr: value})))
        assert same(replace(x), dataclasses.replace(ref))
        assert outcome(lambda: replace(x, other=1)) is TypeError
        assert outcome(lambda: dataclasses.replace(ref, other=1)) is TypeError


def test_replace_runs_the_checks_again():
    basis = BY_CLASS["NullspaceBasis"][0]
    for changes in ({"cols": basis.cols + 1}, {"pivots": basis.pivots + (0,)}, {"vectors": ()}):
        for build in (replace, dataclasses.replace):
            with pytest.raises(DimensionMismatch):
                build(basis if build is replace else reference(basis), **changes)
    w = BY_CLASS["EdgeWeighting"][0]
    n = len(w.weights)
    for bad in ((0,) * n, (-1,) * n, ("x",) * n, (float("inf"),) * n):
        for build in (replace, dataclasses.replace):
            with pytest.raises(InvalidParameters):
                build(w if build is replace else reference(w), weights=bad)
    given = (1, "1/2", 2.5, Fraction(3, 4))[:n] + (7,) * max(0, n - 4)
    for done in (replace(w, weights=given), dataclasses.replace(reference(w), weights=given)):
        assert all(type(x) is Fraction for x in done.weights)
        assert done.weights == tuple(Fraction(exact_rational(x)) for x in given)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_copy_deepcopy_and_pickle_rebuild_every_record(name):
    for x in BY_CLASS[name][:3]:
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x)
            assert twin == x and repr(twin) == repr(x)
            assert values(twin) == values(x)  # the hidden contraction too
