"""``verify_certificates`` checked against the per-certificate check it replaced.

``verify_certificate_reference`` is the earlier body of ``verify_certificate``:
each certificate checked, its sets resolved, its induced vector multiplied
through the incidence matrix by ``matvec`` and its counting condition
replayed, one certificate at a time.  Its check of what a certificate may
state is written out here, apart from ``kernels._resolved_sets``, by the same
rule: exact numbers, the kind's side, sets, coefficients and ratio, and no
empty set that the kind forbids.  ``verify_certificates``
multiplies all the exact rational certificates of one side in one packed
pass.  On every finder kind over the golden corpus and 120 seeded instances,
on certificates made invalid on purpose, on general combinations with random
coefficients and on root-of-unity certificates, the two must give equal
verdicts, ``combinatorial`` flags and residuals (the same keys in the same
order, equal values of the same type), and the same exception, type and
message, where the loop raises.
"""

import random
from fractions import Fraction

import pytest

from hyperinc import kernels, linalg, uniform_cycle
from hyperinc.errors import InstanceTooLarge
from hyperinc.formats import load_hypergraph
from hyperinc.hypergraph import bit_indices
from hyperinc.kernels import (
    ALL_KINDS,
    GENERAL_COMBINATION,
    RATIO_EDGE_PARTITION,
    RATIO_VERTEX_PARTITION,
    ROOT_OF_UNITY_CYCLE,
    SET_KINDS,
    THREE_SET_RELATION,
    CertificateCheck,
    KernelCertificate,
    find_certificates_exhaustive,
    root_of_unity_certificate,
    verify_certificate,
    verify_certificates,
)
from hyperinc.linalg import edge_vertex_incidence, matvec, vertex_edge_incidence

from conftest import random_instance
from test_golden import GOLDEN, INSTANCES

ENUMERABLE_KINDS = sorted(ALL_KINDS - {GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})


def verify_certificate_reference(h, c) -> CertificateCheck:
    """Check a certificate against a hypergraph, both ways.

    The certificate's sets are resolved against ``h`` once.  The algebraic
    side multiplies the induced vector through the certified incidence
    matrix, built from ``h``; the combinatorial side replays the counting
    condition on the resolved sets.  For the if-and-only-if kinds the two
    sides must agree exactly (a mismatch raises).  For root-of-unity
    certificates the counting premise is only sufficient, so it is required to
    imply the algebraic side but not conversely.  A certificate's
    coefficients and ratio must be ints or Fractions; its side, set names
    and coefficients at its ratio must be those of its kind in
    ``SET_KINDS``, with a ratio exactly when a coefficient reads it (the
    other kinds certify B_H, with one coefficient a set and no ratio), and a
    unit pair's sets single vertices; its sets must be non-empty, except U
    and V of a three-set relation, and not all empty in a general
    combination.
    """
    if c.kind not in ALL_KINDS:
        raise kernels.InvalidParameters(f"unknown certificate kind {c.kind!r}")
    for q in c.coefficients + (() if c.ratio is None else (c.ratio,)):
        if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
            raise kernels.InvalidParameters(f"the coefficients and ratio of a {c.kind} must be ints or Fractions")
    side, names, pairs = SET_KINDS.get(c.kind, ("B", None, ()))
    reads_ratio = any(b for _, b in pairs)
    if c.side != side or len(c.coefficients) != len(c.sets) or (c.ratio is not None) != reads_ratio or (
        names is not None and (
            tuple(name for name, _ in c.sets) != names
            or tuple(c.coefficients) != kernels._coefficients(pairs, c.ratio)
        )
    ) or c.kind == kernels.UNIT_PAIR and any(len(members) != 1 for _, members in c.sets):
        raise kernels.InvalidParameters(f"the side, sets, coefficients or ratio are not those of a {c.kind}")
    if c.kind == ROOT_OF_UNITY_CYCLE:
        root_of_unity_certificate(h, c.order, c.power)  # its order, power and vertex labels; it has no sets
    masks = kernels._check_sets(h, c.side, c.sets)
    if c.kind == GENERAL_COMBINATION and not any(masks):
        raise kernels.EmptySubset("a general combination needs at least one non-empty part")
    for (name, _), mask in zip(c.sets if names else (), masks):
        if not mask and (c.kind != THREE_SET_RELATION or name == "W"):
            raise kernels.EmptySubset(f"set {name!r} of a {c.kind} certificate is empty")
    matrix = edge_vertex_incidence(h) if c.side == "B" else vertex_edge_incidence(h)
    residual = matvec(matrix, c.induced_vector(h))
    algebraic = all(value == 0 for value in residual.values())
    combinatorial = kernels._combinatorial_side(h, c, masks)
    if c.kind == ROOT_OF_UNITY_CYCLE:
        if combinatorial and not algebraic:
            raise ArithmeticError("window premise held but the product was non-zero")
    elif combinatorial != algebraic:
        raise ArithmeticError(
            f"counting and algebra disagree for kind {c.kind}: "
            f"combinatorial={combinatorial}, algebraic={algebraic}"
        )
    return CertificateCheck(valid=algebraic, residual=residual, combinatorial=combinatorial)


def outcome(check):
    """A list of checks, or a raised exception, as comparable data: each
    residual as (label, value, type) triples in order."""
    if isinstance(check, Exception):
        return type(check), str(check)
    return [
        (c.valid, c.combinatorial, [(k, v, type(v)) for k, v in c.residual.items()]) for c in check
    ]


def reference_outcome(h, certs):
    try:
        return outcome([verify_certificate_reference(h, c) for c in certs])
    except Exception as exc:
        return outcome(exc)


def pass_outcome(h, certs):
    try:
        return outcome(verify_certificates(h, certs))
    except Exception as exc:
        return outcome(exc)


def assert_agree(h, certs):
    """The pass and the reference agree on ``certs``, and so does
    ``verify_certificate`` on each of the first 100 alone."""
    expected = reference_outcome(h, certs)
    assert pass_outcome(h, certs) == expected
    if not isinstance(expected, tuple):
        for c, one in zip(certs[:100], expected):
            assert outcome([verify_certificate(h, c)]) == [one]
    return expected


def found(h, per_kind=None):
    """The certificates the finder reports for every enumerable kind on
    ``h``: all of them, or the first ``per_kind`` of each kind."""
    out = []
    for kind in ENUMERABLE_KINDS:
        try:
            out += find_certificates_exhaustive(h, kind)[:per_kind]
        except InstanceTooLarge:
            pass
    return out


def broken(h, rng, c):
    """``c`` made invalid, or left valid, on purpose: one element moved to
    another set (replacing a unit pair's vertex) or out of every set, leaving
    no set empty that must not be, or the ratio moved; unchecked."""
    side, names, _ = SET_KINDS[c.kind]
    n = h.n_vertices if side == "B" else h.n_edges
    masks = list(kernels._check_sets(h, side, c.sets))
    r = c.ratio
    if rng.random() < 0.3 and r is not None and c.kind in (RATIO_EDGE_PARTITION, RATIO_VERTEX_PARTITION, THREE_SET_RELATION):
        r = r + rng.choice([1, -1, Fraction(1, 2), Fraction(2, 3)])
    else:
        for _ in range(10):
            j = rng.randrange(n)
            moved = [m & ~(1 << j) for m in masks]
            target = rng.randrange(len(masks) + 1)
            if target < len(masks):
                moved[target] = 1 << j if c.kind == kernels.UNIT_PAIR else moved[target] | 1 << j
            if all(m or c.kind == THREE_SET_RELATION and name != "W" for name, m in zip(names, moved)):
                masks = moved
                break
    return kernels._mask_certificate(h, c.kind, masks, r)


def random_combination(h, rng):
    """A general combination of up to four random disjoint vertex sets with
    random rational coefficients, zero and large ones among them."""
    codes = [rng.randrange(5) for _ in range(h.n_vertices)]
    masks = [sum(1 << j for j, s in enumerate(codes) if s == i) for i in range(1, 5)]
    masks[0] |= 0 if any(masks) else 1  # not every part empty
    coefficients = tuple(
        Fraction(rng.choice([0, 1, -1, 3, -2**70, 2**64]), rng.choice([1, 2, 3, 7, 2**40]))
        for _ in masks
    )
    sets = tuple((f"U{i}", tuple(h.vertices[j] for j in bit_indices(m))) for i, m in enumerate(masks, start=1))
    return KernelCertificate(GENERAL_COMBINATION, "B", sets, coefficients)


# -- agreement ------------------------------------------------------------------


@pytest.mark.parametrize("name", INSTANCES)
def test_goldens_agree(name):
    h = load_hypergraph(str(GOLDEN / name))
    rng = random.Random(name)
    certs = found(h)
    expected = assert_agree(h, certs)
    assert all(valid for valid, _, _ in expected)
    mixed = certs[:300] + [broken(h, rng, c) for c in certs[:300]]
    if h.n_vertices:
        mixed += [random_combination(h, rng) for _ in range(10)]
    rng.shuffle(mixed)
    assert_agree(h, mixed)


def test_seeded_instances_agree():
    rng = random.Random(42042)
    invalid = 0
    for _ in range(120):
        h = random_instance(rng, max_vertices=8, max_edges=6)
        certs = found(h, per_kind=25)
        certs += [broken(h, rng, c) for c in certs] + [random_combination(h, rng) for _ in range(4)]
        rng.shuffle(certs)
        expected = assert_agree(h, certs)
        invalid += sum(not valid for valid, _, _ in expected)
    assert invalid > 500  # the broken certificates are mostly invalid


@pytest.mark.parametrize("pack", [1, 2, 7, 64])
def test_packs_of_any_size_agree(monkeypatch, pack):
    """Vectors packed ``pack`` at a time, so that non-zero fields fall on
    either side of each pack's first and last field."""
    monkeypatch.setattr(linalg, "PACKED_VECTORS", pack)
    rng = random.Random(pack)
    verdicts = []
    for name in ("units_12x9.txt", "dense_14x11.txt", "tall_8x13_isolated.txt"):
        h = load_hypergraph(str(GOLDEN / name))
        certs = found(h, per_kind=40)
        certs += [broken(h, rng, c) for c in certs] + [random_combination(h, rng) for _ in range(20)]
        rng.shuffle(certs)
        verdicts += [valid for valid, _, _ in assert_agree(h, certs)]
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize("n, k", [(12, 8), (12, 6), (9, 6), (10, 4)])
def test_root_of_unity_certificates_agree(n, k):
    h = uniform_cycle(n, k)
    rng = random.Random(n * k)
    certs = [root_of_unity_certificate(h, r, p) for r in (2, 3, 4, 6) for p in range(1, r + 1)]
    certs += found(h)[:50] + [random_combination(h, rng) for _ in range(5)]
    rng.shuffle(certs)
    expected = assert_agree(h, certs)
    assert any(valid for valid, _, _ in expected) and not all(valid for valid, _, _ in expected)


def bad_certificates(h):
    """Hand-built certificates that the check refuses, each for another
    reason."""
    u, v = h.vertices[:2]
    equal = kernels.EQUAL_EDGE_PARTITION
    one_minus_one = (Fraction(1), Fraction(-1))
    return [
        KernelCertificate(equal, "B", (("U", (u,)), ("V", (v,))), one_minus_one, ratio=Fraction(7)),
        KernelCertificate(equal, "B", (("U", ()), ("V", ())), one_minus_one),
        KernelCertificate(GENERAL_COMBINATION, "B", (("U1", ()), ("U2", ())), one_minus_one),
        KernelCertificate(GENERAL_COMBINATION, "B", (), ()),
        KernelCertificate(GENERAL_COMBINATION, "B", (("U1", (u,)),), (Fraction(1),), ratio=Fraction(1)),
        KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), ratio=Fraction(1), order=4, power=1),
        KernelCertificate(RATIO_EDGE_PARTITION, "B", (("U", (u,)), ("V", (v,))), (Fraction(1), Fraction(-1, 2)), ratio=0.5),
        KernelCertificate("no_such_kind", "B", (), ()),
        KernelCertificate(equal, "I", (("U", (u,)), ("V", (v,))), (Fraction(1), Fraction(-1))),
        KernelCertificate(equal, "B", (("U", (u,)), ("V", (u,))), (Fraction(1), Fraction(-1))),
        KernelCertificate(equal, "B", (("U", (u,)), ("V", ("nowhere",))), (Fraction(1), Fraction(-1))),
        KernelCertificate(equal, "B", (("U", (u,)), ("V", (v,))), (1.0, -1.0)),
        KernelCertificate(equal, "B", (("U", (u,)), ("V", (v,))), (True, -1)),
        KernelCertificate(GENERAL_COMBINATION, "B", (("U1", (u,)),), (0.5,)),
        KernelCertificate(GENERAL_COMBINATION, "B", (("U1", ()),), (0.5,)),
        KernelCertificate(GENERAL_COMBINATION, "B", (("U1", (u,)), ("U2", ())), (1, True)),
        KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), order=4.0, power=1),
    ]


def test_refused_certificates_raise_as_the_loop_does():
    """Each refused certificate alone, and placed after valid and invalid
    ones, raises what the loop raises."""
    h = uniform_cycle(12, 8)
    rng = random.Random(7)
    good = found(h)[:20]
    others = good + [broken(h, rng, c) for c in good]
    seen = set()
    for bad in bad_certificates(h):
        alone = assert_agree(h, [bad])
        if isinstance(alone, tuple):
            seen.add(alone[0])
        for at in (0, 5, len(others)):
            assert_agree(h, others[:at] + [bad] + others[at:])
    assert {kernels.InvalidParameters, kernels.OverlappingSets, kernels.UnknownVertex, kernels.EmptySubset} <= seen


# -- the API contract ------------------------------------------------------------


def test_no_certificates_give_no_checks(equal_partition_example):
    assert verify_certificates(equal_partition_example, []) == []


def test_each_check_owns_its_residual(k4_graph):
    h = k4_graph
    certs = found(h)
    certs += certs  # equal certificates, equal residuals, still one dict each
    checks = verify_certificates(h, certs)
    assert len(checks) >= 4 and len({id(c.residual) for c in checks}) == len(checks)
    before = [dict(c.residual) for c in checks]
    checks[0].residual["x"] = Fraction(5)
    checks[1].residual.clear()
    assert [c.residual for c in checks[2:]] == before[2:]
    assert verify_certificates(h, certs[:1])[0].residual == before[0]


def test_mixed_sides_keep_their_order():
    """Side B, side I and root-of-unity certificates, shuffled together, each
    get the check that they get alone, in the order given."""
    h = uniform_cycle(12, 8)
    rng = random.Random(12)
    certs = found(h)[:40] + [root_of_unity_certificate(h, r, 1) for r in (2, 3, 4)]
    certs += [broken(h, rng, c) for c in certs[:40]]
    rng.shuffle(certs)
    assert {c.side for c in certs} == {"B", "I"} and any(c.kind == ROOT_OF_UNITY_CYCLE for c in certs)
    checks = verify_certificates(h, certs)
    assert checks == [verify_certificate(h, c) for c in certs]
    assert checks == [verify_certificate_reference(h, c) for c in certs]


@pytest.mark.parametrize("disagreeing_first", [True, False])
def test_the_first_exception_of_the_loop_is_raised(monkeypatch, equal_partition_example, disagreeing_first):
    """A certificate whose two sides disagree before one that fails
    validation raises the disagreement; after it, the validation error."""
    h = equal_partition_example
    disagreeing = kernels.equal_partition_certificate(h, ["1", "5"], ["2", "3", "4"])
    refused = KernelCertificate("no_such_kind", "B", (), ())
    counting = kernels._combinatorial_side
    monkeypatch.setattr(
        kernels, "_combinatorial_side", lambda g, c, masks: (c != disagreeing) == counting(g, c, masks)
    )
    certs = [disagreeing, refused] if disagreeing_first else [refused, disagreeing]
    expected = reference_outcome(h, certs)
    assert expected[0] is (ArithmeticError if disagreeing_first else kernels.InvalidParameters)
    assert pass_outcome(h, certs) == expected
