"""One rule for what a certificate may state, checked against the builders it replaced.

``set_certificate_reference``, ``general_combination_reference`` and
``certificate_from_json_reference`` are the earlier ``_set_certificate``,
``general_combination_certificate`` and ``certificate_from_json``, kept
verbatim with the earlier ``_mask_certificate``, ``unit_pair_certificate``
and ``root_of_unity_certificate`` they built with.  Each kept
its own checks: emptiness in the constructors, and the loader's comparison of
the fields a JSON states with the certificate it built.  Now every builder
states a certificate and checks it by ``kernels._resolved_sets``.

On seeded inputs, valid ones and ones broken by each part of the rule, the
builders must accept what the reference accepts and build equal
certificates, and refuse with the same ``HyperincError`` subclass, except
for these changes:

* a vertex partition keeps its kind: the equal one states no ratio, a
  ``ratio_vertex_partition`` at r = 1 stays one, and JSON of an
  ``equal_vertex_partition`` that states a ratio (reports written before the
  rule state ``"ratio": "1"``) is refused;
* JSON whose fields are malformed or not the kind's and whose sets are also
  at fault (an unknown label, a shared label, an empty set) reports the
  fields, a ParseError, first;
* a general combination with an inexact coefficient and sets at fault
  reports the coefficient first;
* a unit pair's sets are single vertices: the earlier ``_set_certificate``
  built a unit pair of larger sets, which its loader refused and no public
  constructor asks for, so ``unit_pair_certificate`` is compared here;
* JSON that states a field its kind does not have is refused with
  ParseError, where the earlier loader dropped it: an ``order`` or a
  ``power`` on any kind but the root-of-unity one, a ``ratio`` or a side
  other than B on a general combination or a root-of-unity certificate,
  ``sets`` or ``coefficients`` on a root-of-unity certificate, and ``parts``
  beside ``sets`` or ``coefficients`` or on any kind but a general
  combination;
* a root order or power out of range in JSON raises ParseError, as every
  other refused field of a file does, not InvalidParameters.
"""

import json
import random
from fractions import Fraction
from typing import Iterable, Sequence

import pytest

from hyperinc import Hypergraph, KernelCertificate, dual_side_certificate, kernels, uniform_cycle
from hyperinc.errors import (
    EmptySubset,
    HyperincError,
    InvalidParameters,
    OverlappingSets,
    ParseError,
    UnknownEdge,
    UnknownVertex,
)
from hyperinc.formats import (
    certificate_from_json,
    certificate_to_json,
    load_hypergraph,
    parse_fraction,
    parse_labels,
)
from hyperinc.hypergraph import _checked_int, bit_indices, replace
from hyperinc.kernels import (
    EQUAL_VERTEX_PARTITION,
    GENERAL_COMBINATION,
    RATIO_VERTEX_PARTITION,
    ROOT_OF_UNITY_CYCLE,
    SET_KINDS,
    THREE_SET_RELATION,
    UNIT_PAIR,
    _check_sets,
    _coefficients,
    find_certificates_exhaustive,
    general_combination_certificate,
    ratio_partition_certificate,
    unit_pair_certificate,
    verify_certificate,
)
from hyperinc.linalg import exact_rational

from conftest import random_instance
from test_golden import GOLDEN, INSTANCES
from test_verify_reference import ENUMERABLE_KINDS

SET_FAULTS = (UnknownVertex, UnknownEdge, OverlappingSets, EmptySubset)


# -- the builders this rule replaced --------------------------------------------------


def mask_certificate_reference(h: Hypergraph, kind: str, masks: Sequence[int], r=None, coefficients=None):
    if kind == GENERAL_COMBINATION:
        side, names = "B", [f"U{i}" for i in range(1, len(masks) + 1)]
    else:
        side, names, pairs = SET_KINDS[kind]
        if kind == EQUAL_VERTEX_PARTITION or kind == RATIO_VERTEX_PARTITION and r == 1:
            kind, r = EQUAL_VERTEX_PARTITION, Fraction(1)  # the ratio vertex partition at r = 1
        elif not any(b for _, b in pairs):
            r = None  # no coefficient reads r
        coefficients = _coefficients(pairs, r)
    labels = h.vertices if side == "B" else h.edge_labels
    sets = tuple(
        (name, tuple(labels[i] for i in bit_indices(mask))) for name, mask in zip(names, masks)
    )
    return KernelCertificate(kind, side, sets, coefficients, ratio=r)


def set_certificate_reference(h: Hypergraph, kind: str, members: Sequence[Iterable[str]], r=1):
    r = Fraction(exact_rational(r))
    side, names, _ = SET_KINDS[kind]
    masks = _check_sets(h, side, list(zip(names, members)))
    for name, mask in zip(names, masks):
        if not mask and (kind != THREE_SET_RELATION or name == "W"):
            raise EmptySubset(f"set {name!r} of a {kind} certificate is empty")
    return mask_certificate_reference(h, kind, masks, r)


def general_combination_reference(h: Hypergraph, parts) -> KernelCertificate:
    named = [(f"U{i + 1}", members) for i, (members, _) in enumerate(parts)]
    masks = _check_sets(h, "B", named)
    if not any(masks):
        raise EmptySubset("a general combination needs at least one non-empty part")
    coeffs = tuple(Fraction(exact_rational(c)) for _, c in parts)
    return mask_certificate_reference(h, GENERAL_COMBINATION, masks, coefficients=coeffs)


def unit_pair_reference(h: Hypergraph, u: str, v: str) -> KernelCertificate:
    u, v = str(u), str(v)
    if u == v:
        raise InvalidParameters("unit pair needs two distinct vertices")
    return set_certificate_reference(h, UNIT_PAIR, ([u], [v]))


def root_of_unity_reference(h: Hypergraph, r: int, power: int) -> KernelCertificate:
    _checked_int(power, "power", 1, _checked_int(r, "root order", 2))
    expected = {str(i) for i in range(h.n_vertices)}
    if set(h.vertices) != expected:
        raise UnknownVertex("root-of-unity certificates need vertices labelled 0..n-1")
    return KernelCertificate(ROOT_OF_UNITY_CYCLE, "B", (), (), order=r, power=power)


def certificate_from_json_reference(h: Hypergraph, data: dict) -> KernelCertificate:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("certificate JSON needs a 'kind' field")
    kind = data["kind"]
    sets = data.get("sets", {})
    if not isinstance(sets, dict):
        raise ParseError("'sets' must map set names to label arrays")

    def need(name: str) -> list[str]:
        if name not in sets:
            raise ParseError(f"certificate kind {kind!r} needs set {name!r}")
        return parse_labels(sets[name], f"set {name!r}")

    if kind == GENERAL_COMBINATION:
        parts = data.get("parts")
        pairs = []
        if parts is not None:
            if not isinstance(parts, list):
                raise ParseError("'parts' must be an array")
            for i, item in enumerate(parts):
                if isinstance(item, dict) and {"set", "coefficient"} <= item.keys():
                    members, coeff = item["set"], item["coefficient"]
                elif isinstance(item, list) and len(item) == 2:
                    members, coeff = item
                else:
                    raise ParseError(
                        f"part {i} must be [members, coefficient] or an object with "
                        "'set' and 'coefficient'"
                    )
                pairs.append((parse_labels(members, f"part {i}"), parse_fraction(coeff)))
        else:
            coefficients = data.get("coefficients")
            if not sets or not isinstance(coefficients, dict):
                raise ParseError(
                    "general combination needs 'parts' or 'sets' with 'coefficients'"
                )
            for name in sets:
                if name not in coefficients:
                    raise ParseError(f"missing coefficient for set {name!r}")
                pairs.append((need(name), parse_fraction(coefficients[name])))
        return general_combination_reference(h, pairs)
    if kind == ROOT_OF_UNITY_CYCLE:
        order, power = data.get("order"), data.get("power")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (order, power)):
            raise ParseError("root-of-unity certificate needs integer 'order' and 'power'")
        return root_of_unity_reference(h, order, power)
    if kind not in SET_KINDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    members = []
    for name in SET_KINDS[kind][1]:
        if kind == UNIT_PAIR and name in data:
            members.append(parse_labels([data[name]], f"unit pair {name!r}"))
        elif name in sets or kind != THREE_SET_RELATION or name == "W":
            members.append(need(name))
        else:
            members.append([])  # U or V of a three-set relation may be left out
    if kind == UNIT_PAIR and any(len(m) != 1 for m in members):
        raise ParseError("unit pair needs one vertex 'u' and one vertex 'v'")
    r = parse_fraction(data.get("ratio", 1))
    cert = set_certificate_reference(h, kind, members, r)
    # the side, sets, coefficients and ratio the JSON states must be the built ones
    built = {name: (set(m), c) for (name, m), c in zip(cert.sets, cert.coefficients)}
    coefficients = data.get("coefficients", {})
    if not isinstance(coefficients, dict):
        raise ParseError("'coefficients' must map set names to fractions")
    wrong = [key for key, agrees in [
        ("side", data.get("side", cert.side) == cert.side),
        ("sets", all(n in built and set(need(n)) == built[n][0] for n in sets)),
        ("coefficients", all(n in built and parse_fraction(x) == built[n][1]
                             for n, x in coefficients.items())),
        ("ratio", "ratio" not in data or r == cert.ratio),
    ] if not agrees]
    if wrong:
        raise ParseError(f"the {cert.kind} built from the JSON disagrees with its {' and '.join(wrong)}")
    return cert


# -- seeded inputs ----------------------------------------------------------------------


def outcome(build):
    """The certificate built, or the class of the ``HyperincError`` raised;
    any other exception fails the test."""
    try:
        return build()
    except HyperincError as exc:
        return type(exc)


def expected_outcome(reference, kind, stated_ratio, field_fault=False):
    """What the builders give where the reference gives ``reference``, for a
    certificate of ``kind``; ``stated_ratio`` is whether a ratio was given to
    an equal vertex partition, ``field_fault`` whether a JSON field is at
    fault besides its sets."""
    if isinstance(reference, KernelCertificate) and reference.kind == EQUAL_VERTEX_PARTITION:
        if kind == RATIO_VERTEX_PARTITION:
            return replace(reference, kind=RATIO_VERTEX_PARTITION)
        return ParseError if stated_ratio else replace(reference, ratio=None)
    if field_fault and reference in SET_FAULTS:
        return ParseError
    return reference


def random_sets(rng, labels, names, required):
    """Random disjoint label lists, one per name, each required one given a
    label when there are labels enough."""
    codes = [rng.randrange(len(names) + 1) for _ in labels]
    sets = {name: [x for x, s in zip(labels, codes) if s == i + 1] for i, name in enumerate(names)}
    free = [x for x, s in zip(labels, codes) if s == 0]
    for name in required:
        if not sets[name]:
            donor = free or next((sets[n] for n in names if len(sets[n]) > 1), None)
            if donor:
                sets[name].append(donor.pop(rng.randrange(len(donor))))
    return sets


RATIOS = ["2", "1/2", "-3", "0", "1", "1", "7/3"]
SET_RULE_FAULTS = ["unknown label", "shared label", "repeated label", "empty set"]
FIELD_FAULTS = [
    "side", "extra set", "coefficient", "stray coefficient", "ratio", "bad ratio",
    "bad coefficient", "missing set", "coefficients not an object", "unit pair vertex stated twice",
    "order", "power",
]
STRAY_FIELDS = {"order", "power"}  # field faults the earlier loader dropped


def broken_set(rng, h, side, sets, names, required, fault):
    """``sets`` with one fault of the set rule."""
    labels = list(h.vertices if side == "B" else h.edge_labels)
    name = rng.choice(names)
    if fault == "unknown label":
        sets[name].append("nowhere")
    elif fault == "repeated label" and sets[name]:
        sets[name].append(sets[name][0])
    elif fault == "shared label" and (sets[name] or labels):
        other = rng.choice([n for n in names if n != name])
        sets[other].append(rng.choice(sets[name] or labels))
        sets[name].append(sets[other][-1])
    elif fault == "empty set" and required:
        sets[rng.choice(required)] = []
    return sets


def json_case(rng, h, kind):
    """A certificate JSON of a set ``kind`` on ``h``, valid or with one or
    two faults: (data, whether a ratio is stated, the field fault or None)."""
    side, names, pairs = SET_KINDS[kind]
    names = list(names)
    required = [n for n in names if kind != THREE_SET_RELATION or n == "W"]
    labels = list(h.vertices if side == "B" else h.edge_labels)
    sets = random_sets(rng, labels, names, required)
    reads_r = any(b for _, b in pairs)
    data = {"kind": kind}
    r = Fraction(rng.choice(RATIOS)) if reads_r else None
    if r is not None and (r != 1 or rng.random() < 0.8):
        data["ratio"] = str(r)
    if rng.random() < 0.4:
        data["side"] = side
    if rng.random() < 0.4:
        data["coefficients"] = {n: str(c) for n, c in zip(names, _coefficients(pairs, r))}
    set_fault = rng.choice(SET_RULE_FAULTS) if rng.random() < 0.3 else None
    field_fault = rng.choice(FIELD_FAULTS) if rng.random() < 0.3 else None
    if set_fault:
        sets = broken_set(rng, h, side, sets, names, required, set_fault)
    if kind == THREE_SET_RELATION:
        for n in ("U", "V"):
            if not sets[n] and rng.random() < 0.5:
                del sets[n]  # U or V may be left out
    if kind == UNIT_PAIR and rng.random() < 0.5:
        for n in names:
            if len(sets[n]) == 1:
                data[n] = sets[n][0]
                if rng.random() < 0.5:
                    del sets[n]
    data["sets"] = sets
    if field_fault == "side":
        data["side"] = "I" if side == "B" else "B"
    elif field_fault == "extra set":
        data["sets"] = {**sets, "X": [rng.choice(labels or ["nowhere"])]}
    elif field_fault == "coefficient":
        name = rng.choice(names)
        data["coefficients"] = {**data.get("coefficients", {}), name: rng.choice(["4", "-5/2", "9"])}
    elif field_fault == "stray coefficient":
        data["coefficients"] = {**data.get("coefficients", {}), "X": "0"}
    elif field_fault == "ratio":
        data["ratio"] = rng.choice(["2", "1", "-1/2"]) if not reads_r else str(r + 1)
        if reads_r:
            data["coefficients"] = {n: str(c) for n, c in zip(names, _coefficients(pairs, r))}
    elif field_fault == "bad ratio":
        data["ratio"] = rng.choice([0.5, "x", True, "1/0"])
    elif field_fault == "bad coefficient":
        data["coefficients"] = {rng.choice(names): rng.choice([0.5, "x", False])}
    elif field_fault == "missing set" and required:
        name = rng.choice(required)
        data.pop(name, None)  # a unit pair's "u": "1"
        data["sets"] = {n: m for n, m in sets.items() if n != name}
    elif field_fault == "coefficients not an object":
        data["coefficients"] = ["1"]
    elif field_fault == "unit pair vertex stated twice" and kind == UNIT_PAIR and labels:
        data["u"] = rng.choice(labels)  # and "sets" states another u
        data["sets"] = {**sets, "u": [x for x in rng.choice([[], labels[:1], labels[-2:]]) if x != data["u"]]}
    elif field_fault == "unit pair vertex stated twice":
        field_fault = None
    elif field_fault in STRAY_FIELDS:
        data[field_fault] = rng.choice([1, 3, 7, 0, "2"])
    return data, kind == EQUAL_VERTEX_PARTITION and "ratio" in data, field_fault


def instances(rng, count):
    yield from (load_hypergraph(str(GOLDEN / name)) for name in INSTANCES)
    for _ in range(count):
        yield random_instance(rng, max_vertices=8, max_edges=6)


# -- agreement ---------------------------------------------------------------------------


def test_json_loads_as_the_reference_does():
    """Set kinds of certificate JSON, valid and broken by each part of the
    rule, load as the reference loads them, but for the named changes."""
    rng = random.Random(43001)
    counts = {"built": 0, "refused": 0, "changed": 0}
    for h in instances(rng, 120):
        for kind in sorted(SET_KINDS):
            for _ in range(12):
                data, stated_ratio, field_fault = json_case(rng, h, kind)
                reference = outcome(lambda: certificate_from_json_reference(h, data))
                expected = expected_outcome(reference, kind, stated_ratio, field_fault is not None)
                expected = ParseError if field_fault in STRAY_FIELDS else expected
                assert outcome(lambda: certificate_from_json(h, data)) == expected, data
                counts["built" if isinstance(expected, KernelCertificate) else "refused"] += 1
                counts["changed"] += expected != reference
    assert min(counts.values()) > 200, counts


# fields that a general combination written with "parts", one written with
# "sets" and "coefficients", or a root-of-unity certificate does not have
STRAYS = {
    "parts": ["ratio", "side", "sets", "coefficients", "order", "power"],
    "sets": ["ratio", "side", "order", "power", "parts"],
    ROOT_OF_UNITY_CYCLE: ["ratio", "side", "sets", "coefficients", "parts"],
}


def stray_value(rng, h, field):
    label = rng.choice(list(h.vertices))
    return {
        "ratio": rng.choice(["5", "1", 0]), "side": "I", "order": rng.choice([3, 4]), "power": 1,
        "sets": {rng.choice(["U", "U1"]): [label]}, "coefficients": {"U1": rng.choice(["1", "-2"])},
        "parts": [[[label], "1"]],
    }[field]


def test_other_json_kinds_load_as_the_reference_does():
    """General combinations, in either form, and root-of-unity certificates,
    valid and not, and with a field their kind does not have."""
    rng = random.Random(43002)
    cycles = [uniform_cycle(n, k) for n, k in ((6, 3), (8, 4), (12, 8))]
    built = refused = 0
    for h in [*instances(rng, 60), *cycles]:
        for _ in range(20):
            parts = [
                [rng.sample(list(h.vertices), rng.randrange(min(3, h.n_vertices) + 1)),
                 rng.choice(["1", "-2/3", 0, 5, "0"] if rng.random() < 0.9 else [0.5, "x"])]
                for _ in range(rng.randrange(4))
            ]
            if rng.random() < 0.2:
                parts.append([["nowhere"], "1"])
            names = [f"U{i}" for i in range(1, len(parts) + 1)]
            cases = [
                ("parts", {"kind": GENERAL_COMBINATION, "parts": parts}),
                ("sets", {"kind": GENERAL_COMBINATION, "sets": {n: m for n, (m, _) in zip(names, parts)},
                          "coefficients": {n: q for n, (_, q) in zip(names, parts)}}),
                (ROOT_OF_UNITY_CYCLE, {"kind": ROOT_OF_UNITY_CYCLE, "order": rng.choice([1, 2, 3, 4, 2.0]),
                                       "power": rng.choice([0, 1, 2, 5])}),
            ]
            for form, data in cases:
                if rng.random() < 0.2:
                    data["side"] = "B"  # the side of both kinds, which they may state
                reference = outcome(lambda: certificate_from_json_reference(h, data))
                stray = rng.choice(STRAYS[form]) if rng.random() < 0.25 else None
                if stray:
                    data[stray] = stray_value(rng, h, stray)
                    expected = ParseError
                elif form == ROOT_OF_UNITY_CYCLE and reference is InvalidParameters:
                    expected = ParseError  # an order or power out of range
                else:
                    expected = reference
                assert outcome(lambda: certificate_from_json(h, data)) == expected, data
                built += isinstance(expected, KernelCertificate)
                refused += not isinstance(expected, KernelCertificate)
    assert built >= 300 and refused >= 300, (built, refused)


def test_constructors_build_as_the_reference_does():
    """``_set_certificate``, ``dual_side_certificate`` and
    ``general_combination_certificate`` on label sets and ratios, valid and
    broken by each part of the rule."""
    rng = random.Random(43003)
    counts = {"built": 0, "refused": 0}
    bad_numbers = [0.5, True, "x", 1.0, None]
    for h in instances(rng, 100):
        for kind in sorted(set(SET_KINDS) - {UNIT_PAIR}):
            side, names, _ = SET_KINDS[kind]
            required = [n for n in names if kind != THREE_SET_RELATION or n == "W"]
            labels = list(h.vertices if side == "B" else h.edge_labels)
            for _ in range(8):
                sets = random_sets(rng, labels, list(names), required)
                fault = rng.choice(SET_RULE_FAULTS) if rng.random() < 0.35 else None
                if fault:
                    sets = broken_set(rng, h, side, sets, list(names), required, fault)
                members = [sets[n] for n in names]
                r = rng.choice(bad_numbers if rng.random() < 0.15 else [*RATIOS, 1, 2, Fraction(1, 3)])
                reference = outcome(lambda: set_certificate_reference(h, kind, members, r))
                expected = expected_outcome(reference, kind, False)
                assert outcome(lambda: kernels._set_certificate(h, kind, members, r)) == expected
                if kind == RATIO_VERTEX_PARTITION:
                    # the one constructor of both vertex partitions takes the equal kind at r = 1
                    dual = outcome(lambda: dual_side_certificate(h, *members, r))
                    assert dual == expected_outcome(reference, EQUAL_VERTEX_PARTITION, False)
                counts["built" if isinstance(expected, KernelCertificate) else "refused"] += 1
        for _ in range(10):
            u, v = (rng.choice([*h.vertices, "nowhere", 1]) for _ in range(2))
            expected = outcome(lambda: unit_pair_reference(h, u, v))
            assert outcome(lambda: unit_pair_certificate(h, u, v)) == expected
            counts["built" if isinstance(expected, KernelCertificate) else "refused"] += 1
        for _ in range(10):
            parts = [
                (rng.sample(list(h.vertices), rng.randrange(min(3, h.n_vertices) + 1)),
                 rng.choice([1, Fraction(-2, 3), 0, "5/7"]))
                for _ in range(rng.randrange(4))
            ]
            inexact = bool(parts) and rng.random() < 0.3
            if inexact:
                parts[0] = (parts[0][0], rng.choice(bad_numbers))
            if rng.random() < 0.2:
                parts.append((["nowhere"], 1))
            expected = outcome(lambda: general_combination_reference(h, parts))
            expected = InvalidParameters if inexact and expected in SET_FAULTS else expected
            assert outcome(lambda: general_combination_certificate(h, parts)) == expected
            counts["built" if isinstance(expected, KernelCertificate) else "refused"] += 1
    assert min(counts.values()) > 500, counts


# -- what find reports ----------------------------------------------------------------------


def test_find_reports_the_kind_asked_and_it_round_trips():
    """Every certificate ``find`` reports has the kind asked for, and its JSON
    loads back as the certificate, on every golden and 100 seeded instances."""
    rng = random.Random(43004)
    total = 0
    for h in instances(rng, 100):
        for kind in ENUMERABLE_KINDS:
            try:
                certs = find_certificates_exhaustive(h, kind)
            except kernels.InstanceTooLarge:
                continue
            for c in certs[:200]:
                assert c.kind == kind
                data = json.loads(json.dumps(certificate_to_json(c, verify_certificate(h, c))))
                assert certificate_from_json(h, data) == c
                total += 1
    assert total > 2000


def test_a_float_ratio_does_not_change_later_certificates():
    """A hand-built certificate at ratio 0.5 is refused before the kind's
    coefficients are computed at its ratio, so a later certificate at 1/2
    still has exact coefficients."""
    h = uniform_cycle(6, 3)
    pairs = SET_KINDS[kernels.RATIO_EDGE_PARTITION][2]
    kernels._coefficients.cache_clear()
    c = KernelCertificate("ratio_edge_partition", "B", (("U", ("0",)), ("V", ("1",))), (1, Fraction(-1, 2)), 0.5)
    with pytest.raises(InvalidParameters):
        verify_certificate(h, c)
    built = ratio_partition_certificate(h, ["0"], ["1", "2"], "1/2")
    assert built.coefficients == _coefficients(pairs, Fraction(1, 2)) == (1, Fraction(-1, 2))
    assert all(type(q) is Fraction for q in built.coefficients)
    assert verify_certificate(h, built).combinatorial is False


def test_vertex_partitions_keep_their_kind_on_the_changed_goldens():
    """On the two goldens whose reports changed with the rule, ``find`` of
    the ratio vertex partition reports hits at r = 1 as that kind, and the
    equal vertex partition states no ratio."""
    for name in ("cycle_12_8.txt", "tall_8x13_isolated.txt"):
        h = load_hypergraph(str(GOLDEN / name))
        ratio = find_certificates_exhaustive(h, RATIO_VERTEX_PARTITION)
        equal = find_certificates_exhaustive(h, EQUAL_VERTEX_PARTITION)
        assert any(c.ratio == 1 for c in ratio) and all(c.kind == RATIO_VERTEX_PARTITION for c in ratio)
        assert equal and all(c.kind == EQUAL_VERTEX_PARTITION and c.ratio is None for c in equal)
