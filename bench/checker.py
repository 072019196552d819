"""Independent checks of CLI reports.

Nothing here imports hyperinc.  Every check recomputes what it needs from the
benchmark's own edge lists with integer or ``Fraction`` arithmetic, and
returns a list of problems (empty when the report is correct).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from workloads import Instance, Op

# A Mersenne prime: the rank of a 0/1 matrix mod p can only fall below its
# rational rank if p divides every maximal non-zero minor, which for these
# sizes is far below the chance of a hardware fault.
GFP_PRIME = 2**61 - 1

ZERO_TEXTS = ("0", "Cyc(0)")


def rank_mod_p(rows: list[list[int]], p: int = GFP_PRIME) -> int:
    m = [[x % p for x in row] for row in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [(x * inv) % p for x in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        rank += 1
    return rank


class Truth:
    """Per-instance data the checks share, computed once per instance."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.edge_names = [name for name, _ in inst.edges]
        self.members = dict(inst.edges)
        self.stars = inst.stars()
        self._rank = None
        self._units = None

    @property
    def rank(self) -> int:
        if self._rank is None:
            rows = [[int(v in e) for v in self.inst.vertices] for _, e in self.inst.edges]
            self._rank = rank_mod_p(rows)
        return self._rank

    @property
    def units(self) -> list[list[str]]:
        """Vertices grouped by star, in canonical vertex order."""
        if self._units is None:
            groups: dict[frozenset[str], list[str]] = {}
            for v in self.inst.vertices:
                groups.setdefault(self.stars[v], []).append(v)
            self._units = list(groups.values())
        return self._units


def _fractions(vec: dict[str, str]) -> dict[str, Fraction]:
    return {k: Fraction(x) for k, x in vec.items()}


def _kernel_problems(basis, columns, groups, what) -> list[str]:
    """Each vector must vanish on every group (integer sums after clearing
    denominators) and the basis must have the RREF shape over ``columns``:
    vector i is 1 at its free column f_i, which is its last non-zero column,
    f_i increase with i, and every other vector is 0 at f_i."""
    problems = []
    position = {c: i for i, c in enumerate(columns)}
    free = []
    for i, raw in enumerate(basis):
        vec = _fractions(raw)
        if not vec or any(x == 0 or k not in position for k, x in vec.items()):
            return [f"{what} vector {i} has an empty, zero or unknown entry"]
        scale = lcm(*(x.denominator for x in vec.values()))
        ints = {k: int(x * scale) for k, x in vec.items()}
        if any(sum(ints.get(c, 0) for c in group) for group in groups):
            problems.append(f"{what} vector {i} is not in the kernel")
        f = max(vec, key=position.__getitem__)
        if vec[f] != 1:
            problems.append(f"{what} vector {i} is not 1 at its free column")
        free.append(f)
    if [position[f] for f in free] != sorted(position[f] for f in set(free)):
        problems.append(f"{what} free columns are not distinct and increasing")
    for i, raw in enumerate(basis):
        if any(j != i and f in raw for j, f in enumerate(free)):
            problems.append(f"{what} vector {i} is non-zero at another free column")
    return problems


def check_rank(report: dict, op: Op, truth: Truth) -> list[str]:
    inst = truth.inst
    n, m, rank = len(inst.vertices), len(inst.edges), truth.rank
    problems = []
    expect = {
        "rank": str(rank),
        "nullity": str(n - rank),
        "transpose_rank": str(rank),
        "transpose_nullity": str(m - rank),
        "vertices": n,
        "edges": m,
        "failures": [],
    }
    for key, value in expect.items():
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)!r}, expected {value!r}")
    kb, tb = report.get("kernel_basis", []), report.get("transpose_kernel_basis", [])
    if len(kb) != n - rank or len(tb) != m - rank:
        problems.append("basis sizes do not match the nullities")
    edge_groups = [e for _, e in inst.edges]
    vertex_groups = [truth.stars[v] for v in inst.vertices]
    problems += _kernel_problems(kb, inst.vertices, edge_groups, "ker B")
    problems += _kernel_problems(tb, truth.edge_names, vertex_groups, "ker I")
    return problems


def check_contract(report: dict, op: Op, truth: Truth) -> list[str]:
    inst = truth.inst
    units = truth.units
    n, rank = len(inst.vertices), truth.rank
    label = {v: "+".join(u) for u in units for v in u}  # the program's unit labels
    images: dict[frozenset[str], str] = {}
    edge_map = {}
    for name, e in inst.edges:
        img = frozenset(label[v] for v in e)
        edge_map[name] = images.setdefault(img, name)
    contracted = {name: img for img, name in images.items()}
    deficiency = n - len(units)
    expect = {
        "rank": str(rank),
        "contraction_rank": str(rank),
        "nullity": str(n - rank),
        "contraction_nullity": str(len(units) - rank),
        "units": str(len(units)),
        "units_deficiency": str(deficiency),
        "vertex_map": label,
        "edge_map": edge_map,
        "failures": [],
    }
    problems = [
        f"{key} differs from the recomputed value"
        for key, value in expect.items()
        if report.get(key) != value
    ]
    try:
        cfile = json.loads(report.get("contracted_file", ""))
        got_edges = {k: frozenset(v) for k, v in cfile["edges"].items()}
        if set(cfile["vertices"]) != set(label.values()) or got_edges != contracted:
            problems.append("contracted hypergraph differs from the recomputed one")
    except (ValueError, KeyError, TypeError):
        problems.append("contracted_file is not a hypergraph in JSON form")
    # the program searches for an isomorphism only up to 12 vertices
    iso_expected = deficiency == 0 and n <= 12
    if iso_expected and report.get("non_contractible_isomorphic") is not True:
        problems.append("non-contractible instance not reported isomorphic to its contraction")
    if not iso_expected and "non_contractible_isomorphic" in report:
        problems.append("unexpected isomorphism verdict")
    return problems


def _holds(truth: Truth, kind: str, sets: dict, ratio: Fraction) -> bool:
    """The counting condition of a certificate, from the benchmark's data."""
    if kind == "unit_pair":
        (u,), (v,) = sets["U"], sets["V"]
        return truth.stars[u] == truth.stars[v]
    if kind in ("equal_vertex_partition", "ratio_vertex_partition"):
        e_set, f_set = sets["E"], sets["F"]
        return all(len(s & e_set) == ratio * len(s & f_set) for s in truth.stars.values())
    edges = [e for _, e in truth.inst.edges]
    if kind == "three_set_relation":
        u, v, w = sets["U"], sets["V"], sets["W"]
        return all(len(e & u) - len(e & v) == ratio * len(e & w) for e in edges)
    return all(len(e & sets["U"]) == ratio * len(e & sets["V"]) for e in edges)


def _canonical(kind: str, sets: dict, ratio: Fraction):
    """A key equal for the two orientations a finder may report."""
    if kind == "three_set_relation":
        return frozenset({(sets["U"], ratio), (sets["V"], -ratio)}), sets["W"]
    first, second = ("E", "F") if "E" in sets else ("U", "V")
    return frozenset({(sets[first], ratio), (sets[second], 1 / ratio)})


def _found_certificate(cert: dict):
    sets = {k: frozenset(v) for k, v in cert.get("sets", {}).items()}
    if "u" in sets:  # unit pairs name their sets u and v
        sets = {"U": sets["u"], "V": sets["v"]}
    return sets, Fraction(cert.get("ratio", "1"))


def check_find(report: dict, op: Op, truth: Truth) -> list[str]:
    kind = op.truth["kind"]
    certs = report.get("certificates", [])
    problems = []
    if report.get("count") != len(certs) or report.get("kind") != kind or report.get("failures") != []:
        problems.append("count, kind or failures field is wrong")
    keys = set()
    for i, cert in enumerate(certs):
        sets, ratio = _found_certificate(cert)
        members = list(sets.values())
        if not all(members) or len(frozenset().union(*members)) != sum(map(len, members)):
            problems.append(f"certificate {i} has empty or overlapping sets")
            continue
        if not cert.get("valid") or any(x not in ZERO_TEXTS for x in cert.get("residual", {}).values()):
            problems.append(f"certificate {i} is not reported valid with a zero residual")
        if not _holds(truth, kind, sets, ratio):
            problems.append(f"certificate {i} fails its counting condition")
        keys.add(_canonical(kind, sets, ratio))
    if len(keys) != len(certs):
        problems.append("duplicate certificates")
    planted = op.instance.planted.get(kind, [])
    if kind == "unit_pair":
        # unit pairs are cheap to enumerate: require exactly all of them
        planted = [
            (frozenset({a}), frozenset({b}), Fraction(1))
            for unit in truth.units
            for i, a in enumerate(unit)
            for b in unit[i + 1:]
        ]
        if len(planted) != len(certs):
            problems.append("unit pairs found differ from the units")
    for plant in planted:
        if kind == "three_set_relation":
            u, v, w, r = plant
            key = _canonical(kind, {"U": u, "V": v, "W": w}, r)
        else:
            a, b, r = plant
            names = ("E", "F") if "vertex" in kind else ("U", "V")
            key = _canonical(kind, dict(zip(names, (a, b))), r)
        if key not in keys:
            problems.append(f"planted certificate {plant} not found")
    return problems


def check_verify(report: dict, op: Op, truth: Truth) -> list[str]:
    cert = report.get("certificate", {})
    u, v = op.truth["U"], op.truth["V"]
    residual = {name: str(len(e & u) - len(e & v)) for name, e in truth.inst.edges}
    problems = []
    if cert.get("valid") is not op.truth["valid"]:
        problems.append("verdict differs from the planted truth")
    if cert.get("residual") != residual:
        problems.append("residual differs from the recounted one")
    if {k: set(x) for k, x in cert.get("sets", {}).items()} != {"U": set(u), "V": set(v)}:
        problems.append("certificate sets are not echoed")
    return problems


def check_verify_cycle(report: dict, op: Op, truth: Truth) -> list[str]:
    cert = report.get("certificate", {})
    expected = op.truth
    problems = []
    if (cert.get("order"), cert.get("power")) != (expected["order"], expected["power"]):
        problems.append("root order or power not echoed")
    if cert.get("valid") is not expected["valid"]:
        problems.append("verdict differs from r | gcd(n, k) and power != 0 mod r")
    residual = cert.get("residual", {})
    if set(residual) != set(truth.edge_names):
        problems.append("residual does not cover every edge")
    # a valid certificate has a zero residual; the trivial root (power = r)
    # is the all-ones vector, whose residual is k on every edge
    if any((x in ZERO_TEXTS) is not expected["valid"] for x in residual.values()):
        problems.append("residual entries disagree with the verdict")
    return problems


def check_units(report: dict, op: Op, truth: Truth) -> list[str]:
    order = {name: i for i, name in enumerate(truth.edge_names)}
    expected = [
        {"members": unit, "generator": sorted(truth.stars[unit[0]], key=order.__getitem__)}
        for unit in truth.units
    ]
    if report.get("units") != expected or report.get("count") != len(expected):
        return ["units differ from vertices grouped by star"]
    return []


def _adjacency_times(truth: Truth, weights: dict[str, Fraction], x: dict[str, Fraction]):
    """A*x for the weighted adjacency, summed edge by edge from the stars."""
    out: dict[str, Fraction] = {}
    touched = set().union(*(truth.stars[v] for v in x))
    for name in touched:
        e = truth.members[name]
        total = sum((x.get(v, 0) for v in e), Fraction(0))
        for u in e:
            out[u] = out.get(u, Fraction(0)) + weights[name] * (total - x.get(u, 0))
    return {k: val for k, val in out.items() if val}


def check_spectra(report: dict, op: Op, truth: Truth) -> list[str]:
    weights = {name: Fraction(1, len(e) - 1) for name, e in truth.inst.edges}
    problems = []
    if report.get("weights") != {k: str(w) for k, w in weights.items()}:
        problems.append("banerjee weights differ")
    units = {frozenset(u): u for u in truth.units if len(u) >= 2}
    pairs = report.get("eigenpairs", [])
    if len(pairs) != len(units):
        problems.append(f"{len(pairs)} eigenpairs, expected {len(units)}")
    for i, pair in enumerate(pairs):
        members = pair.get("members", [])
        if frozenset(members) not in units:
            problems.append(f"eigenpair {i} is not over a unit")
            continue
        lam = -sum((weights[n] for n in truth.stars[members[0]]), Fraction(0))
        vectors = [_fractions(x) for x in pair.get("eigenvectors", [])]
        if Fraction(pair.get("eigenvalue", "nan")) != lam:
            problems.append(f"eigenpair {i}: eigenvalue is not minus the generator weight")
        if not pair.get("verified") or pair.get("multiplicity_lower_bound") != len(members) - 1:
            problems.append(f"eigenpair {i}: not verified or wrong multiplicity")
        if len(vectors) != len(members) - 1:
            problems.append(f"eigenpair {i}: wrong number of eigenvectors")
        for j, x in enumerate(vectors):
            if _adjacency_times(truth, weights, x) != {k: lam * val for k, val in x.items()}:
                problems.append(f"eigenpair {i}: vector {j} fails A x = lambda x")
            if not any(val and all(k not in y for y in vectors if y is not x) for k, val in x.items()):
                problems.append(f"eigenpair {i}: vector {j} is not independent of the others")
    return problems


CHECKS = {
    "rank": check_rank,
    "contract": check_contract,
    "find": check_find,
    "verify": check_verify,
    "verify-cycle": check_verify_cycle,
    "units": check_units,
    "spectra": check_spectra,
}


def check(op: Op, exit_code, stdout: str, truth: Truth) -> list[str]:
    """All problems with one call's outcome; empty when it is correct."""
    if exit_code != op.expected_exit:
        return [f"exit code {exit_code}, expected {op.expected_exit}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    if report.get("command") != op.argv[0] or report.get("file") != op.argv[1]:
        return ["report names another command or file"]
    try:
        return CHECKS[op.kind](report, op, truth)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
