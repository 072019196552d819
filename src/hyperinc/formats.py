"""Hypergraph, certificate, and weight file formats.

Two hypergraph file forms share one canonical internal representation:

* JSON: ``{"vertices": ["1", "2"], "edges": {"e1": ["1", "2"]}}``
* text: one ``name: v1 v2 v3`` line per edge, ``#`` comments and blank lines
  ignored, plus an optional ``vertices:`` header naming the full vertex set
  (needed only when some vertex lies in no edge).

Serialization is canonical (sorted vertices, sorted edge members, edges in
declaration order), so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import BadWeightFile, FileAccessError, InvalidParameters, ParseError
from .hypergraph import Hypergraph, build_hypergraph
from .kernels import (
    GENERAL_COMBINATION,
    ROOT_OF_UNITY_CYCLE,
    SET_KINDS,
    THREE_SET_RELATION,
    UNIT_PAIR,
    KernelCertificate,
    _checked,
    _coefficients,
)
from .linalg import exact_rational
from .spectra import EdgeWeighting, custom_weighting


def format_fraction(x) -> str:
    # an int or a Fraction prints as it is; a bool or a str goes through Fraction
    if type(x) is int or type(x) is Fraction:
        return str(x)
    return str(Fraction(x))


def parse_fraction(value) -> int | Fraction:
    """A JSON integer or fraction string, read by ``exact_rational``; a JSON
    float, a boolean or anything else raises ParseError."""
    try:
        return exact_rational(value)
    except InvalidParameters as exc:
        raise ParseError(f"bad fraction {value!r}: {exc}") from None


def parse_labels(value, what: str) -> list[str]:
    """A JSON array of string or integer labels, as strings."""
    if not isinstance(value, list) or not all(
        isinstance(x, (str, int)) and not isinstance(x, bool) for x in value
    ):
        raise ParseError(f"{what}: expected an array of string or integer labels, got {value!r}")
    return [str(x) for x in value]


def read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``, or of standard input for "-".
    A file that cannot be opened, read or decoded raises FileAccessError."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileAccessError(f"cannot read {path}: {exc}") from None


def _parse_json(text: str, what: str, error=ParseError):
    """``text`` as JSON.  Any ValueError (malformed JSON, or an integer past
    Python's digit limit for int()) raises ``error`` with "bad <what>: ...",
    a ParseError also with the JSON line when there is one."""
    try:
        return json.loads(text)
    except ValueError as exc:
        message = f"bad {what}: {exc}"
        if error is ParseError:
            raise ParseError(message, line=getattr(exc, "lineno", None)) from None
        raise error(message) from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8; a file that cannot be written raises
    FileAccessError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileAccessError(f"cannot write {path}: {exc}") from None


# -- hypergraph files ---------------------------------------------------------


def parse_hypergraph_text(text: str) -> Hypergraph:
    vertices: Optional[list[str]] = None
    edges: dict[str, list[str]] = {}  # edge name -> members, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'name: v1 v2 ...'", line=lineno)
        name, _, rest = line.partition(":")
        name = name.strip()
        members = rest.split()
        if not name:
            raise ParseError("missing name before ':'", line=lineno)
        if name == "vertices":
            if vertices is not None:
                raise ParseError("duplicate 'vertices:' header", line=lineno)
            vertices = members
            continue
        if name in edges:
            raise ParseError(f"duplicate edge name {name!r}", line=lineno)
        if not members:
            raise ParseError(f"edge {name!r} has no vertices", line=lineno)
        edges[name] = members
    inferred = {v for e in edges.values() for v in e}
    if vertices is None:
        vertices = inferred  # the constructor puts them in canonical order
    else:
        missing = inferred - set(vertices)
        if missing:
            raise ParseError(
                f"edges use vertices missing from the header: {sorted(missing)}"
            )
    if not vertices:
        raise ParseError("no vertices found")
    return build_hypergraph(vertices, list(edges.values()), list(edges))


def parse_hypergraph_json(text: str) -> Hypergraph:
    data = _parse_json(text, "JSON")
    if not isinstance(data, dict) or "edges" not in data:
        raise ParseError("expected an object with 'vertices' and 'edges'")
    edges_obj = data["edges"]
    if not isinstance(edges_obj, dict):
        raise ParseError("'edges' must map edge names to vertex lists")
    names = list(edges_obj)
    edges = [parse_labels(edges_obj[name], f"edge {name!r}") for name in names]
    vertices = data.get("vertices")
    if vertices is None:
        vertices = {v for e in edges for v in e}  # the constructor puts them in canonical order
    else:
        vertices = parse_labels(vertices, "'vertices'")
    return build_hypergraph(vertices, edges, names)


def parse_hypergraph(text: str) -> Hypergraph:
    """Auto-detect the JSON or text form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_hypergraph_json(text)
    return parse_hypergraph_text(text)


def load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(read_text(path))


def serialize_hypergraph_text(h: Hypergraph) -> str:
    lines = ["vertices: " + " ".join(h.vertices)]
    for name, mask in zip(h.edge_labels, h.edge_masks):
        lines.append(f"{name}: " + " ".join(h.mask_labels(mask)))
    return "\n".join(lines) + "\n"


def serialize_hypergraph_json(h: Hypergraph) -> str:
    data = {
        "vertices": list(h.vertices),
        "edges": {
            name: h.mask_labels(mask) for name, mask in zip(h.edge_labels, h.edge_masks)
        },
    }
    return json.dumps(data, indent=2) + "\n"


# -- certificates ---------------------------------------------------------------


def certificate_to_json(cert: KernelCertificate, check=None) -> dict:
    """JSON-ready report: kind, sets, coefficients, and (optionally) the
    verification verdict with its residual."""
    data: dict = {"kind": cert.kind, "side": cert.side}
    if cert.kind == ROOT_OF_UNITY_CYCLE:
        data["order"] = cert.order
        data["power"] = cert.power
    else:
        data["sets"] = {name: list(members) for name, members in cert.sets}
        data["coefficients"] = {
            name: format_fraction(c) for (name, _), c in zip(cert.sets, cert.coefficients)
        }
        if cert.ratio is not None:
            data["ratio"] = format_fraction(cert.ratio)
    if check is not None:
        data["valid"] = check.valid
        data["residual"] = {k: str(v) for k, v in check.residual.items()}
    return data


def certificate_from_json(h: Hypergraph, data: dict) -> KernelCertificate:
    """The certificate a JSON states, labels resolved against h, checked by
    the one rule (``kernels._checked``).  Its kind, side, sets (``sets``, a
    general combination's ``parts``, a unit pair's ``u`` and ``v``),
    coefficients, ratio, order and power are read as stated; a side or
    coefficient left out is the kind's, a ratio left out 1 if a coefficient
    reads it.  A malformed field, one not the kind's, or a key it does not
    read (a misspelt field; the ``valid`` and ``residual`` that ``verify
    --json`` adds are let through) raises ParseError."""
    if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
        raise ParseError("certificate JSON needs a string 'kind' field")
    kind = data["kind"]
    unread = data.keys() - {"kind", "side", "sets", "coefficients", "parts", "ratio", "order", "power",
                            "valid", "residual", *("uv" if kind == UNIT_PAIR else "")}
    if unread:
        raise ParseError(f"a {kind} certificate has no field {', '.join(map(repr, sorted(unread, key=str)))}")
    side, names, pairs = SET_KINDS.get(kind, ("B", (), ()))
    sets, coefficients = data.get("sets", {}), data.get("coefficients", {})
    if "parts" in data:  # a general combination's other way to write sets and coefficients
        if kind != GENERAL_COMBINATION or "sets" in data or "coefficients" in data:
            raise ParseError("only a general combination states 'parts', and then no 'sets' or 'coefficients'")
        if not isinstance(data["parts"], list):
            raise ParseError("'parts' must be an array")
        parts = [[x["set"], x["coefficient"]] if isinstance(x, dict) and {"set", "coefficient"} <= x.keys() else x
                 for x in data["parts"]]
        for i, x in enumerate(parts):
            if not (isinstance(x, list) and len(x) == 2):
                raise ParseError(f"part {i} must be [members, coefficient] or an object with 'set' and 'coefficient'")
    elif kind == GENERAL_COMBINATION:
        if not (isinstance(sets, dict) and isinstance(coefficients, dict) and sets and sets.keys() == coefficients.keys()):
            raise ParseError("general combination needs 'parts' or 'sets' with a coefficient for each")
        parts = [[members, coefficients[name]] for name, members in sets.items()]
    if kind == GENERAL_COMBINATION:  # its sets are U1, U2, ... in order, as general_combination_certificate names them
        sets = {f"U{i}": members for i, (members, _) in enumerate(parts, start=1)}
        coefficients = {f"U{i}": q for i, (_, q) in enumerate(parts, start=1)}
    if not isinstance(sets, dict) or not isinstance(coefficients, dict):
        raise ParseError("'sets' and 'coefficients' must map set names to label arrays and to fractions")

    def need(name: str) -> list[str]:
        if name not in sets:
            raise ParseError(f"certificate kind {kind!r} needs set {name!r}")
        return parse_labels(sets[name], f"set {name!r}")

    stated = []  # (name, labels) of each set the JSON states, the kind's first
    for name in dict.fromkeys([*names, *sets, *coefficients]):
        if kind == UNIT_PAIR and name in data:  # "u": "1", which "sets" may state again
            stated.append((name, parse_labels([data[name]], f"unit pair {name!r}")))
            if name in sets and set(need(name)) != set(stated[-1][1]):
                stated.append((name, need(name)))  # a second, other u
        elif name in sets or name in names and (kind != THREE_SET_RELATION or name == "W"):
            stated.append((name, need(name)))
        else:
            stated.append((name, []))  # U or V of a three-set relation, or a stray coefficient's set
    r = Fraction(parse_fraction(data.get("ratio", 1)))
    r = r if "ratio" in data or any(b for _, b in pairs) else None  # ratio kinds default to 1
    default = dict(zip(names, _coefficients(pairs, r)))
    numbers = tuple(parse_fraction(coefficients[n]) if n in coefficients else default.get(n, 0) for n, _ in stated)
    cert = KernelCertificate(kind, data.get("side", side), tuple(stated), numbers, r, data.get("order"), data.get("power"))
    try:
        return _checked(h, cert)
    except InvalidParameters as exc:  # a field that is not the kind's
        raise ParseError(str(exc)) from None


def load_certificate(h: Hypergraph, path: str) -> KernelCertificate:
    data = _parse_json(read_text(path), "certificate JSON")
    return certificate_from_json(h, data)


# -- weight files -------------------------------------------------------------------


def load_weighting(h: Hypergraph, path: str) -> EdgeWeighting:
    """JSON mapping edge name -> positive fraction string (or integer), each
    read by ``parse_fraction``, so a float or a boolean is refused as in a
    certificate."""
    data = _parse_json(read_text(path), "JSON", BadWeightFile)
    if not isinstance(data, dict):
        raise BadWeightFile("weight file must be a JSON object of edge -> weight")
    for name, value in data.items():
        try:
            data[name] = parse_fraction(value)
        except ParseError as exc:
            raise BadWeightFile(f"weight for {name!r}: {exc}") from None
    try:
        return custom_weighting(h, data)
    except InvalidParameters as exc:
        raise BadWeightFile(str(exc)) from None
