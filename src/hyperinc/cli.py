"""Command-line front end.

Subcommands: rank, generate, units, contract, verify, find, spectra.  Every
report number is an exact fraction string; ``--json`` switches the report to
JSON.  The exit code is 0 only when every assertion the command makes
(rank identities, certificate verdicts, eigenpair checks) holds; domain
errors exit with 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, _deferred
from .errors import HyperincError, InvalidParameters
from .formats import (
    certificate_from_json,  # unused here; bench/spans.py wraps it under this name
    certificate_to_json,
    format_fraction,
    load_certificate,
    load_hypergraph,
    load_weighting,
    serialize_hypergraph_json,
    serialize_hypergraph_text,
    write_text,
)
from .hypergraph import (
    DEFAULT_ISO_BOUND,
    are_isomorphic,  # unused here; bench/spans.py wraps it under this name
    bit_indices,
    compute_units,
    label_sort_key,
    unit_contraction,  # unused here; bench/spans.py wraps it under this name
    uniform_cycle,
)
from .kernels import (
    ALL_KINDS,
    find_certificates_exhaustive,
    nullity_decomposition,
    verify_certificate,
    verify_certificates,
)
from .linalg import (
    edge_vertex_incidence,
    rank_and_nullspace,
    vertex_edge_incidence,
)

# Read through ``__getattr__``, which imports them on first use: rank, units,
# contract, verify and find load neither spectra nor generators.
_DEFERRED = {
    "banerjee_weighting": "spectra",
    "predict_unit_eigenpairs": "spectra",
    "unit_weighting": "spectra",
    "weighted_adjacency": "spectra",
    "random_hypergraph": "generators",
}


def __getattr__(name):
    return _deferred(globals(), _DEFERRED, name)


def _vector_json(vec) -> dict[str, str]:
    return {
        k: format_fraction(v)
        for k, v in sorted(vec.entries.items(), key=lambda kv: label_sort_key(kv[0]))
    }


def _basis_json(basis) -> list[dict[str, str]]:
    return [_vector_json(v) for v in basis.vectors]


# -- handlers -------------------------------------------------------------------


def cmd_rank(args) -> dict:
    h = load_hypergraph(args.file)
    b = edge_vertex_incidence(h)
    i = vertex_edge_incidence(h)
    ns_b = rank_and_nullspace(b)
    ns_i = rank_and_nullspace(i)
    failures = []
    if ns_b.rank != ns_i.rank:
        failures.append("rank(B_H) != rank(I_H)")
    return {
        "command": "rank",
        "file": args.file,
        "vertices": h.n_vertices,
        "edges": h.n_edges,
        "rank": str(ns_b.rank),
        "nullity": str(ns_b.nullity),
        "kernel_basis": _basis_json(ns_b),
        "transpose_rank": str(ns_i.rank),
        "transpose_nullity": str(ns_i.nullity),
        "transpose_kernel_basis": _basis_json(ns_i),
        "failures": failures,
    }


def render_rank(report) -> list[str]:
    lines = [
        f"file: {report['file']}  ({report['vertices']} vertices, {report['edges']} edges)",
        f"rank(B_H) = {report['rank']}   nullity(B_H) = {report['nullity']}",
    ]
    for vec in report["kernel_basis"]:
        lines.append("  ker B_H: " + _render_vector(vec))
    lines.append(
        f"rank(I_H) = {report['transpose_rank']}   nullity(I_H) = {report['transpose_nullity']}"
    )
    for vec in report["transpose_kernel_basis"]:
        lines.append("  ker I_H: " + _render_vector(vec))
    return lines


def cmd_generate(args) -> None:
    """Write the generated file to ``-o``, or else to stdout; no report."""
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        raise InvalidParameters(f"generator parameters must be integers: {args.params}") from None
    if args.kind == "cycle":
        if len(params) != 2:
            raise InvalidParameters("generate cycle needs N and K")
        h = uniform_cycle(*params)
    else:
        if len(params) != 2:
            raise InvalidParameters("generate random needs N (vertices) and M (edges)")
        h = __getattr__("random_hypergraph")(params[0], params[1], args.max_size, args.seed)
    content = serialize_hypergraph_json(h) if args.json else serialize_hypergraph_text(h)
    if args.output:
        write_text(args.output, content)
    else:
        sys.stdout.write(content)


def cmd_units(args) -> dict:
    h = load_hypergraph(args.file)
    partition = compute_units(h)
    units = [
        {
            "members": list(unit.members),
            "generator": [h.edge_labels[i] for i in bit_indices(unit.star)],
        }
        for unit in partition.units
    ]
    return {
        "command": "units",
        "file": args.file,
        "count": len(partition),
        "units": units,
        "failures": [],
    }


def render_units(report) -> list[str]:
    lines = [f"{report['count']} units in {report['file']}"]
    for unit in report["units"]:
        members = ",".join(unit["members"])
        gen = " ".join(unit["generator"]) if unit["generator"] else "(empty star)"
        lines.append(f"  {{{members}}}  generator: {gen}")
    return lines


def cmd_contract(args) -> dict:
    h = load_hypergraph(args.file)
    decomposition = nullity_decomposition(h)  # raises if an identity fails
    contracted, vertex_map, edge_map = decomposition.contraction
    report = {
        "command": "contract",
        "file": args.file,
        "rank": str(decomposition.rank),
        "contraction_rank": str(decomposition.contraction_rank),
        "nullity": str(decomposition.nullity),
        "contraction_nullity": str(decomposition.contraction_nullity),
        "units": str(decomposition.n_units),
        "units_deficiency": str(decomposition.units_deficiency),
        "vertex_map": {v: vertex_map[v] for v in h.vertices},
        "edge_map": {h.edge_labels[i]: contracted.edge_labels[j] for i, j in edge_map.items()},
        "contracted_file": serialize_hypergraph_json(contracted)
        if args.json
        else serialize_hypergraph_text(contracted),
        "failures": [],
    }
    # nullity_decomposition has checked that a non-contractible H is its own
    # contraction; the verdict is reported where are_isomorphic would search
    if decomposition.units_deficiency == 0 and h.n_vertices <= DEFAULT_ISO_BOUND:
        report["non_contractible_isomorphic"] = True
    if args.output:
        write_text(args.output, serialize_hypergraph_text(contracted))
    return report


def render_contract(report) -> list[str]:
    lines = [
        f"file: {report['file']}",
        f"units: {report['units']}  (vertex surplus over units: {report['units_deficiency']})",
        f"rank(B_H) = {report['rank']} = {report['contraction_rank']} = rank of contraction",
        f"nullity(B_H) = {report['nullity']} = {report['contraction_nullity']}"
        f" + {report['units_deficiency']}",
    ]
    if "non_contractible_isomorphic" in report:
        lines.append("non-contractible; isomorphic to contraction: yes")
    lines.append("contracted hypergraph:")
    lines.extend("  " + line for line in report["contracted_file"].rstrip().splitlines())
    return lines


def cmd_verify(args) -> dict:
    h = load_hypergraph(args.file)
    cert = load_certificate(h, args.certificate)
    check = verify_certificate(h, cert)
    failures = [] if check.valid else ["certificate is not in the kernel"]
    return {
        "command": "verify",
        "file": args.file,
        "certificate": certificate_to_json(cert, check),
        "failures": failures,
    }


def render_verify(report) -> list[str]:
    cert = report["certificate"]
    lines = [f"kind: {cert['kind']}  (side {cert['side']})"]
    for name, members in cert.get("sets", {}).items():
        lines.append(f"  {name} = {{{','.join(members)}}}")
    if "ratio" in cert:
        lines.append(f"  ratio = {cert['ratio']}")
    if "order" in cert:
        lines.append(f"  root order = {cert['order']}, power = {cert['power']}")
    lines.append("valid: " + ("yes" if cert["valid"] else "NO"))
    if not cert["valid"]:
        # a zero entry reads "0", or "Cyc(0)" in Q(zeta_r)
        nonzero = {k: v for k, v in cert["residual"].items() if v not in ("0", "Cyc(0)")}
        lines.append(f"non-zero residual entries: {nonzero}")
    return lines


def cmd_find(args) -> dict:
    h = load_hypergraph(args.file)
    certs = find_certificates_exhaustive(h, args.kind)
    checks = verify_certificates(h, certs)
    return {
        "command": "find",
        "file": args.file,
        "kind": args.kind,
        "count": len(certs),
        "certificates": [certificate_to_json(cert, check) for cert, check in zip(certs, checks)],
        "failures": [
            f"found certificate failed verification: {cert}"
            for cert, check in zip(certs, checks)
            if not check.valid
        ],
    }


def render_find(report) -> list[str]:
    lines = [
        f"{report['count']} certificates of kind {report['kind']} in {report['file']}"
    ]
    for i, cert in enumerate(report["certificates"], start=1):
        parts = []
        for name, members in cert.get("sets", {}).items():
            parts.append(f"{name}={{{','.join(members)}}}")
        if "ratio" in cert:
            parts.append(f"r={cert['ratio']}")
        flag = "" if cert["valid"] else "  INVALID"
        lines.append(f"  {i}. " + " ".join(parts) + flag)
    return lines


def cmd_spectra(args) -> dict:
    h = load_hypergraph(args.file)
    if args.weighting == "unit":
        w = __getattr__("unit_weighting")(h)
    elif args.weighting == "banerjee":
        w = __getattr__("banerjee_weighting")(h)
    else:
        w = load_weighting(h, args.weighting)
    pairs = __getattr__("predict_unit_eigenpairs")(h, w)
    failures = [
        f"eigenpair for class {{{','.join(p.members)}}} failed exact verification"
        for p in pairs
        if not p.verified
    ]
    report = {
        "command": "spectra",
        "file": args.file,
        "weighting": w.name,
        "weights": {
            name: format_fraction(w.weight(i)) for i, name in enumerate(h.edge_labels)
        },
        "eigenpairs": [
            {
                "eigenvalue": format_fraction(p.eigenvalue),
                "members": list(p.members),
                "multiplicity_lower_bound": p.multiplicity_lower_bound,
                "verified": p.verified,
                "eigenvectors": [_vector_json(x) for x in p.eigenvectors],
            }
            for p in pairs
        ],
        "failures": failures,
    }
    if args.matrix:
        adjacency = __getattr__("weighted_adjacency")(h, w)
        report["adjacency"] = {
            "labels": list(adjacency.row_labels),
            "rows": [[format_fraction(x) for x in row] for row in adjacency.entries],
        }
    return report


def render_spectra(report) -> list[str]:
    lines = [f"weighting: {report['weighting']}"]
    if "adjacency" in report:
        labels = report["adjacency"]["labels"]
        lines.append("adjacency over " + " ".join(labels))
        for label, row in zip(labels, report["adjacency"]["rows"]):
            lines.append(f"  {label}: " + " ".join(row))
    if not report["eigenpairs"]:
        lines.append("no multi-vertex units: no predicted eigenpairs")
    for p in report["eigenpairs"]:
        verdict = "verified" if p["verified"] else "FAILED"
        lines.append(
            f"eigenvalue {p['eigenvalue']}  class {{{','.join(p['members'])}}}"
            f"  multiplicity >= {p['multiplicity_lower_bound']}  {verdict}"
        )
    return lines


def _render_vector(vec: dict[str, str]) -> str:
    inner = ", ".join(f"{k}: {v}" for k, v in vec.items())
    return "{" + inner + "}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyperinc",
        description="Exact rank, null-space certificates, units, and adjacency "
        "eigenpairs of hypergraph incidence matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every subcommand
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("rank", help="rank, nullity, and kernel bases of both incidence matrices")
    p.add_argument("file")
    p.set_defaults(handler=cmd_rank, render=render_rank)

    p = add_parser("generate", help="emit a hypergraph file (cycle or seeded random)")
    p.add_argument("kind", choices=["cycle", "random"])
    p.add_argument("params", nargs="+", help="cycle: N K; random: N M")
    p.add_argument("--max-size", type=int, default=None, help="random: largest edge size")
    p.add_argument("--seed", type=int, default=0, help="random: RNG seed")
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.set_defaults(handler=cmd_generate)

    p = add_parser("units", help="list units and their generator edge sets")
    p.add_argument("file")
    p.set_defaults(handler=cmd_units, render=render_units)

    p = add_parser("contract", help="unit contraction with rank/nullity identities")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="also write the contracted hypergraph here")
    p.set_defaults(handler=cmd_contract, render=render_contract)

    p = add_parser("verify", help="verify a kernel certificate from JSON")
    p.add_argument("file")
    p.add_argument("--certificate", required=True, help="certificate JSON path, or - for stdin")
    p.set_defaults(handler=cmd_verify, render=render_verify)

    p = add_parser("find", help="exhaustively enumerate certificates of one kind")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=sorted(ALL_KINDS))
    p.set_defaults(handler=cmd_find, render=render_find)

    p = add_parser("spectra", help="unit-derived adjacency eigenpairs, exactly verified")
    p.add_argument("file")
    p.add_argument(
        "--weighting",
        default="unit",
        help="'unit', 'banerjee', or a JSON weight file of exact fractions",
    )
    p.add_argument("--matrix", action="store_true", help="include the adjacency matrix")
    p.set_defaults(handler=cmd_spectra, render=render_spectra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except HyperincError as exc:
        if args.json:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:  # generate wrote its content and makes no report
        return 0

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in args.render(report):
            print(line)
        if report["failures"]:
            print("FAILURES:")
            for failure in report["failures"]:
                print(f"  - {failure}")
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
