"""Spans around the calls between hyperinc's modules, recorded from outside.

``Tracer.install`` replaces each name in ``PATCH_POINTS`` (a function as one
module looks it up, e.g. ``kernels.rank_and_nullspace``) with a wrapper that
records a span: name, start, end, parent span and op id.  Spans and counts
stay in memory; ``Tracer.self_times`` turns them into self time per layer.
Nothing in the program is edited, and ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# Names looked up across module boundaries on the paths the workloads run,
# plus the module-global calls that separate layers inside one module
# (re-multiplication inside linalg, compute_units inside hypergraph).
PATCH_POINTS = (
    "cli.load_hypergraph", "cli.load_certificate", "cli.load_weighting",
    "cli.certificate_from_json", "cli.certificate_to_json",
    "cli.serialize_hypergraph_json", "cli.serialize_hypergraph_text",
    "cli.are_isomorphic", "cli.compute_units", "cli.unit_contraction",
    "cli.find_certificates_exhaustive", "cli.nullity_decomposition", "cli.verify_certificate",
    "cli.edge_vertex_incidence", "cli.vertex_edge_incidence", "cli.rank_and_nullspace",
    "cli.banerjee_weighting", "cli.unit_weighting", "cli.predict_unit_eigenpairs",
    "cli.weighted_adjacency",
    "formats.build_hypergraph", "formats.custom_weighting",
    "kernels.zeta_power_table", "kernels.compute_units", "kernels.unit_contraction",
    "kernels.edge_vertex_incidence", "kernels.vertex_edge_incidence", "kernels.matvec",
    "kernels.rank_and_nullspace",
    "linalg.matvec", "linalg.edge_vertex_incidence",
    "spectra.compute_units", "spectra.matvec", "spectra.span_dimension",
    "spectra.weighted_adjacency",
    "hypergraph.compute_units",
)

ROOT_SPAN = "cli.main"

# span name (defining module.function) -> per-layer time metric
SPAN_METRIC = {
    "formats.load_hypergraph": "formats.parse_s",
    "formats.load_certificate": "formats.parse_s",
    "formats.load_weighting": "formats.parse_s",
    "formats.certificate_from_json": "formats.parse_s",
    "formats.serialize_hypergraph_text": "formats.serialize_s",
    "formats.serialize_hypergraph_json": "formats.serialize_s",
    "formats.certificate_to_json": "formats.serialize_s",
    "hypergraph.build_hypergraph": "hypergraph.build_s",
    "hypergraph.compute_units": "hypergraph.units_s",
    "hypergraph.unit_contraction": "hypergraph.units_s",
    "hypergraph.are_isomorphic": "hypergraph.iso_s",
    "linalg.edge_vertex_incidence": "linalg.incidence_s",
    "linalg.vertex_edge_incidence": "linalg.incidence_s",
    "linalg.rank_and_nullspace": "linalg.eliminate_s",
    "linalg.matvec": "linalg.matvec_s",
    "linalg.span_dimension": "linalg.span_s",
    "cyclotomic.matvec": "cyclotomic.matvec_s",
    "cyclotomic.zeta_power_table": "cyclotomic.power_table_s",
    "kernels.verify_certificate": "kernels.verify_s",
    "kernels.nullity_decomposition": "kernels.decompose_s",
    "kernels.find_certificates_exhaustive": "kernels.find_s",
    "spectra.unit_weighting": "spectra.weighting_s",
    "spectra.banerjee_weighting": "spectra.weighting_s",
    "spectra.custom_weighting": "spectra.weighting_s",
    "spectra.weighted_adjacency": "spectra.adjacency_s",
    "spectra.predict_unit_eigenpairs": "spectra.eigenpairs_s",
    ROOT_SPAN: "cli.self_s",
}

TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
SUM_COUNTS = (
    "formats.input_bytes",
    "hypergraph.iso_calls",
    "linalg.incidence_cells",
    "linalg.eliminate_calls",
    "linalg.eliminate_cells",
    "linalg.matvec_calls",
    "kernels.find_assignments",
    "kernels.certificates_found",
    "spectra.eigenpairs_found",
    "cli.output_bytes",
)
MAX_COUNTS = ("linalg.kernel_entry_bits_max",)
RUN_METRICS = ("op.unattributed_s", "trace.overhead_s")
PER_LAYER = TIME_METRICS + SUM_COUNTS + MAX_COUNTS + RUN_METRICS

EDGE_SIDE_KINDS = ("equal_vertex_partition", "ratio_vertex_partition")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_input(tracer, args, kwargs, result, index, name):
    tracer.counts["formats.input_bytes"] += os.path.getsize(_arg(args, kwargs, index, name))


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["linalg.incidence_cells"] += result.rows * result.cols


def _count_elimination(tracer, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    tracer.counts["linalg.eliminate_cells"] += m.rows * m.cols
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for vec in result.vectors for x in vec.entries.values()),
        default=0,
    )
    key = "linalg.kernel_entry_bits_max"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0), bits)


def _count_find(tracer, args, kwargs, result):
    h, kind = _arg(args, kwargs, 0, "h"), _arg(args, kwargs, 1, "kind")
    # computed from the ground-set size, not counted inside the finder
    if kind == "unit_pair":
        assignments = 0
    elif kind == "three_set_relation":
        assignments = 4 ** h.n_vertices
    else:
        assignments = 3 ** (h.n_edges if kind in EDGE_SIDE_KINDS else h.n_vertices)
    tracer.counts["kernels.find_assignments"] += assignments
    tracer.counts["kernels.certificates_found"] += len(result)


def _count_eigenpairs(tracer, args, kwargs, result):
    tracer.counts["spectra.eigenpairs_found"] += len(result)


# span name -> counter of calls, counted also when the call raises
CALL_COUNTS = {
    "linalg.rank_and_nullspace": "linalg.eliminate_calls",
    "linalg.matvec": "linalg.matvec_calls",
    "hypergraph.are_isomorphic": "hypergraph.iso_calls",
}

# span name -> counter of work, run on the result of a call that returned
RESULT_COUNTERS = {
    "formats.load_hypergraph": functools.partial(_count_input, index=0, name="path"),
    "formats.load_certificate": functools.partial(_count_input, index=1, name="path"),
    "formats.load_weighting": functools.partial(_count_input, index=1, name="path"),
    "linalg.edge_vertex_incidence": _count_cells,
    "linalg.vertex_edge_incidence": _count_cells,
    "linalg.rank_and_nullspace": _count_elimination,
    "kernels.find_certificates_exhaustive": _count_find,
    "spectra.predict_unit_eigenpairs": _count_eigenpairs,
}


class Tracer:
    """Records spans of one op at a time; keeps every op's spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [span id, name, op id, parent id, start, end]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._cyclotomic = importlib.import_module("hyperinc.cyclotomic").CyclotomicNumber
        self.op_id = None

    def _span_name(self, fn, args, kwargs) -> str:
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
        if name == "linalg.matvec":
            x = _arg(args, kwargs, 1, "x")
            values = x.entries.values() if hasattr(x, "entries") else x.values()
            if any(isinstance(v, self._cyclotomic) for v in values):
                return "cyclotomic.matvec"
        return name

    def span(self, name: str, fn, args, kwargs):
        record = [len(self.spans), name, self.op_id, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(record)
        if name in CALL_COUNTS:
            self.counts[CALL_COUNTS[name]] += 1
        self._stack.append(record[0])
        record[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(self._span_name(fn, args, kwargs), fn, args, kwargs)

        return wrapper

    def install(self):
        for point in PATCH_POINTS:
            module_name, _, attr = point.partition(".")
            module = importlib.import_module(f"hyperinc.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self time per op and time metric: a span's duration minus the
        durations of its children (spans of one thread never overlap)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(TIME_METRICS, 0.0))
        for sid, name, op, _, start, end in self.spans:
            per_op[op][SPAN_METRIC[name]] += (end - start) - child_time[sid]
        return per_op
