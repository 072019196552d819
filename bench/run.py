"""Benchmark of the hyperinc command line.

    python3 bench/run.py --workload rank-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

It imports ``hyperinc.cli`` from this checkout's ``src/`` and calls
``hyperinc.cli.main`` in-process on inputs generated from the seed: one
process, one thread and one closed-loop client, so each call starts only
after the previous one returned.  The workload's pool of calls is repeated in
whole cycles, as many as take about ``--seconds`` on the reference machine
(``NOMINAL_CYCLE_S``), so the parent and a change make exactly the same calls.
Every report is checked by ``checker.py``, outside the timed region.

With ``--trace 0`` the metrics are end to end.  With ``--trace 1`` every call
runs twice, plain and traced (in alternating order), and the metrics are the
per-layer self times and counts of ``spans.py``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
``--workload all`` runs each workload in a process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checker
from calibration import REFERENCE_S, reference_seconds
from spans import MAX_COUNTS, PER_LAYER, ROOT_SPAN, SUM_COUNTS, TIME_METRICS, Tracer
from workloads import NOMINAL_CYCLE_S, WORKLOADS, build_pool

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

ISO_BOUND_ENV_VAR = "HYPERINC_ISO_BOUND"
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def import_cli():
    """Import hyperinc.cli from this checkout's src/ and nowhere else."""
    os.environ.pop(ISO_BOUND_ENV_VAR, None)  # the program's default bound applies
    sys.path.insert(0, str(SRC))
    try:
        import hyperinc.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import hyperinc from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hyperinc was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(main, argv):
    """One timed call: (seconds, exit code, standard output).  An exception
    that escapes the program is returned in place of the exit code."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        except Exception as exc:  # counted as a failed call, never re-raised
            code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of importing hyperinc.cli plus one
    warm-up call of each op kind on tiny instances, calibrated like calls."""
    workdir.mkdir()
    ops = build_pool(workload, seed, workdir, tiny=True)
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
               json.dumps([op.argv for op in ops])]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(command, cwd=workdir, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if probe["codes"] != [op.expected_exit for op in ops]:
            raise SystemExit(f"set-up warm-up calls exited with {probe['codes']}")
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"set-up probe imported {probe['module']}")
        times.append(probe["calibrated"])
    return statistics.median(times)


def cycle_count(workload: str, calls_per_cycle: int, seconds: float) -> int:
    """Whole cycles a run makes: about ``seconds`` on the reference machine,
    at least 3 (so each call has a median of repeats) and enough calls for
    a tail percentile."""
    needed = -(-(TAIL_BEYOND + 1) // calls_per_cycle)
    return max(3, needed, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_plain(main, ops, cycles: int):
    """Untraced calls, ``cycles`` times the pool.  Returns calibrated and
    wall-clock latencies per pool slot, and the outcomes."""
    calibrated, wall, outcomes = [[] for _ in ops], [[] for _ in ops], Counter()
    before = reference_seconds()
    for _ in range(cycles):
        for i, op in enumerate(ops):
            gc.collect()
            elapsed, code, stdout = call_cli(main, op.argv)
            after = reference_seconds()
            calibrated[i].append(elapsed * 2 * REFERENCE_S / (before + after))
            wall[i].append(elapsed)
            outcomes[(i, code, stdout)] += 1
            before = after
    return calibrated, wall, outcomes


def run_traced(main, ops, cycles: int):
    """Each call once plain and once traced, the order alternating by cycle.
    Returns the tracer, (plain, traced) latencies, outcomes and the number
    of calls whose traced report differed from the plain one."""
    tracer = Tracer()

    def traced_main(argv):
        return tracer.span(ROOT_SPAN, main, (argv,), {})

    pairs, outcomes, mismatches = [], Counter(), 0
    for cycle in range(cycles):
        for i, op in enumerate(ops):
            result = {}
            for traced in (cycle % 2 == 1, cycle % 2 == 0):
                gc.collect()
                if traced:
                    tracer.op_id = len(pairs)
                    tracer.install()
                    try:
                        result[traced] = call_cli(traced_main, op.argv)
                    finally:
                        tracer.uninstall()
                    tracer.counts["cli.output_bytes"] += len(result[traced][2].encode())
                else:
                    result[traced] = call_cli(main, op.argv)
                outcomes[(i, *result[traced][1:])] += 1
            mismatches += result[True][1:] != result[False][1:]
            pairs.append((result[False][0], result[True][0]))
    return tracer, pairs, outcomes, mismatches


def latency_metrics(samples, passed_share: float):
    """End-to-end latency metrics from per-slot samples.

    The pool repeats identical calls, so each call's latency is taken as the
    median of its repeats; a burst of load from another process then moves
    no metric.  Returns the metrics, the tail's percentile and sample count.
    """
    per_call = [statistics.median(s) for s in samples]
    smoothed = sorted(m for m, s in zip(per_call, samples) for _ in s)
    rank = len(smoothed) - TAIL_BEYOND
    metrics = {
        "ops_per_s": passed_share * len(per_call) / sum(per_call),
        "latency_p50_s": statistics.median(smoothed),
        "latency_tail_s": smoothed[rank - 1],
    }
    return metrics, 100 * rank / len(smoothed), len(smoothed)


def check_outcomes(ops, outcomes: Counter) -> tuple[int, list[str]]:
    """Failed calls and their problems; identical outcomes are checked once."""
    truths: dict[int, checker.Truth] = {}
    failed, problems = 0, []
    for (i, code, stdout), calls in outcomes.items():
        op = ops[i]
        truth = truths.setdefault(id(op.instance), checker.Truth(op.instance))
        found = checker.check(op, code, stdout, truth)
        if found:
            failed += calls
            problems.append(f"{' '.join(op.argv)}: {'; '.join(found[:3])}")
    return failed, problems


def layer_metrics(tracer: Tracer, pairs) -> dict[str, float]:
    n = len(pairs)
    per_op = tracer.self_times()
    metrics = {name: sum(op[name] for op in per_op.values()) / n for name in TIME_METRICS}
    metrics.update({name: tracer.counts[name] / n for name in SUM_COUNTS})
    metrics.update({name: tracer.maxima.get(name, 0) for name in MAX_COUNTS})
    traced = sum(t for _, t in pairs)
    metrics["op.unattributed_s"] = (traced - sum(metrics[m] for m in TIME_METRICS) * n) / n
    metrics["trace.overhead_s"] = (traced - sum(p for p, _ in pairs)) / n
    return metrics


def write_spans(tracer: Tracer, ops, workload: str, seed: int) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"trace-{workload}-seed{seed}.json"
    data = {
        "workload": workload,
        "seed": seed,
        "pool": [op.argv for op in ops],
        "fields": ["span", "name", "op", "parent", "start", "end"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def environment_line() -> str:
    return (
        f"environment: Python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"{ISO_BOUND_ENV_VAR} cleared; no CPU pinning and no cache dropping "
        "(both need machine settings the benchmark does not change)"
    )


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (report lines, result object)."""
    workdir = WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = Path.cwd()
    try:
        setup_s = None if trace else measure_setup(workload, seed, workdir / "setup")
        ops = build_pool(workload, seed, workdir, tiny=tiny)
        cycles = cycle_count(workload, len(ops), seconds)
        os.chdir(workdir)  # reports name inputs by the same relative path in every run
        try:
            if trace:
                # a traced cycle runs every call twice
                tracer, pairs, outcomes, mismatches = run_traced(cli.main, ops, -(-cycles // 2))
            else:
                samples, wall, outcomes = run_plain(cli.main, ops, cycles)
                mismatches = 0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            os.chdir(home)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    failed, problems = check_outcomes(ops, outcomes)
    failed += mismatches
    if mismatches:
        problems.append(f"{mismatches} traced reports differ from their plain run")
    attempted = sum(outcomes.values())
    lines = [
        f"hyperinc benchmark: workload {workload}, seed {seed}, {seconds:g} s, "
        + ("traced (each call also run plain)" if trace else "untraced"),
        environment_line(),
        f"load: one process, one thread, one closed-loop client; "
        f"{attempted // len(ops) // (1 + trace)} cycles of {len(ops)} calls",
    ]
    if trace:
        metrics = layer_metrics(tracer, pairs)
        op_time = statistics.fmean(t for _, t in pairs)
        lines.append(f"spans written to {write_spans(tracer, ops, workload, seed).relative_to(ROOT)}")
        lines.append(f"mean traced call {op_time:.6f} s; per call:")
        for name in PER_LAYER:
            share = f"  {100 * metrics[name] / op_time:5.1f}% of call" if name in TIME_METRICS else ""
            lines.append(f"  {name:32s} {metrics[name]:.6g} {layer_unit(name)}{share}")
        lines.append("  kernels.find_assignments is computed as 3^n (4^n for three-set) "
                     "from the ground-set size, not counted inside the finder")
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        passed_share = (attempted - failed) / attempted
        metrics, percentile, n_samples = latency_metrics(samples, passed_share)
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        raw, _, _ = latency_metrics(wall, passed_share)
        units = END_TO_END_UNITS
        lines.append(f"times are calibrated to a reference computation of {REFERENCE_S} s "
                     "(see calibration.py); wall-clock figures in brackets")
        for name, unit in units.items():
            line = f"{name:16s} {metrics[name]:.6g} {unit}"
            lines.append(line + (f"  [{raw[name]:.6g}]" if name in raw else ""))
            if name == "latency_tail_s":
                lines.append(f"  (p{percentile:.1f}: {TAIL_BEYOND} of {n_samples} samples "
                             "lie beyond it; each call's sample is the median of its repeats)")
        lines.append(f"failed_ratio     {failed / attempted:.6g}  ({failed} of {attempted} calls)")
    lines += [f"FAILED {p}" for p in problems[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cli = import_cli()
    if args.workload == "all":
        result = run_all(args)
    else:
        lines, result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
