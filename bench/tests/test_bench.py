"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402

CLI = run.import_cli()
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "linalg.eliminate_cells",
    "linalg.kernel_entry_bits_max",
    "kernels.find_assignments",
    "kernels.certificates_found",
    "spectra.eigenpairs_found",
    "formats.input_bytes",
    "cli.output_bytes",
)


def tiny_run(workload, trace, seconds=0.01, seed=3):
    return run.run_workload(CLI, workload, seed, seconds, trace, tiny=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    _, plain = tiny_run(workload, trace=False)
    _, traced = tiny_run(workload, trace=True)
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 10
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    # different run lengths give different numbers of cycles
    for workload in WORKLOADS:
        _, short = tiny_run(workload, trace=True, seconds=0.01)
        _, long = tiny_run(workload, trace=True, seconds=60)
        assert long["attempted"] > short["attempted"]
        for name in EXACT_COUNTS:
            assert short["metrics"][name] == long["metrics"][name], (workload, name)


def test_sparse_scan_never_eliminates_or_enumerates():
    _, traced = tiny_run("sparse-scan", trace=True)
    assert traced["metrics"]["linalg.eliminate_calls"]["value"] == 0
    assert traced["metrics"]["kernels.find_assignments"]["value"] == 0
    assert traced["metrics"]["cyclotomic.matvec_s"]["value"] > 0


def _flip_first_kernel_coordinate(argv, stdout):
    if argv[0] != "rank":
        return stdout
    report = json.loads(stdout)
    vec = report["kernel_basis"][0]
    label = next(iter(vec))
    vec[label] = str(Fraction(vec[label]) + 1)
    return json.dumps(report, indent=2) + "\n"


def _drop_planted_three_set(argv, stdout):
    if argv[:1] != ["find"] or argv[3] != "three_set_relation":
        return stdout
    report = json.loads(stdout)
    planted = {"U": ["1", "2"], "V": ["3"], "W": ["4"]}
    report["certificates"] = [c for c in report["certificates"] if c["sets"] != planted]
    report["count"] = len(report["certificates"])
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize(
    "workload, corrupt, command",
    [
        ("rank-dense", _flip_first_kernel_coordinate, "rank"),
        ("certify-find", _drop_planted_three_set, "find"),
    ],
)
def test_corrupted_reports_count_as_failed(monkeypatch, workload, corrupt, command):
    honest = run.call_cli
    corrupted = []

    def call_cli(main, argv):
        elapsed, code, stdout = honest(main, argv)
        changed = corrupt(argv, stdout)
        if changed != stdout:
            corrupted.append(argv)
        return elapsed, code, changed

    monkeypatch.setattr(run, "call_cli", call_cli)
    lines, result = tiny_run(workload, trace=False)
    assert corrupted and all(argv[0] == command for argv in corrupted)
    assert result["failed"] == len(corrupted) and not result["correct"]
    assert any(line.startswith("failed_ratio") and not line.split()[1] == "0" for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_plain_reports_are_identical(workload, tmp_path):
    ops = build_pool(workload, 5, tmp_path, tiny=True)
    tracer = Tracer()
    for op in ops:
        argv = [str(tmp_path / a) if (tmp_path / a).exists() else a for a in op.argv]
        plain = run.call_cli(CLI.main, argv)
        tracer.install()
        try:
            traced = run.call_cli(CLI.main, argv)
        finally:
            tracer.uninstall()
        assert traced[1:] == plain[1:]
        assert traced[1] == op.expected_exit
    assert tracer.spans
