"""End-to-end CLI tests, run as `python -m hyperinc` child processes."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import CHILD_ENV
from hyperinc import cli, cyclotomic, kernels
from hyperinc.cli import main
from hyperinc.formats import (
    load_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
    serialize_hypergraph_text,
)
from hyperinc.hypergraph import replace, uniform_cycle, unit_contraction
from hyperinc.kernels import root_of_unity_certificate, verify_certificate

GOLDEN = Path(__file__).resolve().parent / "golden"

UNIT_EXAMPLE_FILE = """\
vertices: 1 2 3 4 5 6 7 8 9 10 11
e1: 1 2 5 6 7 10 11
e2: 1 2 3 4
e3: 3 4 10
e4: 5 6 7 8 9
e5: 8 9 10 11
"""

EQUAL_FILE = """\
e1: 1 2 3 5
e2: 1 3 4 5
e3: 1 2 4 5
"""

K4_FILE = """\
e1: 1 2
e2: 3 4
e3: 1 3
e4: 1 4
e5: 2 3
e6: 2 4
"""


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "hyperinc", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=CHILD_ENV,
    )


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "units11.hg"
    path.write_text(UNIT_EXAMPLE_FILE)
    return str(path)


@pytest.fixture
def equal_file(tmp_path):
    path = tmp_path / "eq.hg"
    path.write_text(EQUAL_FILE)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.hg"
    path.write_text(K4_FILE)
    return str(path)


class TestRank:
    def test_text_report(self, unit_file):
        proc = run_cli("rank", unit_file)
        assert proc.returncode == 0
        assert "rank(B_H) = 5" in proc.stdout
        assert "nullity(B_H) = 6" in proc.stdout

    def test_file_from_stdin(self, unit_file):
        from_file = json.loads(run_cli("rank", unit_file, "--json").stdout)
        from_stdin = json.loads(run_cli("rank", "-", "--json", stdin=UNIT_EXAMPLE_FILE).stdout)
        assert from_stdin == {**from_file, "file": "-"}

    def test_json_report(self, unit_file):
        proc = run_cli("rank", unit_file, "--json")
        report = json.loads(proc.stdout)
        assert report["rank"] == "5"
        assert report["nullity"] == "6"
        assert len(report["kernel_basis"]) == 6
        assert report["failures"] == []

    @pytest.mark.parametrize("as_json", [False, True])
    def test_rank_disagreement_is_reported(self, unit_file, monkeypatch, capsys, as_json):
        """I_H's rank one short of B_H's (forced) fails the run with exit 1."""
        rank_and_nullspace = cli.rank_and_nullspace
        calls = []

        def short(m):
            ns = rank_and_nullspace(m)
            calls.append(m)
            if len(calls) == 2:  # the second call, on I_H
                ns = replace(ns, pivots=ns.pivots[:-1], cols=ns.cols - 1)
            return ns

        monkeypatch.setattr(cli, "rank_and_nullspace", short)
        assert main(["rank", unit_file] + ["--json"] * as_json) == 1
        out = capsys.readouterr().out
        if as_json:
            report = json.loads(out)
            assert (report["rank"], report["transpose_rank"]) == ("5", "4")
            assert report["failures"] == ["rank(B_H) != rank(I_H)"]
        else:
            assert out.splitlines()[-2:] == ["FAILURES:", "  - rank(B_H) != rank(I_H)"]

    def test_no_floats_in_json(self, unit_file):
        proc = run_cli("rank", unit_file, "--json")
        report = json.loads(proc.stdout)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(report)

    def test_single_edge_file(self, tmp_path):
        path = tmp_path / "one.hg"
        path.write_text("e1: a b\n")
        report = json.loads(run_cli("rank", str(path), "--json").stdout)
        assert report["rank"] == "1"

    def test_non_ascii_digit_label(self, tmp_path):
        path = tmp_path / "sup.hg"
        path.write_text("e1: ² 1\ne2: 1 2\n", encoding="utf-8")
        for command in ("rank", "units"):
            proc = run_cli(command, str(path), "--json")
            assert proc.returncode == 0, proc.stderr
        assert ["²"] in [unit["members"] for unit in json.loads(proc.stdout)["units"]]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("no colon here\n")
        proc = run_cli("rank", str(bad))
        assert proc.returncode == 2
        assert "error" in proc.stderr


class TestGenerate:
    def test_cycle_file(self, tmp_path):
        out = tmp_path / "c.hg"
        proc = run_cli("generate", "cycle", "8", "4", "-o", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "vertices: 0 1 2 3 4 5 6 7"
        assert len(lines) == 9

    def test_cycle_too_short(self):
        proc = run_cli("generate", "cycle", "3", "4")
        assert proc.returncode == 2

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        for out in (a, b):
            proc = run_cli(
                "generate", "random", "10", "6", "--max-size", "4", "--seed", "7",
                "-o", str(out),
            )
            assert proc.returncode == 0
        assert a.read_text() == b.read_text()

    def test_sparse_random_draw_returns(self, tmp_path):
        """Small edges among many vertices: a size is drawn first, so no
        draw waits for a rare small subset."""
        out = tmp_path / "sparse.hg"
        start = time.perf_counter()
        assert main(["generate", "random", "40", "10", "--max-size", "3", "--seed", "1",
                     "-o", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        h = parse_hypergraph_text(out.read_text())
        assert h.n_edges == 10 and all(1 <= len(e) <= 3 for e in h.edges)

    def test_negative_edge_count(self, capsys):
        """M < 0 is refused (exit 2), not read as an edgeless hypergraph;
        M = 0 is one."""
        assert main(["generate", "random", "5", "-3", "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidParameters"
        assert main(["generate", "random", "5", "0"]) == 0
        assert capsys.readouterr().out == "vertices: 1 2 3 4 5\n"

    @pytest.mark.parametrize(
        "params",
        [
            ["cycle", "8"],
            ["random", "5"],
            ["cycle", "a", "b"],
            ["cycle", "5", "1"],  # window size below 2
            ["random", "0", "1"],  # no vertices
            ["random", "5", "2", "--max-size", "0"],
            ["random", "3", "8"],  # more edges than the 7 non-empty subsets
        ],
        ids="-".join,
    )
    def test_bad_parameters_exit_two(self, params, capsys):
        assert main(["generate", *params, "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidParameters"

    def test_generated_file_round_trips(self, tmp_path):
        out = tmp_path / "r.hg"
        run_cli("generate", "random", "6", "4", "--seed", "3", "-o", str(out))
        proc = run_cli("rank", str(out))
        assert proc.returncode == 0


class TestLongLabel:
    def test_label_past_int_digit_limit(self, tmp_path):
        """A 5000-digit decimal label is ordered without int(), so no
        command escapes with a traceback."""
        path = tmp_path / "long.hg"
        path.write_text(f"vertices: {'1' * 5000} 2\ne1: 2\n")
        for command in (["rank"], ["units"], ["find", "--kind", "ratio_edge_partition"]):
            proc = run_cli(command[0], str(path), *command[1:], "--json")
            assert proc.returncode in (0, 2), proc.stderr
            assert "Traceback" not in proc.stderr


class TestUnitsContract:
    def test_units(self, unit_file):
        proc = run_cli("units", unit_file)
        assert proc.returncode == 0
        assert "6 units" in proc.stdout
        assert "{5,6,7}" in proc.stdout

    def test_units_json(self, unit_file):
        report = json.loads(run_cli("units", unit_file, "--json").stdout)
        assert report["count"] == 6
        members = [tuple(u["members"]) for u in report["units"]]
        assert ("5", "6", "7") in members
        by_members = {tuple(u["members"]): u["generator"] for u in report["units"]}
        assert by_members[("10",)] == ["e1", "e3", "e5"]

    def test_contract(self, unit_file):
        proc = run_cli("contract", unit_file)
        assert proc.returncode == 0
        assert "rank(B_H) = 5 = 5" in proc.stdout
        assert "nullity(B_H) = 6 = 1 + 5" in proc.stdout

    def test_contract_json(self, unit_file):
        report = json.loads(run_cli("contract", unit_file, "--json").stdout)
        assert report["rank"] == report["contraction_rank"] == "5"
        assert report["contraction_nullity"] == "1"
        assert report["units_deficiency"] == "5"
        assert report["failures"] == []

    def test_contract_joined_label_collision(self, tmp_path):
        # the unit {1, 2} joins to "1+2", the label of the singleton unit {1+2}
        path = tmp_path / "collide.json"
        path.write_text(json.dumps({"vertices": ["1", "2", "1+2"], "edges": {"e1": ["1", "2"], "e2": ["1+2"]}}))
        out = tmp_path / "contracted.hg"
        proc = run_cli("contract", str(path), "--json", "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["failures"] == []
        assert report["rank"] == report["contraction_rank"] == "2"
        assert report["nullity"] == "1" and report["contraction_nullity"] == "0"
        assert report["units"] == "2" and report["units_deficiency"] == "1"
        assert report["vertex_map"] == {"1": "1+2'", "2": "1+2'", "1+2": "1+2"}
        assert json.loads(run_cli("rank", str(out), "--json").stdout)["rank"] == "2"

    def test_contract_non_contractible_reports_isomorphism(self, tmp_path):
        path = tmp_path / "c63.hg"
        run_cli("generate", "cycle", "6", "3", "-o", str(path))
        report = json.loads(run_cli("contract", str(path), "--json").stdout)
        assert report["non_contractible_isomorphic"] is True

    def test_contract_builds_one_contraction(self, unit_file, tmp_path, monkeypatch, capsys):
        """``contract`` reports the contraction that ``nullity_decomposition``
        checked: one ``unit_contraction`` per call, with units and without."""
        cycle = tmp_path / "c13.hg"
        cycle.write_text(serialize_hypergraph_text(uniform_cycle(13, 2)))
        built = []

        def counted(h):
            built.append(h)
            return unit_contraction(h)

        monkeypatch.setattr(kernels, "unit_contraction", counted)
        monkeypatch.setattr(cli, "unit_contraction", counted)
        for path in (unit_file, str(cycle)):
            built.clear()
            assert main(["contract", path, "--json"]) == 0
            assert len(built) == 1 and json.loads(capsys.readouterr().out)["failures"] == []

    def test_contract_verdict_needs_no_isomorphism_search(self, tmp_path, monkeypatch, capsys):
        """The verdict comes from the equality ``nullity_decomposition``
        checked: reported up to 12 vertices, omitted above, never searched."""

        def refuse(*args):
            raise AssertionError("isomorphism search run")

        monkeypatch.setattr(cli, "are_isomorphic", refuse)
        for n, shown in ((12, True), (13, False)):
            path = tmp_path / f"c{n}.hg"
            path.write_text(serialize_hypergraph_text(uniform_cycle(n, 2)))
            assert main(["contract", str(path), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.get("non_contractible_isomorphic") is (True if shown else None)
            assert main(["contract", str(path)]) == 0
            text = capsys.readouterr().out
            assert ("isomorphic to contraction: yes" in text) is shown

    def test_contract_output_file_is_the_reported_contraction(self, unit_file, tmp_path, capsys):
        out = tmp_path / "contracted.hg"
        assert main(["contract", unit_file, "--json", "-o", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        written = parse_hypergraph_text(out.read_text())
        assert written == parse_hypergraph_json(report["contracted_file"])
        assert sorted(written.vertices) == sorted(set(report["vertex_map"].values()))

    def test_contract_batch_of_random_files(self, tmp_path):
        for seed in range(6):
            path = tmp_path / f"r{seed}.hg"
            run_cli(
                "generate", "random", "7", "5", "--max-size", "4",
                "--seed", str(seed), "-o", str(path),
            )
            report = json.loads(run_cli("contract", str(path), "--json").stdout)
            assert report["failures"] == []
            assert report["rank"] == report["contraction_rank"]
            assert int(report["nullity"]) == int(report["contraction_nullity"]) + int(
                report["units_deficiency"]
            )


class TestVerify:
    def test_valid_certificate(self, equal_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {
                    "kind": "equal_edge_partition",
                    "sets": {"U": ["1", "5"], "V": ["2", "3", "4"]},
                }
            )
        )
        proc = run_cli("verify", equal_file, "--certificate", str(cert))
        assert proc.returncode == 0
        assert "valid: yes" in proc.stdout

    def test_invalid_certificate_exit_one(self, equal_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["2"]}}
            )
        )
        proc = run_cli("verify", equal_file, "--certificate", str(cert))
        assert proc.returncode == 1
        assert "valid: NO" in proc.stdout

    def test_root_certificate_text_report(self, capsys):
        argv = ["verify", str(GOLDEN / "cycle_12_8.txt"),
                "--certificate", str(GOLDEN / "cycle_12_8.root_valid.cert.json")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  root order = 4, power = 1" in lines and "valid: yes" in lines

    @pytest.mark.parametrize("edges, valid", [("e1: 0 1\ne2: 0 1 2 3\n", True), ("e1: 0 1\ne2: 0 1 2\n", False)])
    def test_root_certificate_off_windows(self, tmp_path, edges, valid):
        """Edges of two lengths are not the windows of one length, so the
        counting side is False and the product alone decides: (-1)^i sums to
        zero on {0, 1} and {0, 1, 2, 3} (exit 0) but not on {0, 1, 2} (exit 1)."""
        path, cert = tmp_path / "h.txt", tmp_path / "root.json"
        path.write_text(edges)
        cert.write_text(json.dumps({"kind": "root_of_unity_cycle", "order": 2, "power": 1}))
        h = load_hypergraph(str(path))
        check = verify_certificate(h, root_of_unity_certificate(h, 2, 1))
        assert (check.valid, check.combinatorial) == (valid, False)
        assert main(["verify", str(path), "--certificate", str(cert)]) == (0 if valid else 1)

    def test_root_certificate_text_report_drops_zero_entries(self, tmp_path, capsys):
        """1 + zeta_2 = 0 on e1 = {0, 1}: the text lists only e2, while the
        JSON report keeps the zero as Cyc(0)."""
        path, cert = tmp_path / "h.txt", tmp_path / "root.json"
        path.write_text("vertices: 0 1 2 3\ne1: 0 1\ne2: 1 2 3\n")
        cert.write_text(json.dumps({"kind": "root_of_unity_cycle", "order": 2, "power": 1}))
        assert main(["verify", str(path), "--certificate", str(cert)]) == 1
        assert "non-zero residual entries: {'e2': 'Cyc(-1)'}" in capsys.readouterr().out.splitlines()
        assert main(["verify", str(path), "--certificate", str(cert), "--json"]) == 1
        residual = json.loads(capsys.readouterr().out)["certificate"]["residual"]
        assert residual == {"e1": "Cyc(0)", "e2": "Cyc(-1)"}

    def test_invalid_certificate_text_report_lists_the_residual(self, capsys):
        argv = ["verify", str(GOLDEN / "units_12x9.txt"),
                "--certificate", str(GOLDEN / "units_12x9.ratio_invalid.cert.json")]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "valid: NO" in lines
        residual = {"e1": "-1", "e2": "1", "e3": "-2", "e6": "-1", "e8": "1", "e9": "1"}
        assert f"non-zero residual entries: {residual}" in lines
        assert lines[-2:] == ["FAILURES:", "  - certificate is not in the kernel"]

    def test_overlapping_sets_error(self, equal_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {
                    "kind": "equal_edge_partition",
                    "sets": {"U": ["1", "2"], "V": ["2", "3"]},
                }
            )
        )
        proc = run_cli("verify", equal_file, "--certificate", str(cert))
        assert proc.returncode == 2

    def test_empty_general_combination_exit_two(self, equal_file):
        payload = json.dumps({"kind": "general_combination", "parts": []})
        proc = run_cli("verify", equal_file, "--certificate", "-", "--json", stdin=payload)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "EmptySubset"

    @pytest.mark.parametrize(
        "sets",
        [
            {"kind": "equal_edge_partition", "sets": {"U": ["1", "1"], "V": ["2"]}},
            {"kind": "equal_vertex_partition", "sets": {"E": ["e1", "e1"], "F": ["e2"]}},
        ],
    )
    def test_repeated_label_exit_two(self, tmp_path, sets):
        path = tmp_path / "two.hg"
        path.write_text("e1: 1 2 3\ne2: 1 2\n")
        proc = run_cli("verify", str(path), "--certificate", "-", "--json", stdin=json.dumps(sets))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "OverlappingSets"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "equal_edge_partition", "sets": {"U": "15", "V": ["2", "3", "4"]}},
            {"kind": "general_combination", "parts": [{"coefficient": "1"}]},
            {"kind": "general_combination", "parts": [[["1"]]]},
            {"kind": "equal_edge_partition", "sets": ["U"]},
            {"kind": "root_of_unity_cycle", "order": "x", "power": 1},
        ],
    )
    def test_malformed_certificate_exit_two(self, equal_file, payload):
        proc = run_cli(
            "verify", equal_file, "--certificate", "-", "--json", stdin=json.dumps(payload)
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "ParseError"
        assert "Traceback" not in proc.stderr

    def test_malformed_hypergraph_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": "abc", "edges": {"e1": ["a"]}}))
        proc = run_cli("rank", str(path), "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "ParseError"

    def test_certificate_from_stdin(self, equal_file):
        payload = json.dumps(
            {"kind": "unit_pair", "u": "1", "v": "5"}
        )
        proc = run_cli("verify", equal_file, "--certificate", "-", stdin=payload)
        assert proc.returncode == 0

    def test_large_root_order(self, tmp_path, capsys, monkeypatch):
        """A root of order 2000 on a 12-vertex cycle builds one term per power
        of zeta, not a degree-800 polynomial: the report says invalid (exit 1),
        and only residual entries are reduced modulo Phi_2000, never a single
        power."""
        cycle = tmp_path / "c12.hg"
        assert main(["generate", "cycle", "12", "8", "-o", str(cycle)]) == 0
        cert = tmp_path / "root.json"
        cert.write_text(json.dumps({"kind": "root_of_unity_cycle", "order": 2000, "power": 3}))
        remainder, dividends = cyclotomic._remainder, []

        def counting_remainder(terms, r):
            dividends.append(len(terms))
            return remainder(terms, r)

        monkeypatch.setattr(cyclotomic, "_remainder", counting_remainder)
        capsys.readouterr()
        code = main(["verify", str(cycle), "--certificate", str(cert), "--json"])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        report = json.loads(out)["certificate"]
        assert report["valid"] is False and len(report["residual"]) == 12
        assert 0 < len(dividends) <= 12 and min(dividends) >= 2

    @pytest.mark.parametrize(
        "order, power, expected, factored",
        [
            (15015, 7001, 2, True),  # the reduction would take about 4.8e7 steps
            (10**6, 3, 1, False),
            (10**12, 1, 1, False),
            (10**4000, 1, 1, False),
            (2**127 - 1, 2**127 - 2, 2, False),  # a list as long as the order
        ],
    )
    def test_root_orders_are_bounded(self, tmp_path, capsys, monkeypatch, order, power, expected, factored):
        """Every order and power exits 0, 1 or 2 with no traceback.  Bounded by
        counting calls, not by a clock: one remainder per residual entry (one
        in all when it is refused), and r is factored only when a top exponent
        reaches sqrt(r/2)."""
        cycle = tmp_path / "c12.hg"
        assert main(["generate", "cycle", "12", "8", "-o", str(cycle)]) == 0
        cert = tmp_path / "root.json"
        cert.write_text(json.dumps({"kind": "root_of_unity_cycle", "order": order, "power": power}))
        remainder, factor, calls = cyclotomic._remainder, cyclotomic._prime_factors, []
        monkeypatch.setattr(cyclotomic, "_remainder", lambda *a: calls.append("remainder") or remainder(*a))
        monkeypatch.setattr(cyclotomic, "_prime_factors", lambda r: calls.append("factor") or factor(r))
        capsys.readouterr()
        code = main(["verify", str(cycle), "--certificate", str(cert), "--json"])
        out, err = capsys.readouterr()
        assert code == expected and "Traceback" not in err
        if expected == 2:
            assert json.loads(out)["error"] == "InstanceTooLarge"
            assert calls.count("remainder") == 1
        else:
            assert json.loads(out)["certificate"]["valid"] is False
            assert 0 < calls.count("remainder") <= 12
        assert ("factor" in calls) == factored


class TestFind:
    def test_equal_partitions(self, equal_file):
        report = json.loads(
            run_cli("find", equal_file, "--kind", "equal_edge_partition", "--json").stdout
        )
        pairs = {
            (frozenset(c["sets"]["U"]), frozenset(c["sets"]["V"]))
            for c in report["certificates"]
        }
        assert (frozenset({"1", "5"}), frozenset({"2", "3", "4"})) in pairs
        assert report["failures"] == []

    @pytest.mark.parametrize("as_json", [False, True])
    def test_found_certificate_failing_verification_is_reported(self, equal_file, monkeypatch, capsys, as_json):
        """The first certificate found, forced to fail verification, fails the
        run with exit 1 and is named in the failures."""
        verify_certificates = cli.verify_certificates
        checked = []

        def first_fails(h, certs):
            checked.extend(certs)
            checks = verify_certificates(h, certs)
            return [replace(checks[0], valid=False)] + checks[1:]

        monkeypatch.setattr(cli, "verify_certificates", first_fails)
        assert main(["find", equal_file, "--kind", "equal_edge_partition"] + ["--json"] * as_json) == 1
        out = capsys.readouterr().out
        failure = f"found certificate failed verification: {checked[0]}"
        if as_json:
            report = json.loads(out)
            assert [c["valid"] for c in report["certificates"]] == [False] + [True] * (len(checked) - 1)
            assert report["failures"] == [failure]
        else:
            lines = out.splitlines()
            assert lines[1].endswith("  INVALID") and not lines[2].endswith("INVALID")
            assert lines[-2:] == ["FAILURES:", f"  - {failure}"]

    def test_k4_ratio_vertex_partition(self, k4_file):
        report = json.loads(
            run_cli("find", k4_file, "--kind", "ratio_vertex_partition", "--json").stdout
        )
        hits = [
            c
            for c in report["certificates"]
            if frozenset(c["sets"]["E"]) == frozenset({"e1", "e2"})
            and frozenset(c["sets"]["F"]) == frozenset({"e3", "e4", "e5", "e6"})
        ]
        assert len(hits) == 1
        assert hits[0]["ratio"] == "1/2"

    def test_bound_respected(self, tmp_path):
        """Eleven isolated vertices spread 4^11 ways, over the finder bound."""
        path = tmp_path / "big.hg"
        assert run_cli("generate", "random", "11", "0", "-o", str(path)).returncode == 0
        proc = run_cli("find", str(path), "--kind", "three_set_relation", "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "InstanceTooLarge"

    def test_large_unit_refused_before_any_check(self, tmp_path, capsys, monkeypatch):
        """A unit of 600 twins in 40 edges gives 179,700 pairs, each checked
        through 640 columns and 40 rows: over the output bound, so find exits
        2 before it checks a single certificate."""
        twins = " ".join(f"t{i}" for i in range(600))
        lines = [f"vertices: {twins} " + " ".join(f"p{i}" for i in range(40))]
        lines += [f"e{i}: {twins} p{i}" for i in range(40)]
        path = tmp_path / "twins.hg"
        path.write_text("\n".join(lines) + "\n")
        checked = []
        monkeypatch.setattr(cli, "verify_certificates", lambda *args, **kwargs: checked.append(args))
        assert main(["find", str(path), "--kind", "unit_pair", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "InstanceTooLarge" and "output bound" in report["message"]
        assert checked == []


class TestSpectra:
    def test_unit_weighting(self, unit_file):
        report = json.loads(run_cli("spectra", unit_file, "--json").stdout)
        assert report["weighting"] == "unit"
        assert [p["eigenvalue"] for p in report["eigenpairs"]] == ["-2", "-2", "-2", "-2"]
        assert sum(p["multiplicity_lower_bound"] for p in report["eigenpairs"]) == 5
        assert all(p["verified"] for p in report["eigenpairs"])

    def test_banerjee_weighting(self, unit_file):
        report = json.loads(
            run_cli("spectra", unit_file, "--weighting", "banerjee", "--json").stdout
        )
        values = [p["eigenvalue"] for p in report["eigenpairs"]]
        assert values == ["-1/2", "-5/6", "-5/12", "-7/12"]

    def test_weight_file(self, unit_file, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({f"e{i}": "1/3" for i in range(1, 6)}))
        report = json.loads(
            run_cli("spectra", unit_file, "--weighting", str(wfile), "--json").stdout
        )
        # every multi-vertex unit has a 2-edge generator of total weight 2/3
        assert {p["eigenvalue"] for p in report["eigenpairs"]} == {"-2/3"}

    def test_adjacency_matrix_output(self, unit_file):
        report = json.loads(run_cli("spectra", unit_file, "--matrix", "--json").stdout)
        assert report["adjacency"]["rows"][0][1] == "2"

    def test_banerjee_singleton_edge_error(self, tmp_path):
        path = tmp_path / "s.hg"
        path.write_text("e1: 1\ne2: 1 2\n")
        proc = run_cli("spectra", str(path), "--weighting", "banerjee")
        assert proc.returncode == 2

    def test_text_report_without_multi_vertex_units(self, tmp_path, capsys):
        path = tmp_path / "p.hg"
        path.write_text("e1: 1 2\ne2: 2 3\n")
        assert main(["spectra", str(path)]) == 0
        assert "no multi-vertex units: no predicted eigenpairs" in capsys.readouterr().out


class TestUnreadableInput:
    """A file that cannot be read, decoded or written exits 2 with an error
    report, never with a traceback."""

    @staticmethod
    def assert_error_report(proc, error):
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert set(report) == {"error", "message"}
        assert report["error"] == error
        assert "Traceback" not in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli("rank", str(tmp_path / "missing.txt"), "--json")
        self.assert_error_report(proc, "FileAccessError")

    def test_directory(self, tmp_path):
        proc = run_cli("rank", str(tmp_path), "--json")
        self.assert_error_report(proc, "FileAccessError")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.hg"
        path.write_bytes("e1: caf\xe9 1\n".encode("latin-1"))
        proc = run_cli("rank", str(path), "--json")
        self.assert_error_report(proc, "FileAccessError")

    def test_truncated_certificate_on_stdin(self, equal_file):
        payload = json.dumps({"kind": "unit_pair", "u": "1", "v": "5"})[:-5]
        proc = run_cli("verify", equal_file, "--certificate", "-", "--json", stdin=payload)
        self.assert_error_report(proc, "ParseError")

    def test_missing_certificate_and_weight_files(self, equal_file, tmp_path):
        missing = str(tmp_path / "missing.json")
        proc = run_cli("verify", equal_file, "--certificate", missing, "--json")
        self.assert_error_report(proc, "FileAccessError")
        proc = run_cli("spectra", equal_file, "--weighting", missing, "--json")
        self.assert_error_report(proc, "FileAccessError")

    def test_unwritable_output(self, equal_file, tmp_path):
        out = str(tmp_path / "no_such_dir" / "out.hg")
        proc = run_cli("generate", "cycle", "5", "2", "-o", out, "--json")
        self.assert_error_report(proc, "FileAccessError")
        proc = run_cli("contract", equal_file, "-o", out, "--json")
        self.assert_error_report(proc, "FileAccessError")


class TestMalformedNumbers:
    """Numbers the JSON or fraction readers cannot take exit 2 with an error
    report: integers past Python's int() digit limit, and fraction strings
    with an exponent (``Fraction("1e-10000000")`` alone takes seconds)."""

    LONG = "1" * 5000

    @staticmethod
    def assert_error(proc, error, message):
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["error"] == error
        assert report["message"].startswith(message)
        assert "Traceback" not in proc.stderr

    def test_long_integer_in_hypergraph_json(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"vertices": ["1", %s], "edges": {"e1": ["1"]}}' % self.LONG)
        proc = run_cli("rank", str(path), "--json")
        self.assert_error(proc, "ParseError", "bad JSON: Exceeds the limit")

    def test_long_integer_in_certificate_order(self, equal_file):
        payload = '{"kind": "root_of_unity_cycle", "order": %s, "power": 1}' % self.LONG
        proc = run_cli("verify", equal_file, "--certificate", "-", "--json", stdin=payload)
        self.assert_error(proc, "ParseError", "bad certificate JSON: Exceeds the limit")

    def test_long_integer_in_weight_file(self, equal_file, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"e1": %s, "e2": 1, "e3": 1}' % self.LONG)
        proc = run_cli("spectra", equal_file, "--weighting", str(path), "--json")
        self.assert_error(proc, "BadWeightFile", "bad JSON: Exceeds the limit")

    def test_malformed_json_messages_keep_their_line(self, tmp_path, equal_file):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["1"]\n "edges": {}}')
        proc = run_cli("rank", str(path), "--json")
        self.assert_error(proc, "ParseError", "line 2: bad JSON: Expecting ',' delimiter")
        proc = run_cli("spectra", equal_file, "--weighting", str(path), "--json")
        self.assert_error(proc, "BadWeightFile", "bad JSON: Expecting ',' delimiter")

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "ratio_edge_partition", "sets": {"U": ["2"], "V": ["4"]}, "ratio": "1e-1000000"},
            {"kind": "general_combination", "parts": [[["2"], "1"], [["4"], "-1e-1000000"]]},
        ],
    )
    def test_exponent_in_certificate_fraction(self, equal_file, payload):
        proc = run_cli(
            "verify", equal_file, "--certificate", "-", "--json", stdin=json.dumps(payload)
        )
        self.assert_error(proc, "ParseError", "bad fraction")

    @pytest.mark.parametrize("ratio", [0.5, 1e15, 1e16])
    def test_json_float_in_certificate(self, equal_file, ratio):
        """A JSON float is refused as in a weight file, however it prints."""
        payload = {"kind": "ratio_edge_partition", "sets": {"U": ["2"], "V": ["4"]}, "ratio": ratio}
        proc = run_cli(
            "verify", equal_file, "--certificate", "-", "--json", stdin=json.dumps(payload)
        )
        self.assert_error(proc, "ParseError", f"bad fraction {ratio!r}: {ratio!r} is a float")

    def test_exponent_in_weight_file(self, equal_file, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"e1": "1e-1000000", "e2": "1", "e3": "1"}))
        proc = run_cli("spectra", equal_file, "--weighting", str(path), "--json")
        self.assert_error(proc, "BadWeightFile", "weight for 'e1': bad fraction")


class TestParserReuse:
    """The parser is built once per process; a second call in the same
    process must not inherit the options of the first."""

    def test_second_call_keeps_defaults(self, equal_file, unit_file, capsys):
        argv = ["find", equal_file, "--kind", "equal_edge_partition", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count"] > 0

        assert main(["spectra", unit_file, "--matrix", "--json"]) == 0
        assert "adjacency" in json.loads(capsys.readouterr().out)
        assert main(["spectra", unit_file, "--json"]) == 0
        assert "adjacency" not in json.loads(capsys.readouterr().out)


class TestSubcommandWiring:
    """Each subcommand is declared once, with its handler and its renderer;
    a text report must end with the exit code of the JSON one."""

    # the arguments after the file, per subcommand that reads one
    EXTRA = {
        "rank": [],
        "units": [],
        "contract": [],
        "verify": ["--certificate", str(GOLDEN / "units_12x9.ratio_invalid.cert.json")],
        "find": ["--kind", "equal_edge_partition"],
        "spectra": ["--matrix"],
    }

    def test_text_and_json_exit_alike(self, capsys):
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        takes_file = {
            name for name, parser in subparsers.choices.items()
            if any(action.dest == "file" for action in parser._actions)
        }
        assert takes_file == set(self.EXTRA)
        for name, extra in self.EXTRA.items():
            argv = [name, str(GOLDEN / "units_12x9.txt"), *extra]
            json_code = main([*argv, "--json"])
            json.loads(capsys.readouterr().out)
            assert main(argv) == json_code, name
            assert capsys.readouterr().out
