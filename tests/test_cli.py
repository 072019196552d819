"""End-to-end CLI tests, run through the installed entry point."""

import json
import subprocess
import sys

import pytest

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

    def test_json_report(self, unit_file):
        proc = run_cli("rank", unit_file, "--json")
        report = json.loads(proc.stdout)
        assert report["rank"] == "5"
        assert report["nullity"] == "6"
        assert len(report["kernel_basis"]) == 6
        assert report["failures"] == []

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

    def test_generated_file_round_trips(self, tmp_path):
        out = tmp_path / "r.hg"
        run_cli("generate", "random", "6", "4", "--seed", "3", "-o", str(out))
        proc = run_cli("rank", str(out))
        assert proc.returncode == 0


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

    def test_contract_non_contractible_reports_isomorphism(self, tmp_path):
        path = tmp_path / "c63.hg"
        run_cli("generate", "cycle", "6", "3", "-o", str(path))
        report = json.loads(run_cli("contract", str(path), "--json").stdout)
        assert report["non_contractible_isomorphic"] is True

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

    def test_certificate_from_stdin(self, equal_file):
        payload = json.dumps(
            {"kind": "unit_pair", "u": "1", "v": "5"}
        )
        proc = run_cli("verify", equal_file, "--certificate", "-", stdin=payload)
        assert proc.returncode == 0


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
        path = tmp_path / "big.hg"
        run_cli("generate", "cycle", "13", "2", "-o", str(path))
        proc = run_cli("find", str(path), "--kind", "equal_edge_partition")
        assert proc.returncode == 2


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
