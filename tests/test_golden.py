"""Golden corpus: the JSON reports of the instances and certificates in
``tests/golden/`` must stay byte-identical, with the same exit code.

Every instance ``<name>.txt`` is run through ``rank``, ``contract``,
``units``, ``spectra --matrix`` with the unit and Banerjee weightings, and
``find`` of every enumerable kind (a search whose counted work passes the
finder bound would freeze the exit-2 error report).  Every certificate
``<name>.<tag>.cert.json`` is run through ``verify`` against ``<name>.txt``.
The expected report of each run is ``<name>.<tag>.json``; the exit codes are
in ``exit_codes.json``.  To recapture them, only when a report change is
intended (it prints each report whose bytes or exit code moved, then the
count of unchanged ones):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hyperinc.cli import main
from hyperinc.formats import certificate_from_json, certificate_to_json, load_certificate, load_hypergraph
from hyperinc.kernels import ALL_KINDS, GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = sorted(p.name for p in GOLDEN.glob("*.txt"))
CERTIFICATES = sorted(p.name for p in GOLDEN.glob("*.cert.json"))
EXIT_CODES = GOLDEN / "exit_codes.json"

# report tag -> subcommand and flags, run on every instance
COMMANDS = {
    "rank": ["rank"],
    "contract": ["contract"],
    "units": ["units"],
    "spectra_unit": ["spectra", "--weighting", "unit", "--matrix"],
    "spectra_banerjee": ["spectra", "--weighting", "banerjee", "--matrix"],
    **{
        f"find_{kind}": ["find", "--kind", kind]
        for kind in sorted(ALL_KINDS - {GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})
    },
}


def instance_argv(command: str, instance: str) -> list[str]:
    name, *flags = COMMANDS[command]
    return [name, instance, *flags, "--json"]


def verify_argv(certificate: str) -> list[str]:
    instance = certificate.split(".")[0] + ".txt"
    return ["verify", instance, "--certificate", certificate, "--json"]


def all_reports() -> dict[str, list[str]]:
    """Expected report file name -> CLI argv, for the whole corpus."""
    reports = {
        f"{Path(instance).stem}.{command}.json": instance_argv(command, instance)
        for instance in INSTANCES
        for command in COMMANDS
    }
    for certificate in CERTIFICATES:
        reports[certificate.removesuffix(".cert.json") + ".verify.json"] = verify_argv(certificate)
    return reports


def run_report(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, run from the corpus directory so
    the report's ``file`` field is the bare instance name."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def check_report(report: str, argv: list[str]) -> None:
    code, out = run_report(argv)
    expected_code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[report]
    assert (code, out) == (expected_code, (GOLDEN / report).read_text(encoding="utf-8"))


def test_corpus_is_present():
    assert len(INSTANCES) >= 6 and len(CERTIFICATES) >= 3
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    reports = all_reports()
    assert set(codes) == set(reports)
    assert {0, 1, 2} <= set(codes.values())
    for report in reports:
        assert (GOLDEN / report).is_file()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_report_is_byte_identical(command, instance):
    check_report(f"{Path(instance).stem}.{command}.json", instance_argv(command, instance))


@pytest.mark.parametrize("certificate", CERTIFICATES)
def test_verify_report_is_byte_identical(certificate):
    report = certificate.removesuffix(".cert.json") + ".verify.json"
    check_report(report, verify_argv(certificate))


@pytest.mark.parametrize("certificate", CERTIFICATES)
def test_verified_certificate_loads_back_as_verified(certificate):
    """The certificate ``verify --json`` reports loads back to the certificate
    it verified, for every kind a golden file holds."""
    h = load_hypergraph(str(GOLDEN / (certificate.split(".")[0] + ".txt")))
    verified = load_certificate(h, str(GOLDEN / certificate))
    code, out = run_report(verify_argv(certificate))
    assert code in (0, 1)
    assert certificate_from_json(h, json.loads(out)["certificate"]) == verified


def test_reported_certificates_load_as_reported():
    """Every certificate file loads, and every certificate a find or verify
    report holds loads as the certificate it reports."""
    for certificate in CERTIFICATES:
        h = load_hypergraph(str(GOLDEN / (certificate.split(".")[0] + ".txt")))
        load_certificate(h, str(GOLDEN / certificate))
    loaded = 0
    for path in sorted(GOLDEN.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(report, dict) or report.get("command") not in ("find", "verify"):
            continue
        h = load_hypergraph(str(GOLDEN / report["file"]))
        for data in report.get("certificates", [report.get("certificate")]):
            built = certificate_to_json(certificate_from_json(h, data))
            assert built == {key: data[key] for key in built}
            loaded += 1
    assert loaded > 1000


if __name__ == "__main__":
    old_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    codes, unchanged = {}, 0
    for report, argv in all_reports().items():
        codes[report], out = run_report(argv)
        path = GOLDEN / report
        if path.is_file() and path.read_text(encoding="utf-8") == out and old_codes.get(report) == codes[report]:
            unchanged += 1
            continue
        path.write_text(out, encoding="utf-8")
        print(f"changed {report}: exit {old_codes.get(report, 'none')} -> {codes[report]}")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{unchanged} reports unchanged")
