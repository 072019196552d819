"""Golden corpus: the ``rank --json`` and ``contract --json`` reports of the
instances in ``tests/golden/`` must stay byte-identical.

The expected reports were captured from the ``Fraction`` RREF implementation
that preceded the fraction-free elimination core.  To recapture them, only
when a report change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from hyperinc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = sorted(p.name for p in GOLDEN.glob("*.txt"))
COMMANDS = ("rank", "contract")


def run_report(command: str, instance: str) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, run from the corpus directory so
    the report's ``file`` field is the bare instance name."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main([command, instance, "--json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def expected_path(command: str, instance: str) -> Path:
    return GOLDEN / f"{Path(instance).stem}.{command}.json"


def test_corpus_is_present():
    assert len(INSTANCES) >= 6
    for instance in INSTANCES:
        for command in COMMANDS:
            assert expected_path(command, instance).is_file()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_report_is_byte_identical(command, instance):
    code, report = run_report(command, instance)
    assert code == 0
    assert report == expected_path(command, instance).read_text(encoding="utf-8")


if __name__ == "__main__":
    for instance in INSTANCES:
        for command in COMMANDS:
            code, report = run_report(command, instance)
            if code != 0:
                raise SystemExit(f"{command} {instance} exited {code}")
            expected_path(command, instance).write_text(report, encoding="utf-8")
            print(f"captured {expected_path(command, instance).name}")
