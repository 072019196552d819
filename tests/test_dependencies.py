"""The runtime package is pure Python with no dependencies: every module of
``hyperinc`` imports only the package itself and the standard library, even
though the tests may use ``sympy``, ``hypothesis`` or ``networkx``.  Its
start-up stays light: the CLI loads no ``dataclasses``, and each command
loads only the modules it calls."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperinc
from conftest import SRC
from hyperinc.kernels import SET_KINDS

PACKAGE = Path(hyperinc.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CYCLE = str(GOLDEN / "cycle_12_8.txt")


def imported_modules(path: Path):
    """(top-level name, line) for every absolute import in one module; a
    relative import is the package itself and yields nothing."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for name, line in imported_modules(path)
        if name != "hyperinc" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("import os\nfrom . import cli\nfrom sympy import Poly\nimport numpy.linalg\n")
    assert list(imported_modules(path)) == [("os", 1), ("sympy", 3), ("numpy", 4)]


def test_importing_the_cli_loads_no_dataclasses():
    """``dataclasses`` and the modules it pulls in cost about a fifth of a
    process's set-up; the package's records are built on ``Record`` instead."""
    code = "import sys, hyperinc.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "hyperinc.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def modules_after(argv: list[str]) -> set[str]:
    """The modules a fresh ``python -S`` holds after ``hyperinc.cli.main(argv)``,
    with ``PYTHONPATH`` at ``src``; the command's output is discarded."""
    code = (
        "import io, sys, hyperinc.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = hyperinc.cli.main(sys.argv[1:])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, *sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, *loaded = proc.stdout.split()
    assert code == "0", (argv, proc.stdout, proc.stderr)
    return set(loaded)


DEFERRED = {"hyperinc.spectra", "hyperinc.cyclotomic", "hyperinc.generators", "typing"}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rank", CYCLE], id="rank"),
        pytest.param(["contract", CYCLE, "--json"], id="contract"),
        pytest.param(["units", CYCLE], id="units"),
        pytest.param(
            ["verify", CYCLE, "--certificate", str(GOLDEN / "cycle_12_8.edge_ratio_valid.cert.json")],
            id="verify-set",
        ),
        *(pytest.param(["find", CYCLE, "--kind", kind], id=f"find-{kind}") for kind in sorted(SET_KINDS)),
    ],
)
def test_commands_without_spectra_or_roots_load_neither(argv):
    """rank, contract, units, find and a set certificate's verify compile
    neither spectra, cyclotomic nor generators, and nothing loads typing."""
    loaded = modules_after(argv)
    assert "hyperinc.kernels" in loaded
    assert loaded & DEFERRED == set()


@pytest.mark.parametrize(
    "argv, module",
    [
        (["spectra", CYCLE, "--weighting", "banerjee"], "hyperinc.spectra"),
        (["verify", CYCLE, "--certificate", str(GOLDEN / "cycle_12_8.root_valid.cert.json")],
         "hyperinc.cyclotomic"),
        (["generate", "random", "6", "5", "--seed", "3"], "hyperinc.generators"),
    ],
    ids=["spectra", "verify-root", "generate-random"],
)
def test_a_command_loads_the_module_it_calls(argv, module):
    loaded = modules_after(argv)
    assert module in loaded
    assert loaded & DEFERRED == {module}
