"""The runtime package is pure Python with no dependencies: every module of
``hyperinc`` imports only the package itself and the standard library, even
though the tests may use ``sympy``, ``hypothesis`` or ``networkx``.  Its
start-up stays light: the CLI loads no ``dataclasses``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hyperinc
from conftest import SRC

PACKAGE = Path(hyperinc.__file__).resolve().parent


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
