"""The runtime package is pure Python with no dependencies: every module of
``hyperinc`` imports only the package itself and the standard library, even
though the tests may use ``sympy``, ``hypothesis`` or ``networkx``."""

import ast
import sys
from pathlib import Path

import hyperinc

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
