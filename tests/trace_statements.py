"""List the statements of ``src/hyperinc`` that the test suite never executes.

``coverage`` is not a dependency, so this runs pytest in this process under a
``sys.settrace`` line trace and prints each statement of the package that no
test reached, as ``path:line: source``, then their count.  Arguments go to
pytest; with none, the whole suite under ``tests/`` runs:

    python tests/trace_statements.py
    python tests/trace_statements.py tests/test_kernels.py

Only this process is traced, so a statement reached only by a child process
(the CLI tests that start ``python -m hyperinc``) is listed too.  A statement
counts as executed when any line of it ran; for a compound statement (``if``,
``for``, ``def`` and the like) that is a line of its header.  Docstrings and
``global`` or ``nonlocal`` declarations are not statements here.  pytest does
not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperinc"


def statement_spans(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement in ``path``, in line order."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue  # a declaration, with no code to run
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def main(args: list[str]) -> int:
    package = str(PACKAGE)
    executed: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        # trace lines only in the package's frames, so the rest runs at full speed
        return lines if frame.f_code.co_filename.startswith(package) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = {line for name, line in executed if name == str(path)}
        for first, last in statement_spans(path):
            if not ran.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements never executed (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
