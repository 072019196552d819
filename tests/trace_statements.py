"""List the statements of ``src/hyperinc`` that the test suite, or the
benchmark's workloads, never execute.

``coverage`` is not a dependency, so this runs pytest in this process under a
``sys.settrace`` line trace and prints each statement of the package that no
test reached, as ``path:line: source``, then their count.  Arguments go to
pytest; with none, the whole suite under ``tests/`` runs:

    python tests/trace_statements.py
    python tests/trace_statements.py tests/test_kernels.py

With ``--workloads SEED...`` it runs no test: for each seed it builds the pool
of every workload with ``build_pool`` of ``bench/workloads.py`` in a temporary
directory, runs each call of the pool once through ``hyperinc.cli.main`` in
this process, standard output and error swallowed, and lists the statements
that no call reached.  Nothing under ``bench/`` is changed:

    python tests/trace_statements.py --workloads 38001 38002

Only this process is traced, so a statement reached only by a child process
(the CLI tests that start ``python -m hyperinc``) is listed too.  A statement
counts as executed when any line of it ran; for a compound statement (``if``,
``for``, ``def`` and the like) that is a line of its header.  Docstrings and
``global`` or ``nonlocal`` declarations are not statements here.  pytest does
not collect this file.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from collections import Counter
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


def run_workloads(seeds: list[str]) -> Counter:
    """Every call of every workload's pool, once per seed, through the CLI's
    ``main`` in this process; returns the count of calls per exit code."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS, build_pool

    from hyperinc.cli import main as cli_main

    codes, home = Counter(), Path.cwd()
    for seed in seeds:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                ops = build_pool(workload, int(seed), Path(workdir))
                os.chdir(workdir)  # the calls name their inputs relative to it
                try:
                    for op in ops:
                        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                            try:
                                codes[cli_main(op.argv)] += 1
                            except SystemExit as exc:
                                codes[exc.code] += 1
                finally:
                    os.chdir(home)
    return codes


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
        if args[:1] == ["--workloads"]:
            codes = run_workloads(args[1:])
            outcome = "workload calls by exit code: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items(), key=str))
        else:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *(args or [str(ROOT / "tests")])])
            outcome = f"pytest exit status {int(status)}"
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
    print(f"{missed} statements never executed ({outcome})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
