"""No orphans in the package: a private helper that nothing references, or an
import its module never uses, is code a change left behind.

Two rules over the AST of every module of ``hyperinc``:
- every module-level private name (one leading underscore, not a dunder) is
  referenced somewhere in the package, by name, as an attribute, or imported;
- every imported name is used in its module, re-exported by ``__init__`` from
  that module, or carries the tracer-only mark of ``test_bench_hooks``.
"""

import ast
import importlib.util
from pathlib import Path

from test_bench_hooks import TRACER_ONLY

PACKAGE = Path(importlib.util.find_spec("hyperinc").origin).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def referenced(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def defined(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_every_private_name_is_referenced():
    used = set().union(*map(referenced, TREES.values()))
    orphans = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for name in sorted(defined(tree))
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert orphans == []


def test_every_import_is_used_re_exported_or_marked():
    re_exported = {
        (node.module, alias.asname or alias.name)
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":  # its imports are the re-exports
            continue
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines()
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name in loaded or (module, name) in re_exported:
                    continue
                if TRACER_ONLY.search(source[alias.lineno - 1]):
                    continue
                unused.append(f"{module}: {name}")
    assert unused == []
