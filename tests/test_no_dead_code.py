"""Every top-level function, class, constant and method in src/polygraph
is used, and every imported name is used where it is imported.

A definition counts as used when some file under src/, tests/, bench/ or
scripts/ refers to it outside its own definition: as a name, an
attribute, an imported name, or a part of a dotted string such as the
bench tracer's "kgraph.normal_form".  Methods are the non-dunder
functions in the body of a top-level class.  A name bound by
`from ... import` must be loaded in its file, apart from `__future__`
features and the re-exports of an `__init__.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/polygraph/*.py"))
FILES = sorted(p for d in ("src", "tests", "bench", "scripts")
               for p in (ROOT / d).rglob("*.py"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, first line, last line) of each top-level definition and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every name a file refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def test_every_top_level_name_is_referenced():
    uses: dict = {}
    for path in FILES:
        for name, line in _references(ast.parse(path.read_text())):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path in SOURCES:
        for name, first, last in _definitions(ast.parse(path.read_text())):
            if all(where == path and first <= line <= last
                   for where, line in uses.get(name.rpartition(".")[2], [])):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"defined but never referenced: {unused}"


def test_every_imported_name_is_loaded():
    stale = []
    for path in FILES:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    and path.name != "__init__.py"):
                stale += [f"{path.relative_to(ROOT)}: {alias.asname or alias.name}"
                          for alias in node.names if (alias.asname or alias.name) not in loaded]
    assert not stale, f"imported but never used: {stale}"
