"""Static checks on the package source: every imported name is used,
and every definition is referenced."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcgc"


def _unused_imports(source):
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom re import sub, split\n"
              "from math import *\n__all__ = ['split']\nos.getcwd()\n")
    assert _unused_imports(source) == ["osp", "sub"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced(definers, readers):
    """Functions, classes and methods defined in the sources of
    ``definers`` (name: text) that no ``ast.Name`` or ``ast.Attribute``
    of ``definers`` or ``readers`` reads, as "name:def".  Dunder methods
    are exempt; a read inside the definition itself, or in an
    ``__init__.py``, does not count."""
    reads = {}  # name: [(source name, line)]
    trees = {name: ast.parse(text) for name, text in {**readers, **definers}.items()}
    for source, tree in trees.items():
        if Path(source).name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                read = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(read, []).append((source, node.lineno))
    found = []
    for source in definers:
        for node in ast.walk(trees[source]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(where != source
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in reads.get(name, ())):
                found.append(f"{Path(source).name}:{name}")
    return found


def test_unreferenced_definitions_are_found():
    definers = {"m.py": ("def unused():\n    return unused()\n"
                         "def helper():\n    pass\n"
                         "class Box:\n    def __len__(self):\n        return 0\n"
                         "    def size(self):\n        return helper()\n"
                         "    def spare(self):\n        pass\n"
                         "exported = None\n"),
                "__init__.py": "from . import m\nm.Box.spare\n"}
    readers = {"t.py": "import m\nm.Box().size()\nm.exported\n"}
    assert _unreferenced(definers, readers) == ["m.py:unused", "m.py:spare"]


def test_no_unreferenced_definitions():
    def sources(paths):
        return {str(p): p.read_text() for p in paths}

    readers = sources([*(ROOT / "tests").rglob("*.py"),
                       *(ROOT / "bench").rglob("*.py")])
    assert _unreferenced(sources(PACKAGE.glob("*.py")), readers) == []
