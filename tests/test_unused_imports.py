"""Every import in ``src/repro``, ``tests``, ``benchmarks`` and
``examples`` binds a name its module reads.

An unused import still loads (and on a cold start compiles) its module,
and it misleads a reader about what the module depends on.  A binding is
*read* when its name appears as a name anywhere in its module's code:
annotations, quoted annotations and ``__all__`` included.

Skipped, because they bind on purpose without reading:

* package ``__init__`` modules, whose imports are re-exports;
* ``from __future__`` imports;
* ``import x as x`` / ``from m import x as x``, the explicit re-export;
* lines marked ``noqa: F401``.
"""

import ast
import pathlib

import pytest

import repro

SOURCE = pathlib.Path(repro.__file__).parent
REPO = SOURCE.parent.parent

#: Every tree the guard scans.
ROOTS = (SOURCE, REPO / "tests", REPO / "benchmarks", REPO / "examples")


def _quoted_names(node):
    """Names inside a string annotation such as ``"ContactIntervals"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {
            child.id for child in ast.walk(parsed) if isinstance(child, ast.Name)
        }
    return set()


def _read_names(tree):
    """Every name the module's code reads, ``__all__`` entries included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            for part in ast.walk(node.annotation):
                names |= _quoted_names(part)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            for part in ast.walk(node.returns):
                names |= _quoted_names(part)
        elif isinstance(node, ast.AnnAssign):
            for part in ast.walk(node.annotation):
                names |= _quoted_names(part)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.add(element.value)
    return names


def _bindings(tree, lines):
    """(line, bound name) of every import binding the guard checks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.asname is not None and alias.asname == alias.name:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield node.lineno, bound


def unused_imports(source_root=SOURCE):
    """``path:line: name`` of every unread import binding under a source
    tree (package ``__init__`` modules skipped)."""
    found = []
    for path in sorted(source_root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        read = _read_names(tree)
        lines = text.splitlines()
        for lineno, bound in _bindings(tree, lines):
            if bound not in read:
                found.append(f"{path.relative_to(source_root.parent)}:{lineno}: {bound}")
    return found


ROOT_IDS = [root.relative_to(REPO).as_posix() for root in ROOTS]


@pytest.mark.parametrize("root", ROOTS, ids=ROOT_IDS)
def test_every_import_is_read(root):
    unused = unused_imports(root)
    assert unused == [], "unused imports (delete them):\n" + "\n".join(unused)


@pytest.mark.parametrize("root", ROOTS, ids=ROOT_IDS)
def test_every_root_holds_modules(root):
    """A moved or renamed tree must not leave the guard scanning nothing."""
    assert len(list(root.rglob("*.py"))) > 1


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\n", ["os"]),
        ("from typing import List, Tuple\nx: List[int] = []\n", ["Tuple"]),
        ("import numpy as np\n", ["np"]),
        ("from __future__ import annotations\n", []),
        ("from m import x as x\n", []),
        ("import os  # noqa: F401\n", []),
        ("import os\nos.getcwd()\n", []),
        ("from m import C\ndef f(c: 'C') -> None: pass\n", []),
        ("from m import C\ndef f() -> 'C': pass\n", []),
        ("from m import C\n__all__ = ['C']\n", []),
        ("def f():\n    import os\n", ["os"]),
    ],
)
def test_guard_flags_only_unread_bindings(tmp_path, source, expected):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("import os\n")
    (package / "module.py").write_text(source)
    assert [entry.rsplit(": ", 1)[1] for entry in unused_imports(package)] == expected
