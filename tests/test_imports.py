"""Every name a module of the package imports is used in that module (the
package's ``__init__.py`` imports names only to re-export them, so it is
left out), every module-level private name (``_x``) is referenced
somewhere in the package, so no helper outlives its last caller, and no
module imports a thread or process pool."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectrune"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom x import (a, b)\nnp.zeros(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def private_names(source: str) -> dict[str, int]:
    """Module-level private names (not dunders) a module defines, with their lines."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    used: set[str] = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, source in sources.items()
        for name, line in private_names(source).items()
        if name not in used
    ]


def test_unreferenced_private_names_are_found():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\ndef _g():\n    pass\n",
        "b.py": "import a\nfrom a import _g\n_g()\n_C = a._D\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py line 2: _B", "a.py line 4: _f", "b.py line 4: _C",
    ]


def test_every_private_name_is_referenced():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


POOL_MODULES = ("concurrent.futures", "multiprocessing")


def pool_imports(source: str) -> list[int]:
    """Lines that import a pool module or anything inside one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == m or n.startswith(m + ".") for n in names for m in POOL_MODULES):
            lines.append(node.lineno)
    return lines


def test_pool_imports_are_found():
    source = (
        "import os\nfrom concurrent import futures\nimport multiprocessing.pool as mp\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom threading import get_ident\n"
    )
    assert pool_imports(source) == [2, 3, 4]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_pool(module):
    # BLAS threads every gemm and eigh; a Python pool on top only costs
    # memory, and a second code path
    assert pool_imports(module.read_text(encoding="utf-8")) == []
