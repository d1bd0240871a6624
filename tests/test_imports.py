"""Every name a module of the package imports is used in that module (the
package's ``__init__.py`` is left out: besides ``os``, which it uses to set
the BLAS idle policy, it imports names only to re-export them), every
module-level private name (``_x``) is referenced
somewhere in the package, so no helper outlives its last caller, no
module imports a thread or process pool, only ``npy.py`` turns an
``OSError`` into an error (``cli.main`` maps what escapes to exit 2),
only ``npy.py`` and ``store.py`` name ``NpyReader``, so every embedding row
is read through ``store.EmbeddingDump`` and its checks, only
``EmbeddingDump``'s own methods touch its ``_reader``, so ``take`` stays the
one wrapper of freshly read rows, only ``npy.py`` reaches
``numpy.lib.format``, so the file format is decided in one module, and
only ``spectral.py`` and ``subspaces.py`` name ``count_noise``, so a
cutoff becomes a noise count in one place: ``noise_subspace``."""

from __future__ import annotations

import ast
import builtins
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


def module_imports(source: str, modules: tuple[str, ...]) -> list[int]:
    """Lines that import one of ``modules`` or anything inside one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == m or n.startswith(m + ".") for n in names for m in modules):
            lines.append(node.lineno)
    return lines


def test_pool_imports_are_found():
    source = (
        "import os\nfrom concurrent import futures\nimport multiprocessing.pool as mp\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom threading import get_ident\n"
    )
    assert module_imports(source, POOL_MODULES) == [2, 3, 4]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_pool(module):
    # BLAS threads every gemm and eigh; a Python pool on top only costs
    # memory, and a second code path
    assert module_imports(module.read_text(encoding="utf-8"), POOL_MODULES) == []


def catches_oserror(node: ast.expr | None) -> bool:
    """Whether an ``except`` clause or ``suppress`` argument of this type
    catches an OSError: OSError, a subclass or a base of it, or a bare
    ``except``."""
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(catches_oserror(elt) for elt in node.elts)
    cls = getattr(builtins, node.id, None) if isinstance(node, ast.Name) else None
    return isinstance(cls, type) and (issubclass(cls, OSError) or issubclass(OSError, cls))


def oserror_catches(source: str) -> list[tuple[str, int]]:
    """``(function, line)`` of each ``except`` clause and ``suppress(...)``
    call that catches an OSError; ``function`` is the innermost enclosing
    function, or ``<module>``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and catches_oserror(child.type):
                found.append((function, child.lineno))
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name == "suppress" and any(catches_oserror(arg) for arg in child.args):
                    found.append((function, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source), "<module>")
    return found


def test_oserror_catches_are_found():
    source = (
        "import contextlib\n"
        "def f():\n"
        "    try:\n        pass\n"
        "    except (ValueError, OSError):\n        pass\n"  # line 5
        "    except KeyError:\n        pass\n"
        "    def g():\n"
        "        with contextlib.suppress(FileNotFoundError):\n            pass\n"  # line 10
        "    with suppress(KeyError):\n        pass\n"
        "try:\n    pass\n"
        "except Exception:\n    pass\n"  # line 16
        "except np.linalg.LinAlgError:\n    pass\n"
        "except:\n    pass\n"  # line 20
    )
    assert oserror_catches(source) == [("f", 5), ("g", 10), ("<module>", 16), ("<module>", 20)]


@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "npy.py"),
    ids=lambda path: path.name,
)
def test_only_npy_catches_oserror(module):
    # npy.replace_on_success turns every failed write into an IoError that
    # names the destination; a second wrapper would be a second message
    allowed = ["main"] if module.name == "cli.py" else []
    catches = oserror_catches(module.read_text(encoding="utf-8"))
    assert [function for function, _ in catches] == allowed, catches


def npy_reader_uses(source: str) -> list[int]:
    """Lines that import or name ``NpyReader``, directly or as an attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = any(alias.name == "NpyReader" for alias in node.names)
        else:
            named = "NpyReader" in (getattr(node, "id", None), getattr(node, "attr", None))
        if named:
            lines.add(node.lineno)
    return sorted(lines)


def test_npy_reader_uses_are_found():
    source = (
        "from spectrune.npy import NpyReader, read_npy\n"
        "import spectrune.npy as npy\n"
        "r = npy.NpyReader(path, descrs)\n"
        "x = read_npy(path, descrs)\n"
        "'NpyReader in a string'\n"
        "cls = NpyReader\n"
    )
    assert npy_reader_uses(source) == [1, 3, 6]


@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("npy.py", "store.py")),
    ids=lambda path: path.name,
)
def test_only_npy_and_store_name_npy_reader(module):
    # a module that opened dumps with NpyReader would hand out rows that
    # EmbeddingDump never checked
    assert npy_reader_uses(module.read_text(encoding="utf-8")) == []


def reader_uses(source: str) -> list[tuple[str, int]]:
    """``(owner, line)`` of each ``._reader`` attribute; ``owner`` is the
    innermost enclosing class, or ``<module>``."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_reader":
                found.append((owner, child.lineno))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_reader_uses_are_found():
    source = (
        "class EmbeddingDump:\n"
        "    def take(self, rows):\n"
        "        return self._reader.rows_at(rows)\n"  # line 3
        "def load_array_file(path):\n"
        "    with EmbeddingDump(path) as dump:\n"
        "        return dump._reader.read()\n"  # line 6
        "class Other:\n"
        "    def rows(self, dump):\n"
        "        return dump._reader\n"  # line 9
    )
    assert reader_uses(source) == [("EmbeddingDump", 3), ("<module>", 6), ("Other", 9)]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_embedding_dump_touches_its_reader(module):
    # rows read past EmbeddingDump.take would be a second wrapper, with its
    # own checks and its own way of naming a bad row
    uses = reader_uses(module.read_text(encoding="utf-8"))
    assert [owner for owner, _ in uses if owner != "EmbeddingDump"] == [], uses


FORMAT_MODULES = ("numpy.lib.format", "numpy.lib._format_impl")


def npy_format_uses(source: str) -> list[int]:
    """Lines that import numpy's NPY format module, or reach it as an
    attribute (``np.lib.format``)."""
    lines = set(module_imports(source, FORMAT_MODULES))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("format", "_format_impl")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "lib"):
            lines.add(node.lineno)
    return sorted(lines)


def test_npy_format_uses_are_found():
    source = (
        "from numpy.lib.format import read_magic\n"
        "import numpy as np\n"
        "from numpy.lib import format\n"
        "np.lib.format.read_magic(fh)\n"
        "'{}'.format(np.lib)\n"
        "import numpy.lib._format_impl\n"
    )
    assert npy_format_uses(source) == [1, 3, 4, 6]


@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "npy.py"),
    ids=lambda path: path.name,
)
def test_only_npy_reaches_numpy_lib_format(module):
    # every header is read and written by npy.py, behind spectrune's own checks
    assert npy_format_uses(module.read_text(encoding="utf-8")) == []


def count_noise_uses(source: str) -> list[int]:
    """Lines that define, import or name ``count_noise``, directly or as an
    attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = any(alias.name == "count_noise" for alias in node.names)
        elif isinstance(node, ast.FunctionDef):
            named = node.name == "count_noise"
        else:
            named = "count_noise" in (getattr(node, "id", None), getattr(node, "attr", None))
        if named:
            lines.add(node.lineno)
    return sorted(lines)


def test_count_noise_uses_are_found():
    source = (
        "from spectrune.spectral import count_noise, decompose\n"
        "import spectrune.spectral as spectral\n"
        "p = spectral.count_noise(s, -3.6)\n"
        "'count_noise in a string'\n"
        "def count_noise(s, cutoff):\n"
        "    return noise_subspace(s, cutoff).p\n"
        "rule = count_noise\n"
    )
    assert count_noise_uses(source) == [1, 3, 5, 7]


@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("spectral.py", "subspaces.py")),
    ids=lambda path: path.name,
)
def test_only_spectral_and_subspaces_name_count_noise(module):
    # every other module takes a noise count as the width of
    # noise_subspace's span, so the cutoff rule and its guards stay in one place
    assert count_noise_uses(module.read_text(encoding="utf-8")) == []
