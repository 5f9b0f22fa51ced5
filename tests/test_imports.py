"""Every name a library module imports is used in that module, and every
private module-level name is used somewhere in the library.

A name counts as used when it appears as a bare name anywhere in the
module (annotations included).  An import line marked ``# noqa: F401``
is kept on purpose.  ``__init__.py`` imports to re-export and is left out.
A private name (one leading underscore, not a dunder) counts as used when
some module of the library reads it, as a bare name, an attribute or an
imported name; its own definition does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invarbin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name_and_honours_noqa():
    source = (
        "from typing import Mapping, Sequence\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .x import kept  # noqa: F401\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["Mapping (line 1)", "os (line 3)"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and name not in used:
                    dead.append(f"{module}.{name} (line {node.lineno})")
    return dead


def test_every_private_module_name_is_used_in_the_library():
    assert dead_private_names({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_the_check_sees_a_private_name_nothing_reads():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_SPARE: int = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _orphan():\n"
            "    return 1\n"
            "class _Shape:\n"
            "    pass\n"
            "class _Plan:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return name\n"
        ),
        "b": "from . import a\nfrom .a import _helper\n_helper(a._Shape)\n",
    }
    assert dead_private_names(sources) == [
        "a._SPARE (line 2)", "a._orphan (line 5)", "a._Plan (line 9)"
    ]
