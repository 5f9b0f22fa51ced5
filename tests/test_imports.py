"""Every name a library module imports is used in that module.

A name counts as used when it appears as a bare name anywhere in the
module (annotations included).  An import line marked ``# noqa: F401``
is kept on purpose.  ``__init__.py`` imports to re-export and is left out.
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
