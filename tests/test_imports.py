"""Every module of the package uses each name it imports.

No linter is assumed: the check reads each module with `ast`.  An import
counts as used when its bound name appears anywhere in the module as a
name (an annotation included), outside the import itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "koszulity"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("from .gf import PrimeField, RowSpan\nPrimeField(2)\n", ["RowSpan"]),
    ("from .algebra import DegreewiseAlgebra, free_product\n"
     "def f(a: DegreewiseAlgebra): pass\n", ["free_product"]),
    ("import numpy as np\nimport os.path\nos.path.join('a')\n", ["np"]),
    ("from __future__ import annotations\nfrom . import gf\ngf.rank\n", []),
], ids=["unused-name", "annotation-only-use", "unused-module", "future-and-attribute"])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
