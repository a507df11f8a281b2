"""Every name a zsr module or a test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import zsr

MODULES = sorted(Path(zsr.__file__).resolve().parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in source, at any depth, that no other code reads.

    A from __future__ import is a compiler directive and is skipped.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm as l\n"
              "def f():\n    from itertools import chain\n    return gcd(1, 2)\n")
    assert unused_imports(source) == ["os", "l", "chain"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
