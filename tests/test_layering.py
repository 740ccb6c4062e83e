"""Module boundaries inside the package: a module may use another cmonrw
module only through its public names."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cmonrw"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Every `_`-prefixed name imported from a cmonrw module, as
    "module.name"; relative imports count as cmonrw."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cmonrw":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{module}.{alias.name}")
    return found


def test_the_check_sees_private_imports():
    source = (
        "from .hypergraph import Edge, _intern\n"
        "from cmonrw.decompose import _endpoints\n"
        "from __future__ import annotations\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [
        "hypergraph._intern",
        "cmonrw.decompose._endpoints",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    assert MODULES, "package sources not found"
    assert private_imports(path.read_text(encoding="utf-8")) == []
