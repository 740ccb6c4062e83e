"""Module boundaries inside the package: a module may use another cmonrw
module only through its public names."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cmonrw"
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parent.parent
CHECKER = pathlib.Path(__file__).resolve()


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


def split_definitions(source: str) -> tuple[list[str], list[str]]:
    """Names of the public top-level functions, and names of the public
    methods of top-level classes."""
    tree = ast.parse(source)
    methods = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    ]
    return tuple(
        [
            node.name
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
        ]
        for nodes in (tree.body, methods)
    )


def public_definitions(source: str) -> list[str]:
    """Names of the public top-level functions and of the public methods
    of top-level classes."""
    functions, methods = split_definitions(source)
    return functions + methods


def referenced_names(source: str) -> set[str]:
    """Every name the source uses: plain names, attributes and imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def member_references(source: str) -> set[str]:
    """Every name the source can reach a method by: attribute accesses,
    and string constants with each of their dotted parts (getattr,
    monkeypatch.setattr). A plain name is a local, never a method."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
            found.update(node.value.split("."))
    return found


def test_the_check_sees_unreferenced_definitions():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class K:\n"
        "    def method(self): pass\n"
        "    def spare(self): pass\n"
        "    def __len__(self): return 0\n"
    )
    user = "from m import used\nK().method()\n"
    names = referenced_names(source) | referenced_names(user)
    assert [d for d in public_definitions(source) if d not in names] == [
        "unused",
        "spare",
    ]


def unreferenced_definitions(modules, sources) -> list[str]:
    """"module.name" for each public definition in modules that no source
    names. This checker is never a source: its own reads of ast fields
    (`.names`, `.name`, `.id`, `.attr`) would count as uses."""
    names, members = set(), set()
    for path in sources:
        if path.resolve() != CHECKER:
            source = path.read_text(encoding="utf-8")
            names |= referenced_names(source)
            members |= member_references(source)
    found = []
    for path in modules:
        functions, methods = split_definitions(
            path.read_text(encoding="utf-8")
        )
        found += [f"{path.stem}.{n}" for n in functions if n not in names]
        found += [f"{path.stem}.{n}" for n in methods if n not in members]
    return found


def test_the_check_does_not_count_its_own_ast_reads(tmp_path):
    module = tmp_path / "sigterm.py"
    module.write_text(
        "class Signature:\n    def names(self):\n        return ()\n"
    )
    assert "names" in referenced_names(CHECKER.read_text(encoding="utf-8"))
    assert unreferenced_definitions([module], [module, CHECKER]) == [
        "sigterm.names"
    ]


def test_a_local_of_the_same_name_does_not_hide_a_dead_method(tmp_path):
    module = tmp_path / "sigterm.py"
    module.write_text(
        "def parse(): pass\n"
        "class Signature:\n"
        "    def names(self): return ()\n"
        "    def arity(self): return 0\n"
        "    def lookup(self): return 0\n"
        "    def parse(self): return 0\n"
    )
    user = tmp_path / "dpo.py"
    user.write_text(
        "from sigterm import Signature, parse\n"
        "names = set()\n"
        "Signature().arity()\n"
        "getattr(Signature(), 'lookup')\n"
        "parse()\n"
    )
    # a plain name reaches a function, never a method; an attribute or
    # a string reaches a method
    assert unreferenced_definitions([module], [module, user]) == [
        "sigterm.names",
        "sigterm.parse",
    ]


def test_every_public_function_is_referenced():
    sources = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert CHECKER in sources
    assert unreferenced_definitions(MODULES, sources) == []


def functions_used_only_by_tests(root: pathlib.Path) -> list[str]:
    """"module.name" for each public top-level function of root/src/cmonrw
    that no module under root/src or root/perfbench names. An export from
    the package's __init__ counts as a use; a reference from the tests
    does not."""
    names: set[str] = set()
    for folder in ("src", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            names |= referenced_names(path.read_text(encoding="utf-8"))
    found = []
    for path in sorted((root / "src" / "cmonrw").glob("*.py")):
        functions, _ = split_definitions(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}.{n}" for n in functions if n not in names]
    return found


def test_the_check_sees_functions_only_the_tests_use(tmp_path):
    package = tmp_path / "src" / "cmonrw"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from cmonrw.m import exported\n__all__ = ['exported']\n"
    )
    (package / "m.py").write_text(
        "def exported(): pass\n"
        "def tested(): pass\n"
        "def benched(): pass\n"
        "def _private(): pass\n"
        "class K:\n"
        "    def method(self): pass\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "from cmonrw.m import benched\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "from cmonrw.m import K, exported, tested\n"
        "def test_it():\n"
        "    tested(); exported(); K().method()\n"
    )
    assert functions_used_only_by_tests(tmp_path) == ["m.tested"]


def test_no_public_function_serves_only_the_tests():
    assert functions_used_only_by_tests(ROOT) == []


def package_imports(source: str) -> list[tuple[str, bool]]:
    """(module, at top level) for each cmonrw module the source imports;
    relative imports count as cmonrw, and `from . import m` names m."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "cmonrw":
                    continue
                module = module.partition(".")[2]
            if module:
                targets = [module.split(".")[0]]
            else:
                targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("cmonrw.")
            ]
        else:
            continue
        found += [(t, id(node) in top) for t in targets]
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the module graph, as the modules along it with the
    first repeated at the end, or [] when it has none."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(m: str) -> list[str]:
        state[m] = "open"
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if state.get(n) == "open":
                return path[path.index(n):] + [n]
            if n not in state and (cycle := visit(n)):
                return cycle
        state[m] = "done"
        path.pop()
        return []

    for m in sorted(graph):
        if m not in state and (cycle := visit(m)):
            return cycle
    return []


def test_the_check_sees_nested_imports_and_cycles():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "from .errors import Cyclic\n"
        "from cmonrw.hypergraph import Edge\n"
        "import cmonrw.sigterm\n"
        "if TYPE_CHECKING:\n"
        "    from .decompose import LevelFactorisation\n"
        "def f():\n"
        "    from . import dpo, oracle\n"
    )
    assert package_imports(source) == [
        ("errors", True),
        ("hypergraph", True),
        ("sigterm", True),
        ("decompose", False),
        ("dpo", False),
        ("oracle", False),
    ]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == [
        "b", "c", "b"
    ]


def test_package_imports_are_top_level_and_acyclic():
    graph, nested = {}, []
    for path in MODULES:
        imports = package_imports(path.read_text(encoding="utf-8"))
        graph[path.stem] = {m for m, _ in imports}
        nested += [f"{path.stem} -> {m}" for m, top in imports if not top]
    assert MODULES
    assert nested == []
    assert import_cycle(graph) == []
