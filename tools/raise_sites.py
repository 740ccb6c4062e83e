"""The `raise` statements in src/cmonrw that no test runs.

Runs pytest in this process, with every argument passed on to it, under a
`sys.settrace` hook that follows only the functions of src/cmonrw holding a
`raise`. Then prints each `raise` whose line never ran, with its function,
and how many of each module's raise sites the tests reached:

    python3 tools/raise_sites.py -q -p no:cacheprovider -k "not criterion_4"

With no arguments pytest runs its configured test paths. Tracing slows
every call into a traced function, so tests with a time budget may fail
under it; the report counts which sites ran, not which tests passed.
Code run in a subprocess, such as the CLI tests that start `cmonrw` as a
command, is not seen. Standard library only, apart from pytest itself.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cmonrw")


def raise_sites(path: str) -> dict[int, str]:
    """Each `raise` in the file by line, with its enclosing function."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    sites: dict[int, str] = {}

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                if isinstance(child, ast.Raise):
                    sites[child.lineno] = scope or "<module>"
                walk(child, scope)

    walk(tree, "")
    return sites


def _own_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def traced_functions(path: str, lines: set[int]) -> set[tuple[str, int]]:
    """(file, first line) of each code object compiled from path whose own
    instructions include one of lines, that is, of each function holding a
    raise, without the functions nested in it."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec", dont_inherit=True)
    found = set()
    stack = [code]
    while stack:
        code = stack.pop()
        if _own_lines(code) & lines:
            found.add((path, code.co_firstlineno))
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return found


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    paths = [
        os.path.join(PACKAGE, name)
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py")
    ]
    sites = {path: raise_sites(path) for path in paths}
    sites = {path: lines for path, lines in sites.items() if lines}
    functions = set()
    for path, lines in sites.items():
        functions |= traced_functions(path, set(lines))
    reached: set[tuple[str, int]] = set()
    real: dict[str, str] = {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if (real[name], frame.f_code.co_firstlineno) in functions:
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\npytest exit status {int(status)}; raise sites no test ran:")
    for path, lines in sites.items():
        rel = os.path.relpath(path, ROOT)
        missed = sorted(line for line in lines if (path, line) not in reached)
        for line in missed:
            print(f"  {rel}:{line} in {lines[line]}")
        print(f"{rel}: {len(lines) - len(missed)} of {len(lines)} reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
