"""Answer checks for every request, from expectations fixed by how the
inputs were built. Standard library only: a check never asks cmonrw what
the answer should be.

Each check returns None when the answer is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

import json
from collections import Counter


def _labels(doc: dict) -> Counter:
    return Counter(e["label"] for e in doc["edges"])


def _chain_labels(doc: dict) -> list[str] | None:
    """Edge labels along a 1 -> 1 chain from the left boundary to the right
    one, or None if the document is not such a chain."""
    if len(doc["left"]) != 1 or len(doc["right"]) != 1:
        return None
    by_source = {}
    for e in doc["edges"]:
        if len(e["sources"]) != 1 or len(e["targets"]) != 1:
            return None
        by_source[e["sources"][0]] = e
    node, labels = doc["left"][0], []
    while node in by_source and len(labels) <= len(doc["edges"]):
        e = by_source[node]
        labels.append(e["label"])
        node = e["targets"][0]
    if node != doc["right"][0] or len(labels) != len(doc["edges"]):
        return None
    return labels


def _check_chain_all(n: int, results: list[dict]) -> str | None:
    # rewriting one of n f's gives n classes told apart by where the g is
    positions = set()
    for doc in results:
        labels = _chain_labels(doc)
        if labels is None or Counter(labels) != Counter({"f": n - 1, "g": 1}):
            return f"result is not a chain of {n - 1} f and one g"
        positions.add(labels.index("g"))
    if positions != set(range(n)):
        return f"g positions {sorted(positions)} are not 0..{n - 1}"
    return None


def _check_merge_all(n: int, results: list[dict]) -> str | None:
    # the n merged s split between h's two inputs as k and n - k, k = 0..n
    splits = set()
    for doc in results:
        if _labels(doc) != Counter({"h": 1, "s": n}):
            return f"result does not hold one h and {n} s"
        (h,) = [e for e in doc["edges"] if e["label"] == "h"]
        if len(h["sources"]) != 2 or h["sources"][0] == h["sources"][1]:
            return "h inputs are not two distinct nodes"
        fed = Counter(e["targets"][0] for e in doc["edges"] if e["label"] == "s")
        if fed[h["sources"][0]] + fed[h["sources"][1]] != n:
            return "some s does not feed h"
        splits.add(fed[h["sources"][0]])
    if splits != set(range(n + 1)):
        return f"splits {sorted(splits)} are not 0..{n}"
    return None


def _check_branches_all(n: int, results: list[dict]) -> str | None:
    # the n merged branches are interchangeable: one class
    for doc in results:
        if _labels(doc) != Counter({"s": n, "f": n - 1, "g": 1}):
            return f"result does not hold {n} s, {n - 1} f and one g"
    return None


def check_rewrite(request: dict, exit_code: int, stdout: str) -> str | None:
    """Closed-form answers of the dpo-rewrite families."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    family, n = request["family"], request["n"]
    payload = json.loads(stdout)
    if family.endswith("-all"):
        results = [s["result"] for s in payload["steps"]]
        expected = {"chain-all": n, "merge-all": n + 1, "branches-all": 1}
        if len(results) != expected[family]:
            return f"{len(results)} classes, expected {expected[family]}"
        check = {
            "chain-all": _check_chain_all,
            "merge-all": _check_merge_all,
            "branches-all": _check_branches_all,
        }[family]
        return check(n, results)
    forms = payload["normal-forms"]
    if len(forms) != 1:
        return f"{len(forms)} normal forms, expected 1"
    if _chain_labels(forms[0]) != ["g"] * n:
        return f"normal form is not a chain of {n} g"
    return None


def check_oracle(request: dict, exit_code: int, stdout: str) -> str | None:
    """The oracle's classes are a subset of the DPO classes, and the
    request's verdict is the expected one."""
    if exit_code != request["expect_exit"]:
        return f"exit code {exit_code}, expected {request['expect_exit']}"
    payload = json.loads(stdout)
    if payload["only-oracle"]:
        return f"{len(payload['only-oracle'])} oracle classes missing from dpo"
    only_dpo = len(payload["only-dpo"])
    if only_dpo != request["expect_only_dpo"]:
        return f"{only_dpo} dpo-only classes, expected {request['expect_only_dpo']}"
    if payload["agree"] != (request["expect_exit"] == 0):
        return f"agree is {payload['agree']}"
    if len(payload["dpo"]) != len(payload["oracle"]) + only_dpo:
        return "class counts do not add up"
    return None


def check_equiv(request: dict, equal: bool, readback_ok: bool) -> str | None:
    """The verdict the pair was built to have, and a faithful readback."""
    if equal != request["equal"]:
        return f"verdict {'equal' if equal else 'unequal'}, built the other way"
    if not readback_ok:
        return "readback does not evaluate to an isomorphic cospan"
    return None
