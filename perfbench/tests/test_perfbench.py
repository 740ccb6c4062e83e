"""Tests of the benchmark itself: its checks, its tracer, its inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import FUNCTIONS, Tracer, metric_units  # noqa: E402


def chain_doc(labels: list[str]) -> dict:
    n = len(labels)
    return {
        "nodes": list(range(n + 1)),
        "edges": [
            {"id": i, "label": x, "sources": [i], "targets": [i + 1]}
            for i, x in enumerate(labels)
        ],
        "left": [0],
        "right": [n],
    }


def rewrite_all_output(docs: list[dict]) -> str:
    return json.dumps({"steps": [{"rule": "fg", "result": d} for d in docs]})


def chain_request(n: int) -> dict:
    return {"family": "chain-all", "n": n, "args": []}


# ------------------------------------------------------------------ checks


def test_chain_classes_pass_when_right():
    docs = [chain_doc(["g" if i == k else "f" for i in range(3)]) for k in range(3)]
    assert checks.check_rewrite(chain_request(3), 0, rewrite_all_output(docs)) is None


def test_checker_flags_off_by_one_class_count():
    docs = [chain_doc(["g" if i == k else "f" for i in range(3)]) for k in range(2)]
    reason = checks.check_rewrite(chain_request(3), 0, rewrite_all_output(docs))
    assert reason == "2 classes, expected 3"


def test_checker_flags_repeated_class():
    docs = [chain_doc(["g", "f", "f"])] * 3
    assert "g positions" in checks.check_rewrite(
        chain_request(3), 0, rewrite_all_output(docs)
    )


def test_checker_flags_wrong_normal_form_and_exit_code():
    request = {"family": "chain-leftmost", "n": 3, "args": []}
    good = json.dumps({"normal-forms": [chain_doc(["g", "g", "g"])]})
    bad = json.dumps({"normal-forms": [chain_doc(["g", "f", "g"])]})
    assert checks.check_rewrite(request, 0, good) is None
    assert checks.check_rewrite(request, 0, bad) is not None
    assert checks.check_rewrite(request, 1, good) == "exit code 1"


def test_checker_flags_merge_splits():
    def merge_doc(k: int, n: int) -> dict:
        edges = [{"id": 0, "label": "h", "sources": [0, 1], "targets": [2]}]
        edges += [
            {"id": 1 + i, "label": "s", "sources": [], "targets": [0 if i < k else 1]}
            for i in range(n)
        ]
        return {"nodes": [0, 1, 2], "edges": edges, "left": [], "right": [2]}

    request = {"family": "merge-all", "n": 2, "args": []}
    good = [merge_doc(k, 2) for k in range(3)]
    assert checks.check_rewrite(request, 0, rewrite_all_output(good)) is None
    twice = [merge_doc(0, 2), merge_doc(1, 2), merge_doc(1, 2)]
    assert "splits" in checks.check_rewrite(request, 0, rewrite_all_output(twice))


def oracle_output(oracle: int, dpo: int, only_oracle: int = 0) -> str:
    return json.dumps(
        {
            "oracle": ["t"] * oracle,
            "dpo": [{}] * dpo,
            "only-oracle": ["t"] * only_oracle,
            "only-dpo": [{}] * (dpo - oracle + only_oracle),
            "agree": dpo == oracle and not only_oracle,
        }
    )


def test_checker_flags_oracle_verdicts():
    agree = workloads._oracle_request("fg", "f ; f")
    truncated = workloads._oracle_request("fg", "(f + f) ; mu")
    assert checks.check_oracle(agree, 0, oracle_output(2, 2)) is None
    assert checks.check_oracle(truncated, 1, oracle_output(1, 2)) is None
    # flipped verdicts
    assert checks.check_oracle(agree, 1, oracle_output(1, 2)) is not None
    assert checks.check_oracle(truncated, 0, oracle_output(2, 2)) is not None
    # an oracle class the DPO engine missed breaks the subset rule
    assert "missing from dpo" in checks.check_oracle(
        truncated, 1, oracle_output(1, 2, only_oracle=1)
    )


def test_checker_flags_equiv_verdicts():
    request = {"equal": True}
    assert checks.check_equiv(request, True, True) is None
    assert checks.check_equiv(request, False, True) is not None
    assert checks.check_equiv({"equal": False}, True, True) is not None
    assert checks.check_equiv(request, True, False) is not None


# ------------------------------------------------------------------ tracer


def fake_package(drop: str | None = None) -> dict:
    modules = {}
    for name in FUNCTIONS:
        layer, fn = name.split(".")
        module = modules.setdefault(
            f"cmonrw.{layer}", types.ModuleType(f"cmonrw.{layer}")
        )
        if name != drop:
            setattr(module, fn, lambda *a, **k: [])
    return modules


def test_missing_function_fails_loudly():
    with pytest.raises(LookupError, match="dpo.normalize"):
        Tracer().install(fake_package(drop="dpo.normalize"))


def test_wrapper_replaces_every_binding():
    modules = fake_package()
    # the way `from .dpo import rewrite_all` binds a second name
    modules["cmonrw.cli"].rewrite_all = modules["cmonrw.dpo"].rewrite_all
    tracer = Tracer()
    tracer.install(modules)
    assert tracer.bindings["dpo.rewrite_all"] == 2
    assert modules["cmonrw.cli"].rewrite_all is modules["cmonrw.dpo"].rewrite_all
    tracer.active = True
    modules["cmonrw.cli"].rewrite_all()
    assert tracer.metrics()["dpo.rewrite_all.calls"] == 1


def test_self_time_excludes_children():
    modules = fake_package()
    tracer = Tracer()
    tracer.install(modules)
    tracer.fn, tracer.parent = [0, 1], [-1, 0]
    tracer.start, tracer.end, tracer.req = [0, 100], [1000, 700], [0, 0]
    m = tracer.metrics()
    assert m[f"{FUNCTIONS[0]}.self_s"] == pytest.approx(400e-9)
    assert m[f"{FUNCTIONS[1]}.self_s"] == pytest.approx(600e-9)


def test_wrappers_find_every_function_in_cmonrw():
    code = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import worker, tracer, importlib\n"
        "mods = {n: importlib.import_module(n) for n in worker.MODULES}\n"
        "t = tracer.Tracer(); t.install(mods)\n"
        "print(json.dumps(t.bindings))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, BENCH, os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    bindings = json.loads(out.stdout)
    assert sorted(bindings) == sorted(FUNCTIONS)
    assert all(n >= 1 for n in bindings.values()), bindings


def test_every_per_layer_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == {**metric_units(), **run.TRACE_EXTRA}


def test_quantile_estimates():
    assert run.quantile([3.0] * 30, 0.5) == pytest.approx(3.0)
    assert run.quantile(list(range(31)), 0.5) == pytest.approx(15.0)
    values = [float(i) for i in range(40)]
    assert 28 < run.quantile(values, run.tail_percentile(40) / 100) < 32
    assert run.tail_percentile(40) == 75.0


def test_scaling_divides_by_the_probes_around_each_request():
    ref = run.SPEED_REF_S
    same = {"latencies": [0.1, 0.2], "probes": [ref, ref, ref]}
    assert run.scaled(same) == pytest.approx([0.1, 0.2])
    slow = {"latencies": [0.1, 0.2], "probes": [2 * ref] * 3}
    factor = 0.5**run.SPEED_EXPONENT
    assert run.scaled(slow) == pytest.approx([0.1 * factor, 0.2 * factor])


# ------------------------------------------------------------------ inputs

INPUT_MODULES = ("workloads.py", "checks.py", "tracer.py")


@pytest.mark.parametrize("name", INPUT_MODULES)
def test_inputs_and_checks_import_nothing_from_cmonrw(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "cmonrw" not in imported


def test_generating_inputs_loads_no_cmonrw():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.requests(w, 7); workloads.warmup(w)\n"
        "print(any(m.split('.')[0] == 'cmonrw' for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, BENCH], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.requests(workload, 11) == workloads.requests(workload, 11)
    if workload != "oracle-compare":
        assert workloads.requests(workload, 11) != workloads.requests(workload, 12)


def test_oracle_pairs_are_the_small_criterion_4_hosts():
    reqs = workloads.oracle_requests(0)
    assert len(reqs) == 29
    assert len({r["host"] for r in reqs}) == 16
    assert all(r["bound"] == workloads.term_size(r["host"]) + 4 <= 9 for r in reqs)
    assert sum(r["expect_exit"] for r in reqs) == 1


def test_equal_pairs_keep_generators_and_unequal_pairs_swap_one():
    for r in workloads.equiv_requests(5):
        words = lambda s: sorted(  # noqa: E731
            w for w in s.replace("(", " ").replace(")", " ").split() if w in workloads.TWIN
        )
        t, u = words(r["t"]), words(r["u"])
        assert len(t) == len(u)
        assert (t == u) == r["equal"]


# ------------------------------------------------------- determinism, runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_with_the_same_seed(workload, tmp_path):
    bench = run.Bench(workload, 3, str(tmp_path))
    size = lambda r: (r.get("n") or r.get("bound") or r["depth"], json.dumps(r))  # noqa: E731
    bench.requests = sorted(bench.requests, key=size)[:4]
    first, second = (bench.worker("pass", trace=True) for _ in range(2))
    assert first["failures"] == second["failures"] == []

    def counts(result):
        return {k: v for k, v in result["layers"].items() if not k.endswith("self_s")}

    assert counts(first) == counts(second)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dpo-rewrite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
