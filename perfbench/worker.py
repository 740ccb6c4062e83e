"""One measured pass of a workload, in a fresh process.

Reads a job as JSON on stdin and prints one JSON line. A fresh process per
pass means no state cmonrw keeps between calls can carry from one pass to
the next: only sharing between requests of the same pass can show.

Job keys: root (checkout holding src/cmonrw), workload, mode ("setup" or
"pass"), files (signature and rule-file paths), warmup and requests (from
workloads.py), trace (bool) and spans (path for the trace, or null).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import sys
import time

import checks
from tracer import Tracer

MODULES = (
    "cmonrw",
    "cmonrw.cli",
    "cmonrw.sigterm",
    "cmonrw.translate",
    "cmonrw.cospan",
    "cmonrw.hypergraph",
    "cmonrw.dpo",
    "cmonrw.oracle",
    "cmonrw.decompose",
)


def _load(root: str, files: dict):
    """Import cmonrw from the checkout and parse the workload's signature
    and rule files. This is the benchmark's set-up."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(name) for name in MODULES}
    origin = os.path.realpath(mods["cmonrw"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cmonrw imported from {origin}, not from {src}")
    sig = mods["cmonrw.sigterm"].parse_signature(_read(files["sig"]))
    for path in files["rules"].values():
        mods["cmonrw.dpo"].parse_rules(_read(path), sig)
    return mods, sig


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_argv(request: dict, files: dict) -> list[str]:
    argv = list(request["args"])
    i = argv.index("--rules") + 1
    argv[i] = files["rules"][argv[i]]
    return argv + ["--sig", files["sig"], "--format", "structured"]


class Runner:
    """Answers requests and checks them; only answering is timed."""

    def __init__(self, workload: str, mods: dict, sig, files: dict, tracer):
        self.workload = workload
        self.mods = mods
        self.sig = sig
        self.files = files
        self.tracer = tracer

    def run(self, request: dict) -> tuple[float, str | None]:
        """Latency in seconds and the failure reason, None if correct."""
        if self.workload == "equiv-readback":
            return self._equiv(request)
        return self._cli(request)

    def _cli(self, request: dict):
        argv = _cli_argv(request, self.files)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cmonrw.cli"].run(argv)
        latency = time.perf_counter() - t0
        self._pause()
        check = (
            checks.check_oracle
            if self.workload == "oracle-compare"
            else checks.check_rewrite
        )
        reason = check(request, code, out.getvalue())
        if reason and err.getvalue():
            reason += ": " + err.getvalue().strip()[:200]
        return latency, reason

    def _equiv(self, request: dict):
        # calls go through the module attributes, which the tracer replaces
        m = self.mods
        t0 = time.perf_counter()
        t = m["cmonrw.sigterm"].parse_term(request["t"], self.sig)
        u = m["cmonrw.sigterm"].parse_term(request["u"], self.sig)
        ct = m["cmonrw.translate"].eval_term(t, self.sig)
        cu = m["cmonrw.translate"].eval_term(u, self.sig)
        key = m["cmonrw.cospan"].cospan_key(ct)
        equal = key == m["cmonrw.cospan"].cospan_key(cu)
        m["cmonrw.decompose"].factorise_into_levels(ct)
        back = m["cmonrw.decompose"].readback_term(ct, self.sig)
        latency = time.perf_counter() - t0
        self._pause()
        again = m["cmonrw.translate"].eval_term(back, self.sig)
        readback_ok = m["cmonrw.cospan"].cospan_key(again) == key
        return latency, checks.check_equiv(request, equal, readback_ok)

    def _pause(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False


def _answer(runner: Runner, request: dict, rid: int):
    tracer = runner.tracer
    if tracer is not None:
        tracer.begin_request(rid)
        tracer.active = True
    t0 = time.perf_counter()
    try:
        return runner.run(request)
    except Exception as exc:  # a raising request is a failed request
        reason = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, reason[:300]
    finally:
        if tracer is not None:
            tracer.active = False


def speed_probe() -> float:
    """Seconds taken now by a fixed, interpreter-bound job like cmonrw's
    own work: tuples, dicts, sets, sorting and hashing, about 10 ms."""
    rng = random.Random(7)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(60):
        groups: dict = {}
        for _ in range(120):
            groups.setdefault(rng.randrange(50), []).append(rng.randrange(50))
        shapes = {tuple(sorted(vs)) for vs in groups.values()}
        acc += len(sorted(shapes)) + sum(hash(t) & 7 for t in shapes)
    return time.perf_counter() - t0


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    mods, sig = _load(job["root"], job["files"])
    setup_s = time.perf_counter() - t0
    out: dict = {"setup_s": setup_s}
    if job["mode"] == "setup":
        speed_probe()
        out["probes"] = [speed_probe() for _ in range(5)]
    else:
        runner = Runner(job["workload"], mods, sig, job["files"], None)
        for request in job["warmup"]:
            _answer(runner, request, -1)
        if job["trace"]:
            runner.tracer = Tracer()
            runner.tracer.install(
                {k: v for k, v in sys.modules.items() if k.split(".")[0] == "cmonrw"}
            )
        # a probe before every request and after the last one
        latencies, failures, probes = [], [], [speed_probe()]
        for rid, request in enumerate(job["requests"]):
            latency, reason = _answer(runner, request, rid)
            latencies.append(latency)
            probes.append(speed_probe())
            if reason is not None:
                failures.append({"request": rid, "reason": reason})
        out["latencies"] = latencies
        out["probes"] = probes
        out["failures"] = failures
        if runner.tracer is not None:
            out["layers"] = runner.tracer.metrics()
            if job["spans"]:
                runner.tracer.write_spans(job["spans"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
