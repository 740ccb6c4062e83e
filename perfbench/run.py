"""Benchmark for cmonrw: DPO rewriting, oracle comparison, equality and
readback, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload dpo-rewrite --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; cmonrw is imported from its src/. Each
pass over the workload's requests runs in a fresh worker process as a
closed loop: one client, single-threaded, the next request sent when the
previous one has returned. Passes repeat until --seconds have been spent.
The last line of stdout is the result as one JSON object. See README.md
for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# End-to-end times are scaled to a machine on which the worker's speed
# probe takes SPEED_REF_S. cmonrw touches more memory than the probe, so its
# times move with about this power of the probe's (README.md, "Scaled times").
SPEED_REF_S = 0.010
SPEED_EXPONENT = 0.75
# every run must end within 180 s; stop starting passes well before that
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
TRACE_EXTRA = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


class Bench:
    """One run: writes the workload's files, starts workers, keeps results."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.requests = workloads.requests(workload, seed)
        self.warmup = workloads.warmup(workload)
        self.files = {"sig": os.path.join(workdir, "workload.sig"), "rules": {}}
        _write(self.files["sig"], workloads.SIGNATURES[workload])
        for name, text in workloads.rule_files(workload).items():
            path = os.path.join(workdir, f"{name}.rules")
            _write(path, text)
            self.files["rules"][name] = path
        self.workdir = workdir
        # a fixed hash seed fixes the iteration order of string-keyed sets
        # in cmonrw, which moves single requests' costs by up to a third
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = time.monotonic()

    def worker(self, mode: str, trace: bool = False, spans: str | None = None):
        job = {
            "root": ROOT,
            "workload": self.workload,
            "mode": mode,
            "files": self.files,
            "warmup": self.warmup,
            "requests": self.requests,
            "trace": trace,
            "spans": spans,
        }
        timeout = DEADLINE_S + 10 - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                cwd=self.workdir,
                env=self.env,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s")
        if proc.returncode != 0:
            raise WorkerFailed(
                f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_s(self) -> float:
        """Median set-up time over fresh processes; one run first, untimed,
        so that bytecode compiled on a fresh checkout is not counted."""
        self.worker("setup")
        samples = []
        for _ in range(SETUP_SAMPLES):
            r = self.worker("setup")
            samples.append(r["setup_s"] * speedup(statistics.median(r["probes"])))
        return statistics.median(samples)

    def passes(self, seconds: float, trace: bool) -> tuple[list, list]:
        """Untraced and traced passes until `seconds` are spent. A traced
        run alternates the two kinds, so both see the same machine."""
        plain, traced = [], []
        begin = time.monotonic()
        while True:
            kind_traced = trace and len(traced) < len(plain)
            spans = None
            if kind_traced and not traced:
                spans = _spans_path(self.workload, self.seed)
            t0 = time.monotonic()
            result = self.worker("pass", kind_traced, spans)
            took = time.monotonic() - t0
            (traced if kind_traced else plain).append(result)
            enough = bool(plain) and (bool(traced) or not trace)
            now = time.monotonic()
            if enough and now - begin + took > seconds:
                break
            if now - self.started + took > DEADLINE_S:
                if not enough:
                    raise WorkerFailed("a pass does not fit in the time limit")
                break
        return plain, traced


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _spans_path(workload: str, seed: int) -> str:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}-seed{seed}.tsv")


def speedup(probe_s: float) -> float:
    """Factor that scales a time taken while the probe took probe_s to the
    reference speed."""
    return (SPEED_REF_S / probe_s) ** SPEED_EXPONENT


def scaled(p: dict) -> list[float]:
    """A pass's latencies scaled to the reference speed by the median of
    the six probes run around each one."""
    probes = p["probes"]
    return [
        x * speedup(statistics.median(probes[max(0, i - 2) : i + 4]))
        for i, x in enumerate(p["latencies"])
    ]


def request_medians(series: list[list[float]]) -> list[float]:
    """Each request's median latency over the passes, in request order."""
    return [statistics.median(xs) for xs in zip(*series)]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics under Beta((n+1)q, (n+1)(1-q)) weights. A single order
    statistic jumps whenever two requests of close cost swap ranks; this
    estimate moves smoothly. The weights come from the midpoint rule."""
    ordered = sorted(values)
    n, sub = len(ordered), 16
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = []
    for k in range(n * sub):
        x = (k + 0.5) / (n * sub)
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * sub : (i + 1) * sub]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND of n requests
    beyond it."""
    return 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_s: float, plain: list) -> tuple[dict, dict]:
    medians = request_medians([scaled(p) for p in plain])
    attempted = sum(len(p["latencies"]) for p in plain)
    failed = sum(len(p["failures"]) for p in plain)
    pct = tail_percentile(len(medians))
    values = {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "request_p50_ms": 1000 * quantile(medians, 0.5),
        "request_tail_ms": 1000 * quantile(medians, pct / 100),
        "peak_rss_mb": max(p["maxrss_kb"] for p in plain) / 1024,
        "success_rate": 1 - failed / attempted,
    }
    detail = {
        "passes": len(plain),
        "requests_per_pass": len(medians),
        "samples": attempted,
        "tail_percentile": round(pct, 2),
        "error_rate": failed / attempted,
        "speed_probe_ms": 1000 * statistics.median(x for p in plain for x in p["probes"]),
        "unscaled_wall_s": sum(request_medians([p["latencies"] for p in plain])),
    }
    return values, detail


def per_layer(plain: list, traced: list) -> tuple[dict, dict]:
    first = traced[0]["layers"]
    values = dict(first)
    for name in first:
        if name.endswith(".self_s"):
            values[name] = statistics.median(p["layers"][name] for p in traced)
    untraced = sum(request_medians([scaled(p) for p in plain]))
    with_trace = sum(request_medians([scaled(p) for p in traced]))
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = with_trace
    values["trace.overhead_s"] = with_trace - untraced
    counts_repeat = all(
        {k: v for k, v in p["layers"].items() if not k.endswith(".self_s")}
        == {k: v for k, v in first.items() if not k.endswith(".self_s")}
        for p in traced
    )
    detail = {"traced_passes": len(traced), "counts_repeat": counts_repeat}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmonrw", "__init__.py")):
        print(f"perfbench: no cmonrw sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        setup_s = bench.setup_s()
        plain, traced = bench.passes(args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, detail = end_to_end(setup_s, plain)
    units = dict(END_TO_END)
    runs = plain
    if args.trace:
        values, trace_detail = per_layer(plain, traced)
        detail.update(trace_detail)
        units = {**metric_units(), **TRACE_EXTRA}
        runs = plain + traced
    attempted = sum(len(p["latencies"]) for p in runs)
    failures = [f for p in runs for f in p["failures"]]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    for f in failures[:20]:
        print(f"  FAILED request {f['request']}: {f['reason']}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
