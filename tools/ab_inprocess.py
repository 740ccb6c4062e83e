"""An alternating A/B of two checkouts of cmonrw, in one process.

Loads `src/cmonrw` from two checkouts side by side, then times passes over
one workload's requests (as `perfbench/workloads.py` builds them for the
seed), alternating which checkout goes first in each pair. A pass answers
every request the way the benchmark's worker does: `dpo-rewrite` and
`oracle-compare` through `cli.run` with `--format structured`,
`equiv-readback` by the worker's library calls on a signature parsed once
per checkout. As in the worker, only answering is timed: readback terms
are printed after the clock stops. Prints each pair's times, each side's
quartiles of pass time, the median ratio change/base, how many pairs the
change won, and whether the two checkouts' answers were byte-identical.
It also prints each side's median and 90th-percentile request latency,
taken over each request's median latency across the pairs, and their
ratios change/base, since they can move unlike pass time. The benchmark's
`request_p50_ms` and `request_tail_ms` come from the same per-request
medians, but by a Harrell-Davis estimate and with the tail at a
percentile set by the request count, so they track these figures without
equalling them.
A workload whose medians differ by less than the base's interquartile
range is marked unresolved: the base's own passes spread wider than the
difference, so it shows neither a gain nor a loss.

    python3 tools/ab_inprocess.py --workload dpo-rewrite --seed 1 \\
        --base ../parent-checkout --pairs 16

`--change` is the checkout under test (default: this one). One process
sees the same machine speed on both sides of a pair, so alternating pairs
cancel most of a shared VM's speed swings; the benchmark proper measures
each side in fresh processes. Re-runs itself under PYTHONHASHSEED=0, as the
benchmark's workers do. Standard library only.

Module state persists across the passes here, while the benchmark starts
a fresh worker for every pass. So a change that keeps work between
requests in module state reads better here than it will there: a memo of
oracle closures across requests read a ratio of 0.19 in this tool but cut
`oracle-compare` `wall_s` by only about 23% in `perfbench/run.py`, whose
passes each pay for filling the memo again.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
MODULES = ("cli", "sigterm", "translate", "cospan", "decompose")


def _cmonrw_names() -> list[str]:
    return [m for m in sys.modules if m.split(".")[0] == "cmonrw"]


def load(root: str) -> dict:
    """Every cmonrw module imported from root/src, by its name without
    the package prefix (the package itself as "cmonrw"); those of a
    checkout loaded earlier stay bound in its own dict."""
    for name in _cmonrw_names():
        del sys.modules[name]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        for m in MODULES:
            importlib.import_module(f"cmonrw.{m}")
    finally:
        sys.path.remove(src)
    mods = {m.removeprefix("cmonrw."): sys.modules[m] for m in _cmonrw_names()}
    origin = os.path.realpath(mods["cli"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cmonrw imported from {origin}, not from {src}")
    return mods


def bind(mods: dict) -> None:
    """Make sys.modules name this checkout's cmonrw modules, so that an
    import run lazily inside them finds this checkout's module and not
    the other one's. The package imports nothing lazily now, but an
    older base checkout does: there Cospan.levels imports decompose on
    first use."""
    for name in _cmonrw_names():
        del sys.modules[name]
    sys.modules.update({m.__name__: m for m in mods.values()})


def answer(mods: dict, request: dict, files: dict, sig) -> tuple:
    """The checkout's answer to one request, as the benchmark's worker
    times it: the equality verdict and the readback term, or the exit
    code, stdout and stderr of the CLI. sig is the checkout's parsed
    signature of the workload."""
    if "args" not in request:  # equiv-readback: library calls
        sigterm, translate = mods["sigterm"], mods["translate"]
        cospan, decompose = mods["cospan"], mods["decompose"]
        ct = translate.eval_term(sigterm.parse_term(request["t"], sig), sig)
        cu = translate.eval_term(sigterm.parse_term(request["u"], sig), sig)
        key = cospan.cospan_key(ct)
        equal = key == cospan.cospan_key(cu)
        decompose.factorise_into_levels(ct)
        return equal, decompose.readback_term(ct, sig)
    argv = list(request["args"])
    i = argv.index("--rules") + 1
    argv[i] = files["rules"][argv[i]]
    argv += ["--sig", files["sig"], "--format", "structured"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].run(argv)
    return code, out.getvalue(), err.getvalue()


def as_text(mods: dict, result: tuple) -> str:
    """An answer as text, the readback term printed."""
    if len(result) == 2:
        equal, back = result
        return json.dumps([equal, mods["sigterm"].pretty_print(back)])
    return json.dumps(list(result))


def one_pass(mods, batch, files, sig) -> tuple[list[float], list[str]]:
    """The time to answer each request of batch, in request order, then
    the answers as text, printed after the clock stops."""
    bind(mods)
    latencies, results = [], []
    for r in batch:
        t0 = time.perf_counter()
        results.append(answer(mods, r, files, sig))
        latencies.append(time.perf_counter() - t0)
    return latencies, [as_text(mods, r) for r in results]


def request_quantiles(passes: list[list[float]]) -> tuple[float, float]:
    """The median and 90th percentile, in ms, of each request's median
    latency over passes."""
    medians = [statistics.median(xs) for xs in zip(*passes)]
    deciles = statistics.quantiles(medians, n=10, method="inclusive")
    return 1000 * statistics.median(medians), 1000 * deciles[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("dpo-rewrite", "oracle-compare", "equiv-readback"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default=REPO)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    sys.path.insert(0, HERE)
    import output_digest
    import workloads

    sides = {"base": load(args.base), "change": load(args.change)}
    batch = workloads.requests(args.workload, args.seed)
    sig_text = workloads.SIGNATURES[args.workload]
    sigs = {
        name: mods["sigterm"].parse_signature(sig_text)
        for name, mods in sides.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        files = output_digest.write_files(tmp, args.workload, workloads)
        warm = workloads.warmup(args.workload)
        answers = {}
        for name, mods in sides.items():
            one_pass(mods, warm, files, sigs[name])
            answers[name] = one_pass(mods, batch, files, sigs[name])[1]
        ratios, wins = [], 0
        times: dict[str, list[float]] = {"base": [], "change": []}
        latencies: dict[str, list[list[float]]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for name in order:
                lat = one_pass(sides[name], batch, files, sigs[name])[0]
                latencies[name].append(lat)
                times[name].append(sum(lat))
            t = {name: times[name][-1] for name in order}
            ratios.append(t["change"] / t["base"])
            wins += t["change"] < t["base"]
            print(
                f"pair {pair + 1:2d} ({order[0]} first): base "
                f"{t['base']:.3f} s, change {t['change']:.3f} s, "
                f"ratio {ratios[-1]:.3f}"
            )
    quartiles = {}
    for name, ts in times.items():
        quartiles[name] = statistics.quantiles(ts, n=4)
        q1, median, q3 = quartiles[name]
        print(
            f"{name:6s} pass time: q1 {q1:.3f} s, median {median:.3f} s, "
            f"q3 {q3:.3f} s"
        )
    requests = {name: request_quantiles(ls) for name, ls in latencies.items()}
    for name, (p50, p90) in requests.items():
        print(f"{name:6s} request latency: p50 {p50:.3f} ms, p90 {p90:.3f} ms")
    (b50, b90), (c50, c90) = requests["base"], requests["change"]
    print(
        f"request ratios change/base: p50 {c50 / b50:.3f}, "
        f"p90 {c90 / b90:.3f}"
    )
    (b1, b2, b3), (_, c2, _) = quartiles["base"], quartiles["change"]
    resolved = abs(c2 - b2) >= b3 - b1
    print(
        f"{args.workload} seed {args.seed}: median ratio change/base "
        f"{statistics.median(ratios):.3f}, change faster in {wins} of "
        f"{args.pairs} pairs, {'resolved' if resolved else 'unresolved'} "
        f"(medians {abs(c2 - b2):.3f} s apart, base IQR {b3 - b1:.3f} s); "
        f"outputs byte-identical: {answers['base'] == answers['change']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
