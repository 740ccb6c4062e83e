"""One digest of cmonrw's answers to the benchmark's requests.

Runs every request of a workload's seeds, and its warm-up requests, through
`cmonrw.cli.run` in both `--format`s, and prints the number of records and
one sha256 over them. A record is the exit code, stdout and stderr of one
run. `equiv-readback` requests do not go through the CLI in the benchmark;
their record holds what `perfbench/worker.py` computes: both equality
verdicts (by `cospan_key`) and the readback text. Two checkouts that print
the same digest gave byte-identical answers.

    python3 tools/output_digest.py --workload oracle-compare --seeds 1 2 3
    python3 tools/output_digest.py --workload dpo-rewrite --seeds 1 \\
        --root ../other-checkout
    python3 tools/output_digest.py --workload oracle-compare --seeds 1 \\
        --oracle-slack 6

`--root` is the checkout whose `src/cmonrw` answers (default: this one);
the requests always come from this checkout's `perfbench/workloads.py`.
`--oracle-slack N` sends `oracle-compare` requests at bound size + N
instead of the benchmark's size + 4. The script re-runs itself under
PYTHONHASHSEED=0, as the benchmark's workers do. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FORMATS = ("text", "structured")


def write_files(tmp: str, workload: str, workloads) -> dict:
    """Write the workload's signature and rule files under tmp."""
    sig = os.path.join(tmp, "sig.txt")
    with open(sig, "w", encoding="utf-8") as fh:
        fh.write(workloads.SIGNATURES[workload])
    rules = {}
    for name, text in workloads.rule_files(workload).items():
        rules[name] = os.path.join(tmp, f"{name}.rules")
        with open(rules[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"sig": sig, "rules": rules}


def _cli_records(request, files, slack, workloads, cli, tmp):
    argv = list(request["args"])
    i = argv.index("--rules") + 1
    argv[i] = files["rules"][argv[i]]
    if slack is not None and argv[0] == "oracle-compare":
        i = argv.index("--bound") + 1
        argv[i] = str(workloads.term_size(request["host"]) + slack)
    for fmt in FORMATS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv + ["--sig", files["sig"], "--format", fmt])
            except SystemExit as exc:
                code = exc.code
        # the temporary directory's name must not reach the digest
        yield [
            argv[0],
            fmt,
            code,
            out.getvalue().replace(tmp, "<tmp>"),
            err.getvalue().replace(tmp, "<tmp>"),
        ]


def _equiv_record(request, sig, mods) -> list:
    sigterm, translate, cospan, decompose = mods
    t = sigterm.parse_term(request["t"], sig)
    u = sigterm.parse_term(request["u"], sig)
    ct = translate.eval_term(t, sig)
    key = cospan.cospan_key(ct)
    equal = key == cospan.cospan_key(translate.eval_term(u, sig))
    back = decompose.readback_term(ct, sig)
    readback_ok = cospan.cospan_key(translate.eval_term(back, sig)) == key
    return ["equiv", equal, readback_ok, sigterm.pretty_print(back)]


def digest(workload: str, seeds: list[int], root: str, slack) -> tuple:
    """(record count, sha256 hex digest) of the workload's answers."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    from cmonrw import cli, cospan, decompose, sigterm, translate

    batches = [workloads.warmup(workload)]
    batches += [workloads.requests(workload, seed) for seed in seeds]
    mods = (sigterm, translate, cospan, decompose)
    sha = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(tmp, workload, workloads)
        sig = sigterm.parse_signature(workloads.SIGNATURES[workload])
        for batch in batches:
            for request in batch:
                if workload == "equiv-readback":
                    records = [_equiv_record(request, sig, mods)]
                else:
                    records = _cli_records(
                        request, files, slack, workloads, cli, tmp
                    )
                for record in records:
                    sha.update(json.dumps(record).encode("utf-8") + b"\n")
                    count += 1
    return count, sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("dpo-rewrite", "oracle-compare", "equiv-readback"),
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--root", default=REPO)
    parser.add_argument("--oracle-slack", type=int)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    count, hexdigest = digest(
        args.workload, args.seeds, os.path.abspath(args.root), args.oracle_slack
    )
    print(
        f"{args.workload} seeds {args.seeds}: {count} records, "
        f"sha256 {hexdigest}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
