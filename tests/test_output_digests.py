"""The CLI's answers to the benchmark's requests, pinned byte for byte.

Each case runs `tools/output_digest.py` on one workload's seeds 1-3 and
compares the record count and sha256 it prints with the pinned line. A
change that alters the answers, or the requests in
`perfbench/workloads.py`, on purpose re-pins these values from a run of
the tool and records the new ones, and why they moved, in CHANGES.md."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digest.py"

PINNED = {
    "dpo-rewrite": (
        190,
        "0a8fbb9f38e39d6e407dca89973c6d1ce4cf4098d73cbd395c60abe41b28459f",
    ),
    "oracle-compare": (
        176,
        "f9bed327f1ad5dbf003365aef54dadf1a7c37b6ccddd841820f04aea2a38c763",
    ),
    "equiv-readback": (
        366,
        "fd2a136f78bca530a30ea75be688f23e810da2557a57cc4c833564ba99bab6ca",
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_answers_to_the_benchmark_requests_are_pinned(workload):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload,
         "--seeds", "1", "2", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    count, sha = PINNED[workload]
    assert done.stdout == (
        f"{workload} seeds [1, 2, 3]: {count} records, sha256 {sha}\n"
    )
