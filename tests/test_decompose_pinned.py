"""Decompose-side outputs pinned byte for byte.

tests/data/decompose_outputs.json holds the structured and text output of
``translate``, ``factorize`` and ``readback`` on layered, merge-heavy and
branched hosts, and the documents of the three cospans ``strong_decompose``
returns on seeded corpus inputs. Regenerate the file only when an output is
meant to change: ``PYTHONPATH=src:tests python -c "import
test_decompose_pinned as t; t.record()"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile

import pytest

from cmonrw.cli import run
from corpus import (
    random_convex_sub,
    random_gluing,
    random_in_cuts,
    random_out_cuts,
    random_rm_cospan,
    random_updown_signature,
)
from cmonrw.cospan import cospan_to_document
from cmonrw.decompose import strong_decompose, weak_decompose

PINNED = os.path.join(
    os.path.dirname(__file__), "data", "decompose_outputs.json"
)
SIG_TEXT = "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"
HOSTS = [
    "f ; g ; f ; g",
    "(f + g) ; (g + f) ; h",
    "(f + f + f) ; (mu + id_1) ; mu ; g",
    "(s + f + s + eta) ; (mu + mu) ; h",
    "((f ; g) + (g ; f) + s) ; (mu + id_1) ; h",
    "(f + g + f) ; (id_1 + sym_1_1) ; (h + f) ; (g + g) ; mu",
]
COMMANDS = [
    ("translate", "structured"),
    ("factorize", "structured"),
    ("factorize", "text"),
    ("readback", "structured"),
    ("readback", "text"),
]
STRONG_SEEDS = range(10)


def _cli_argv(tmp_dir: str, host: str, command: str, fmt: str) -> list[str]:
    """Write the signature and the host's cospan document into tmp_dir and
    return the command line for one pinned case."""
    sig = os.path.join(tmp_dir, "sig.txt")
    with open(sig, "w", encoding="utf-8") as fh:
        fh.write(SIG_TEXT)
    csp = os.path.join(tmp_dir, "host.csp")
    assert run(["translate", "--sig", sig, "--term", host, "--out", csp]) == 0
    argv = {
        "translate": ["translate", "--sig", sig, "--term", host],
        "factorize": ["factorize", "--cospan", csp],
        "readback": ["readback", "--cospan", csp, "--sig", sig],
    }[command]
    return argv + ["--format", fmt]


def strong_documents(seed: int) -> str:
    """The three strong_decompose factors of one seeded corpus input, in
    the order the acceptance test draws them from the rng."""
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    sub = random_convex_sub(rng, c.carrier)
    wd = weak_decompose(c, sub, random_updown_signature(rng, c, sub))
    inout = (
        random_in_cuts(rng, wd.upstream, wd.passthrough),
        random_out_cuts(rng, wd.extracted),
    )
    parts = strong_decompose(wd, inout, random_gluing(rng, wd, inout))
    return json.dumps([cospan_to_document(p) for p in parts])


def _capture(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


def record() -> None:
    """Rewrite the pinned file from the code as it stands."""
    cli = []
    with tempfile.TemporaryDirectory() as tmp:
        for host in HOSTS:
            for command, fmt in COMMANDS:
                argv = _cli_argv(tmp, host, command, fmt)
                cli.append(
                    {
                        "host": host,
                        "command": command,
                        "format": fmt,
                        "stdout": _capture(argv),
                    }
                )
    strong = [
        {"seed": s, "documents": strong_documents(s)} for s in STRONG_SEEDS
    ]
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "strong": strong}, fh, indent=1)
        fh.write("\n")


def _pinned() -> dict:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "case",
    _pinned()["cli"],
    ids=lambda c: f"{c['command']}-{c['format']}:{c['host']}",
)
def test_cli_output_matches_pinned_bytes(tmp_path, capsys, case):
    argv = _cli_argv(
        str(tmp_path), case["host"], case["command"], case["format"]
    )
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_pinned_cases_cover_every_host_and_command():
    cases = {(c["host"], c["command"], c["format"]) for c in _pinned()["cli"]}
    assert cases == {(h, c, f) for h in HOSTS for c, f in COMMANDS}


@pytest.mark.parametrize(
    "case", _pinned()["strong"], ids=lambda c: str(c["seed"])
)
def test_strong_decompose_matches_pinned_documents(case):
    assert strong_documents(case["seed"]) == case["documents"]
