"""End-to-end CLI behaviour through the in-process entry point."""

from __future__ import annotations

import json
import os

import pytest

from cmonrw.cli import run
from cmonrw.cospan import cospan_from_document, iso_equal
from cmonrw.sigterm import parse_signature, parse_term
from cmonrw.translate import eval_term

SIG_TEXT = "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"


@pytest.fixture()
def ws(tmp_path):
    """Workspace with a signature file, a rule file, and a helper to run."""
    sig = tmp_path / "sig.txt"
    sig.write_text(SIG_TEXT)
    rules = tmp_path / "rules.txt"
    rules.write_text("rule fg : f => g\n")
    return tmp_path, str(sig), str(rules)


def translate_to_file(ws, term: str, name: str) -> str:
    tmp_path, sig, _ = ws
    out = tmp_path / name
    assert run(["translate", "--sig", sig, "--term", term, "--out", str(out)]) == 0
    return str(out)


def test_check_reports_valid_cospan(ws, capsys):
    csp = translate_to_file(ws, "f ; g", "fg.csp")
    capsys.readouterr()
    assert run(["check", "--cospan", csp]) == 0
    out = capsys.readouterr().out
    assert out == "right-monogamous: true, acyclic: true\n"


def test_check_structured_format(ws, capsys):
    csp = translate_to_file(ws, "mu", "mu.csp")
    capsys.readouterr()
    assert run(["check", "--cospan", csp, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"right-monogamous": True, "acyclic": True}


def test_translate_output_is_byte_identical(ws, capsys):
    _, sig, _ = ws
    assert run(["translate", "--sig", sig, "--term", "(f + f) ; h"]) == 0
    first = capsys.readouterr().out
    assert run(["translate", "--sig", sig, "--term", "(f + f) ; h"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert set(doc) == {"nodes", "edges", "left", "right"}


def test_translate_writes_dot_file(ws, tmp_path, capsys):
    _, sig, _ = ws
    dot = tmp_path / "out.dot"
    csp = tmp_path / "out.csp"
    assert (
        run(
            [
                "translate", "--sig", sig, "--term", "mu",
                "--out", str(csp), "--dot", str(dot),
            ]
        )
        == 0
    )
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "cluster_left" in text and "cluster_right" in text


def test_factorize_emits_levels(ws, capsys):
    csp = translate_to_file(ws, "(f + f) ; h", "host.csp")
    capsys.readouterr()
    assert run(["factorize", "--cospan", csp, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "factors" in doc and "perm" in doc
    assert len(doc["factors"]) >= 1
    for f in doc["factors"]:
        assert set(f) == {"slice", "passthrough", "merges"}


def test_readback_inverts_translate(ws, capsys):
    csp = translate_to_file(ws, "(f + s) ; h", "rb.csp")
    _, sig, _ = ws
    capsys.readouterr()
    assert run(["readback", "--cospan", csp, "--sig", sig]) == 0
    printed = capsys.readouterr().out.strip()
    sig_obj = parse_signature(SIG_TEXT)
    original = eval_term(parse_term("(f + s) ; h", sig_obj), sig_obj)
    assert iso_equal(eval_term(parse_term(printed, sig_obj), sig_obj), original)


def test_match_lists_convex_matches(ws, capsys):
    _, sig, rules = ws
    assert run(["match", "--rules", rules, "--sig", sig, "--host", "f ; f"]) == 0
    out = capsys.readouterr().out
    assert out.count("rule fg") == 2


def test_rewrite_all_lists_steps(ws, capsys):
    _, sig, rules = ws
    assert (
        run(
            [
                "rewrite", "--rules", rules, "--sig", sig,
                "--host", "f + f", "--all",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("steps: 2\n")
    assert out.count("rule fg") == 2


def test_rewrite_bfs_reaches_normal_form(ws, capsys):
    _, sig, rules = ws
    assert (
        run(
            [
                "rewrite", "--rules", rules, "--sig", sig,
                "--host", "f ; f", "--strategy", "bfs", "--max-steps", "10",
                "--format", "structured",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    forms = doc["normal-forms"]
    assert len(forms) == 1
    sig_obj = parse_signature(SIG_TEXT)
    expected = eval_term(parse_term("g ; g", sig_obj), sig_obj)
    assert iso_equal(cospan_from_document(forms[0]), expected)


def test_rewrite_budget_exhaustion_is_machine_readable(ws, tmp_path, capsys):
    _, sig, _ = ws
    comm = tmp_path / "comm.txt"
    comm.write_text("rule comm : mu => sym_1_1 ; mu\n")
    code = run(
        [
            "rewrite", "--rules", str(comm), "--sig", sig,
            "--host", "mu", "--strategy", "leftmost", "--max-steps", "3",
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "step-budget-exhausted"


def test_rewrite_dot_dir_writes_series(ws, tmp_path, capsys):
    _, sig, rules = ws
    dots = tmp_path / "dots"
    assert (
        run(
            [
                "rewrite", "--rules", rules, "--sig", sig,
                "--host", "f + f", "--all", "--dot-dir", str(dots),
            ]
        )
        == 0
    )
    names = sorted(os.listdir(dots))
    assert names == ["result_000.dot", "result_001.dot"]


def test_oracle_compare_agreement(ws, capsys):
    _, sig, rules = ws
    code = run(
        [
            "oracle-compare", "--rules", rules, "--sig", sig,
            "--host", "f ; f", "--bound", "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "symmetric difference: 0" in out


def test_oracle_compare_reports_undercount(ws, tmp_path, capsys):
    # an identity lhs needs detours above the default bound, so the oracle
    # misses two of the four rewrite classes and the comparison fails
    _, sig, _ = ws
    idg = tmp_path / "idg.txt"
    idg.write_text("rule idg : id_1 => g\n")
    code = run(
        [
            "oracle-compare", "--rules", str(idg), "--sig", sig,
            "--host", "f", "--bound", "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "symmetric difference: 0" not in out


def test_export_renders_interface_rails(ws, tmp_path, capsys):
    csp = translate_to_file(ws, "h", "h.csp")
    dot = tmp_path / "h.dot"
    assert run(["export", "--cospan", csp, "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert "cluster_left" in text and "cluster_right" in text
    assert "shape=box" in text and "shape=point" in text
    assert "headlabel" in text


def test_usage_error_exits_two(ws):
    with pytest.raises(SystemExit) as exc:
        run(["check"])
    assert exc.value.code == 2


def test_negative_max_steps_is_usage_error(ws, capsys):
    _, sig, rules = ws
    with pytest.raises(SystemExit) as exc:
        run([
            "rewrite", "--sig", sig, "--rules", rules, "--host", "f",
            "--strategy", "bfs", "--max-steps", "-1",
        ])
    assert exc.value.code == 2
    assert "--max-steps" in capsys.readouterr().err


PINNED = os.path.join(
    os.path.dirname(__file__), "data", "rewrite_outputs.json"
)
PINNED_RULES = {
    "fg": "rule fg : f => g\n",
    "mufh": "rule mufh : mu ; f => h\n",
}
PINNED_MODES = {
    "all": ["--all"],
    "leftmost": ["--strategy", "leftmost"],
    "bfs": ["--strategy", "bfs"],
}


def _pinned_cases():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "case", _pinned_cases(), ids=lambda c: f"{c['mode']}:{c['host']}"
)
def test_rewrite_output_matches_pinned_bytes(tmp_path, capsys, case):
    # outputs recorded before complements were checked by the match's own
    # map and leftmost stopped at the first step; both must not show
    sig = tmp_path / "sig.txt"
    sig.write_text(SIG_TEXT)
    rules = tmp_path / "rules.txt"
    rules.write_text(PINNED_RULES[case["rules"]])
    argv = [
        "rewrite", "--sig", str(sig), "--rules", str(rules),
        "--host", case["host"], *PINNED_MODES[case["mode"]],
        "--format", "structured",
    ]
    assert run(argv) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_unknown_generator_is_domain_error(ws, capsys):
    _, sig, _ = ws
    assert run(["translate", "--sig", sig, "--term", "zz"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "unknown-generator"


def test_missing_file_is_io_failure(ws, capsys):
    assert run(["check", "--cospan", "/nonexistent/path.csp"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "io-failure"


def test_out_files_replace_atomically(ws, tmp_path):
    _, sig, _ = ws
    out = tmp_path / "same.csp"
    for term in ("f", "g"):
        assert run(["translate", "--sig", sig, "--term", term, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["edges"][0]["label"] == "g"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith("tmp")]
    assert leftovers == []
