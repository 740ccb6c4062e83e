"""End-to-end CLI behaviour through the in-process entry point."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cmonrw import cli, cospan, oracle, sigterm
from cmonrw.cli import run
from cmonrw.cospan import cospan_from_document, cospan_key, iso_equal
from cmonrw.hypergraph import canonical_form
from cmonrw.oracle import axiom_closure
from cmonrw.sigterm import Par, Seq, parse_signature, parse_term
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
    # across runs, and across formats: the cospan document is the only one
    _, sig, _ = ws
    argv = ["translate", "--sig", sig, "--term", "(f + f) ; h", "--format"]
    assert run(argv + ["text"]) == 0
    first = capsys.readouterr().out
    assert run(argv + ["structured"]) == 0
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


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "eval_term", ["translate", "--term", "id_3"]),
        (oracle, "axiom_closure", ["oracle-compare", "--host", "id_3"]),
    ],
)
def test_running_out_of_memory_ends_in_one_record(
    ws, capsys, monkeypatch, module, name, argv
):
    # where translate and oracle-compare run out of memory on id_n at
    # large n
    _, sig, rules = ws
    if argv[0] == "oracle-compare":
        argv = argv + ["--rules", rules, "--bound", "4"]
    monkeypatch.setattr(module, name, _exhausted)
    capsys.readouterr()
    assert run(argv + ["--sig", sig]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"code": "out-of-memory", "message": f"{argv[0]} ran out of memory"}
    ]


HUGE = "100000000000000000000"  # 10**20 wires: more than a list can hold
LONG = "9" * 5000  # more digits than int() reads


@pytest.mark.parametrize(
    "declared, host",
    [
        ("", f"id_{HUGE}"),
        ("", f"sym_1_{HUGE}"),
        (f"gen w : {HUGE} -> 1", "w"),
        ("", f"id_{LONG}"),
        ("", f"sym_{LONG}_1"),
        (f"gen w : 1 -> {LONG}", "w"),
    ],
    ids=["id", "sym", "signature", "id-digits", "sym-digits", "sig-digits"],
)
def test_a_width_too_large_to_hold_ends_in_one_record(
    ws, capsys, declared, host
):
    tmp_path, _, rules = ws
    sig = tmp_path / "huge.sig"
    sig.write_text(SIG_TEXT + declared + "\n")
    on = ["--sig", str(sig)]
    with_rules = ["--rules", rules, *on, "--host", host]
    for argv in (
        ["translate", *on, "--term", host],
        ["match", *with_rules],
        ["rewrite", *with_rules],
        ["oracle-compare", *with_rules, "--bound", "4"],
    ):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"code": "out-of-memory",
             "message": f"{argv[0]} ran out of memory"}
        ]


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


def test_leftmost_budget_record_carries_the_trace_length(
    ws, tmp_path, capsys
):
    _, sig, _ = ws
    comm = tmp_path / "comm.txt"
    comm.write_text("rule comm : mu => sym_1_1 ; mu\n")
    argv = [
        "rewrite", "--rules", str(comm), "--sig", sig,
        "--host", "mu", "--strategy", "leftmost", "--max-steps", "3",
    ]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "code": "step-budget-exhausted",
        "message": "leftmost rewriting still reducible after 3 steps",
        "frontier-size": 0,
        "trace-length": 4,
        "normal-forms": [],
    }


def test_bfs_budget_record_carries_frontier_and_normal_forms(
    ws, tmp_path, capsys
):
    # f rewrites to the normal form g or grows to f ; f, whose three
    # successors are all still reducible at depth 2
    _, sig, _ = ws
    grow = tmp_path / "grow.txt"
    grow.write_text("rule fg : f => g\nrule ff : f => f ; f\n")
    argv = [
        "rewrite", "--rules", str(grow), "--sig", sig,
        "--host", "f", "--strategy", "bfs", "--max-steps", "2",
    ]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "code": "step-budget-exhausted",
        "message": "3 reducible cospans left at depth 2",
        "frontier-size": 3,
        "trace-length": 0,
        "normal-forms": [
            {
                "nodes": [0, 1],
                "edges": [
                    {"id": 0, "label": "g", "sources": [0], "targets": [1]}
                ],
                "left": [0],
                "right": [1],
            }
        ],
    }


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


def test_oracle_compare_classifies_rewrites_on_the_pool(
    ws, tmp_path, capsys, monkeypatch
):
    # the oracle's rewrites get their classes from their atoms' cospans,
    # glued once per (op, class, class): no rewrite is evaluated whole,
    # each atom and each join is keyed once, and only each class's
    # least-size rewrites are printed
    _, sig, _ = ws
    signature = parse_signature(SIG_TEXT)
    rule_texts = ["f => g", "f => f ; f", "f ; g => g ; f"]
    host_text, bound = "f ; g", 9
    pairs = [
        tuple(parse_term(side, signature) for side in rule.split("=>"))
        for rule in rule_texts
    ]
    host = parse_term(host_text, signature)
    evaluated, keyed, glued, printed = [], [], [], []

    def counting(log, fn, record=lambda *args: args[0]):
        def wrapper(*args):
            log.append(record(*args))
            return fn(*args)

        return wrapper

    def glue_record(op):
        return lambda a, b: (op, cospan_key(a), cospan_key(b))

    monkeypatch.setattr(cli, "eval_term", counting(evaluated, eval_term))
    monkeypatch.setattr(cli, "cospan_key", counting(keyed, cospan_key))
    for name, op in (("compose", ";"), ("tensor", "+")):
        glue = counting(glued, getattr(cospan, name), glue_record(op))
        monkeypatch.setattr(cli, name, glue, raising=False)
    monkeypatch.setattr(
        cli, "pretty_print", counting(printed, sigterm.pretty_print)
    )
    rules = tmp_path / "three.rules"
    rules.write_text(
        "".join(f"rule r{i} : {r}\n" for i, r in enumerate(rule_texts))
    )
    argv = [
        "oracle-compare", "--rules", str(rules), "--sig", sig,
        "--host", host_text, "--bound", str(bound),
    ]
    assert run(argv) == 0
    assert "symmetric difference: 0" in capsys.readouterr().out

    # the rule sides and the host, then the atoms of the rewrites
    given = [side for pair in pairs for side in pair] + [host]
    atoms = evaluated[len(given):]
    assert evaluated[: len(given)] == given
    assert not any(isinstance(t, (Seq, Par)) for t in atoms)
    assert len(set(atoms)) == len(atoms) > 0
    assert len(set(glued)) == len(glued) > 0
    assert len(keyed) <= len(atoms) + len(glued)

    # the least-size rewrites of each class, per rule
    pool, found = oracle.enumerate_rewrite_keys(pairs, host, bound)
    least: dict[tuple, list] = {}
    for r, rewrites in enumerate(found):
        for t in map(pool.term, rewrites):
            key = cospan_key(eval_term(t, signature))
            least.setdefault((r, key), []).append(t)
    ties = set()
    for group in least.values():
        size = min(t.size for t in group)
        ties.update(t for t in group if t.size == size)
    assert set(printed) <= ties
    assert len(printed) < sum(map(len, found))


@pytest.mark.parametrize(
    "rule, host, bound",
    [
        ("f => g", "f ; f", 8),
        ("f => g", "(f + f) ; mu", 9),
        ("s => s ; f", "(s + s) ; mu", 9),
        ("h => sym_1_1 ; h", "(f + f) ; h", 9),
    ],
)
def test_oracle_compare_computes_one_order_key_per_class(
    ws, tmp_path, capsys, monkeypatch, rule, host, bound
):
    # every cospan is keyed by cospan_key; the canonical form only puts
    # the printed classes in order
    _, sig, _ = ws
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(cospan, "canonical_form", counting)
    rules = tmp_path / "one.rules"
    rules.write_text(f"rule r : {rule}\n")
    argv = [
        "oracle-compare", "--rules", str(rules), "--sig", sig,
        "--host", host, "--bound", str(bound), "--format", "structured",
    ]
    assert run(argv) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    printed = len(doc["dpo"]) + len(doc["only-oracle"])
    assert printed >= 1
    assert len(calls) <= printed


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


def test_export_escapes_labels_and_quotes_negative_ids(ws, tmp_path):
    # a label holding a quote, a backslash and a newline stays one DOT
    # string; n-1 would read as the ID n and the numeral -1, so negative
    # ids are quoted, and ids of 0 and up are left as they were
    csp = tmp_path / "bad.csp"
    edge = _edge(id=-2, label='a"b\\\nc', sources=[-1], targets=[0])
    csp.write_text(json.dumps(_doc(nodes=[-1, 0], edges=[edge], left=[-1],
                                   right=[0])))
    dot = tmp_path / "bad.dot"
    assert run(["export", "--cospan", str(csp), "--dot", str(dot)]) == 0
    lines = dot.read_text().splitlines()
    assert lines[-8:] == [
        '  "n-1" [shape=point, xlabel="-1"];',
        '  n0 [shape=point, xlabel="0"];',
        '  "e-2" [shape=box, label="a\\"b\\\\\\nc"];',
        '  "n-1" -> "e-2" [headlabel="0"];',
        '  "e-2" -> n0 [headlabel="0"];',
        '  l0 -> "n-1" [style=dashed, arrowhead=none];',
        '  n0 -> r0 [style=dashed, arrowhead=none];',
        "}",
    ]


def test_export_into_a_missing_directory_is_an_io_failure(
    ws, tmp_path, capsys
):
    csp = translate_to_file(ws, "h", "h.csp")
    dot = tmp_path / "missing" / "h.dot"
    capsys.readouterr()
    assert run(["export", "--cospan", csp, "--dot", str(dot)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["code"] == "io-failure"
    assert record["location"] == str(dot)
    assert record["message"].startswith(f"cannot write {dot}: ")
    assert not dot.parent.exists()


def test_usage_error_exits_two(ws):
    with pytest.raises(SystemExit) as exc:
        run(["check"])
    assert exc.value.code == 2


def test_mixed_subcommands_in_one_process(ws, capsys, monkeypatch):
    # the parser is built once per process; every later run, usage errors
    # included, reads it without a new parser and without leftover state
    _, sig, rules = ws
    assert run(["translate", "--sig", sig, "--term", "f ; f"]) == 0
    first = capsys.readouterr().out
    built = []
    make = argparse.ArgumentParser.__init__

    def building(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        make(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", building)
    rewrite = ["rewrite", "--sig", sig, "--rules", rules, "--host", "f ; f"]
    for _ in range(2):
        assert run(rewrite + ["--all", "--format", "structured"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert [s["rule"] for s in steps] == ["fg", "fg"]
        with pytest.raises(SystemExit) as exc:
            run(["rewrite", "--sig", sig, "--rules", rules])
        assert exc.value.code == 2
        assert "--host" in capsys.readouterr().err
        assert run(rewrite + ["--strategy", "bfs"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("normal forms: 1\n")
        assert '"label": "f"' not in out and '"label": "g"' in out
        csp = translate_to_file(ws, "f ; g", "fg.csp")
        assert run(["check", "--cospan", csp]) == 0
        assert capsys.readouterr().out == (
            "right-monogamous: true, acyclic: true\n"
        )
        assert run(["translate", "--sig", sig, "--term", "f ; f"]) == 0
        assert capsys.readouterr().out == first
    assert built == []


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True)
    | st.text()
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(), JSON_DOCS, max_size=5))
def test_document_writer_is_json_dumps_indent_2(doc):
    # empty containers, nested lists, bools/None, non-ASCII and escaped
    # strings: all written as json.dumps writes them
    assert cli._doc_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_document_writer_on_chosen_documents():
    docs = [
        {},
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        {"x": [1, -2, 10**30], "y": [True, False, None, 0]},
        {"é\n\t\"\\\u2028\U0001f600": "\x00\x1f\u00ff"},
        {"nested": [[1, [2, [3, {"k": [4]}]]]], "float": 1.5},
    ]
    for doc in docs:
        assert cli._doc_json(doc) == json.dumps(doc, indent=2) + "\n"


# ids: small, negative, and of about 4,000 digits, under int()'s limit
WRITER_IDS = st.integers(-3, 6) | st.integers(10**3999, 10**4000).map(
    lambda n: n * (-1) ** (n % 2)
)


@st.composite
def writer_cospans(draw) -> cospan.Cospan:
    """A cospan read from a document: possibly no nodes or no edges,
    edges with no sources or no targets, interface lists that repeat
    nodes, and any label text, non-ASCII and escaped characters
    included."""
    nodes = draw(st.lists(WRITER_IDS, max_size=5, unique=True))
    node = st.sampled_from(nodes) if nodes else st.nothing()
    ends = st.lists(node, max_size=3) if nodes else st.just([])
    edges = [
        _edge(id=eid, label=draw(st.text(max_size=6)),
              sources=draw(ends), targets=draw(ends))
        for eid in draw(st.lists(WRITER_IDS, max_size=4, unique=True))
    ]
    doc = _doc(nodes=nodes, edges=edges, left=draw(ends), right=draw(ends))
    return cospan_from_document(json.loads(json.dumps(doc)))


@settings(max_examples=200, deadline=None)
@given(writer_cospans(), st.integers(0, 3))
def test_cospan_writer_matches_the_document_writer(c, depth):
    # a cospan is written straight from its carrier, byte for byte as its
    # document is at the same nesting depth
    newline = "\n" + "  " * depth
    doc = cospan.cospan_to_document(c)
    assert cli._json(c, newline) == cli._json(doc, newline)


def test_cospan_writer_on_chosen_cospans():
    big = 10**3999
    docs = [
        _doc(nodes=[], left=[], right=[]),
        _doc(),
        _doc(nodes=[0], edges=[_edge(sources=[], targets=[0])], left=[0, 0],
             right=[]),
        _doc(nodes=[-1, big], edges=[_edge(id=-2, label='a"b\\\n\u00e9',
                                           sources=[-1], targets=[big])],
             left=[-1], right=[big, big]),
    ]
    for doc in docs:
        c = cospan_from_document(doc)
        for depth in range(4):
            newline = "\n" + "  " * depth
            assert cli._json(c, newline) == cli._json(doc, newline)
        assert cli._doc_json(c) == json.dumps(doc, indent=2) + "\n"


def _as_documents(value):
    """value with every cospan in it replaced by its document."""
    if isinstance(value, cospan.Cospan):
        return cospan.cospan_to_document(value)
    if isinstance(value, dict):
        return {k: _as_documents(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_documents(v) for v in value]
    return value


@pytest.mark.parametrize(
    "host", ["f ; f", "(s + s) ; h ; f", "(f + g) ; mu ; f"]
)
def test_structured_output_is_json_dumps_of_the_documents(
    ws, tmp_path, host, monkeypatch
):
    # each command's stdout and --out file, written from the cospans,
    # equals json.dumps(indent=2) of the payload built from documents
    _, sig, _ = ws
    rules = tmp_path / "both.txt"
    rules.write_text("rule fg : f => g\nrule hm : h => mu\n")
    csp = tmp_path / "host.csp"
    translate = ["translate", "--sig", sig, "--term", host]
    assert run(translate + ["--out", str(csp)]) == 0
    on_host = ["--rules", str(rules), "--sig", sig, "--host", host]
    commands = [
        translate,
        translate + ["--out", "OUT"],
        ["factorize", "--cospan", str(csp)],
        ["factorize", "--cospan", str(csp), "--out", "OUT"],
        ["rewrite", *on_host, "--all"],
        ["rewrite", *on_host, "--strategy", "bfs"],
        ["rewrite", *on_host, "--strategy", "leftmost"],
        ["oracle-compare", *on_host, "--bound", "9"],
    ]

    def answers(argv):
        out = tmp_path / "out.json"
        argv = [str(out) if a == "OUT" else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv + ["--format", "structured"])
        text = out.read_text() if "--out" in argv else ""
        return code, stdout.getvalue(), text

    got = [answers(argv) for argv in commands]
    monkeypatch.setattr(
        cli, "_doc_json",
        lambda v: json.dumps(_as_documents(v), indent=2) + "\n",
    )
    for argv, answer in zip(commands, got):
        assert answer == answers(argv), argv
        assert answer[1] or answer[2], argv


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


def _pinned_cases(path=PINNED):
    with open(path, encoding="utf-8") as fh:
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


GLUE_PINNED = os.path.join(
    os.path.dirname(__file__), "data", "rewrite_outputs_glue.json"
)
GLUE_SIG_TEXT = SIG_TEXT + "gen c : 1 -> 2\n"
GLUE_RULES = {
    "hmu": "rule hmu : h => mu\n",
    "fid": "rule fid : f => id_1\n",
    "feta": "rule feta : f => (s + f) ; mu\n",
    "chf": "rule chf : c ; h => f\n",
    "idf": "rule idf : id_1 => f\n",
}


@pytest.mark.parametrize(
    "case",
    _pinned_cases(GLUE_PINNED),
    ids=lambda c: f"{c['rules']}:{c['mode']}:{c['host']}",
)
def test_gluing_rewrite_output_matches_pinned_bytes(tmp_path, capsys, case):
    # outputs recorded while each result was glued into a complement by a
    # pushout: rhs sides that glue interface nodes (mu, id_1, a merge fed
    # by a fresh s, an edgeless lhs) on hosts whose left interface meets
    # the match. The rules that never terminate run two steps deep, and
    # their budget record is pinned too
    sig = tmp_path / "sig.txt"
    sig.write_text(GLUE_SIG_TEXT)
    rules = tmp_path / "rules.txt"
    rules.write_text(GLUE_RULES[case["rules"]])
    argv = [
        "rewrite", "--sig", str(sig), "--rules", str(rules),
        "--host", case["host"], *PINNED_MODES[case["mode"]],
        "--format", "structured",
    ]
    if "max_steps" in case:
        argv += ["--max-steps", str(case["max_steps"])]
    assert run(argv) == case["exit"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (case["stdout"], case["stderr"])


ORACLE_PINNED = os.path.join(
    os.path.dirname(__file__), "data", "oracle_outputs.json"
)
ORACLE_RULES = {
    "fg": "rule fg : f => g\n",
    "sf": "rule sf : s => s ; f\n",
    "hsplit": "rule hsplit : h => (g + g) ; h\n",
    "fswap": "rule fswap : f ; g => g ; f\n",
    "feta": "rule feta : f => (s + f) ; mu\n",
    "hcomm": "rule hcomm : h => sym_1_1 ; h\n",
    "smerge": "rule smerge : (s + s) ; mu => s\n",
    "fg-fdup-fswap": (
        "rule fg : f => g\n"
        "rule fdup : f => f ; f\n"
        "rule fswap : f ; g => g ; f\n"
    ),
}


@pytest.mark.parametrize(
    "case",
    _pinned_cases(ORACLE_PINNED),
    ids=lambda c: f"{c['rules']}:{c['host']}:{c['format']}",
)
def test_oracle_compare_output_matches_pinned_bytes(
    tmp_path, capsys, monkeypatch, case
):
    # outputs recorded with one closure per rule and matching on Terms; one
    # closure per file must not change a byte. `fg` on `(f + f) ; mu` is
    # the pair the bound truncates (exit 1)
    closures = []

    def counting_closure(t, bound):
        closures.append(t)
        return axiom_closure(t, bound)

    monkeypatch.setattr(oracle, "axiom_closure", counting_closure)
    sig = tmp_path / "sig.txt"
    sig.write_text(SIG_TEXT)
    rules = tmp_path / "rules.txt"
    rules.write_text(ORACLE_RULES[case["rules"]])
    argv = [
        "oracle-compare", "--sig", str(sig), "--rules", str(rules),
        "--host", case["host"], "--bound", str(case["bound"]),
        "--format", case["format"],
    ]
    assert run(argv) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    assert len(closures) == 1


def test_unknown_generator_is_domain_error(ws, capsys):
    _, sig, _ = ws
    assert run(["translate", "--sig", sig, "--term", "zz"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "unknown-generator"


def test_missing_file_is_io_failure(ws, capsys):
    assert run(["check", "--cospan", "/nonexistent/path.csp"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "io-failure"


@pytest.mark.parametrize("command", ["rewrite", "match"])
def test_missing_csp_host_is_io_failure(ws, capsys, command):
    tmp_path, sig, rules = ws
    host = str(tmp_path / "missing.csp")
    assert run([command, "--sig", sig, "--rules", rules, "--host", host]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (record,) = [json.loads(line) for line in captured.err.splitlines()]
    assert record["code"] == "io-failure"
    assert record["location"] == host


def test_out_files_replace_atomically(ws, tmp_path):
    _, sig, _ = ws
    out = tmp_path / "same.csp"
    for term in ("f", "g"):
        assert run(["translate", "--sig", sig, "--term", term, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["edges"][0]["label"] == "g"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith("tmp")]
    assert leftovers == []


def test_a_file_named_like_the_term_does_not_change_the_answer(
    ws, tmp_path, capsys, monkeypatch
):
    _, sig, rules = ws
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("g")
    assert run(["translate", "--sig", sig, "--term", "f"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in doc["edges"]] == ["f"]
    assert run(["translate", "--sig", sig, "--term-file", "f"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in doc["edges"]] == ["g"]
    base = ["rewrite", "--sig", sig, "--rules", rules, "--all"]
    assert run(base + ["--host", "f"]) == 0
    assert capsys.readouterr().out.startswith("steps: 1\n")
    assert run(base + ["--host-file", "f"]) == 0
    assert capsys.readouterr().out == "steps: 0\n"


@pytest.mark.parametrize(
    "options",
    [
        ["translate"],
        ["translate", "--term", "f", "--term-file", "f"],
        ["rewrite", "--rules", "r"],
        ["match", "--rules", "r", "--host", "f", "--host-file", "f"],
    ],
)
def test_term_options_are_one_of_text_or_file(ws, capsys, options):
    _, sig, _ = ws
    with pytest.raises(SystemExit) as exc:
        run(options + ["--sig", sig])
    assert exc.value.code == 2
    assert "--" in capsys.readouterr().err


def _edge(**fields):
    return {"id": 0, "label": "f", "sources": [0], "targets": [1], **fields}


def _doc(**fields):
    return {"nodes": [0, 1], "edges": [], "left": [0], "right": [1], **fields}


@pytest.mark.parametrize(
    "doc, location",
    [
        ([1, 2], "$"),
        ({"nodes": [0], "left": [0], "right": [0]}, "$.edges"),
        (_doc(nodes="ab"), "$.nodes"),
        (_doc(nodes=[0, "1"]), "$.nodes[1]"),
        (_doc(right=1), "$.right"),
        (_doc(edges={}), "$.edges"),
        (_doc(edges=[_edge(sources=0)]), "$.edges[0].sources"),
        (_doc(edges=[_edge(targets=[1.0])]), "$.edges[0].targets[0]"),
        (_doc(edges=[{"id": 0}]), "$.edges[0].label"),
        (_doc(edges=[_edge(id="0")]), "$.edges[0].id"),
        (_doc(edges=[_edge(), _edge()]), "$.edges[1].id"),
        # as text, since json.dumps cannot write an int of LONG's digits
        pytest.param('{"nodes": [' + LONG + "]}", "$", id="doc11-$"),
    ],
)
def test_malformed_host_document_is_document_error(ws, capsys, doc, location):
    tmp_path, sig, rules = ws
    host = tmp_path / "x.csp"
    host.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["rewrite", "--sig", sig, "--rules", rules, "--host", str(host)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (record,) = [json.loads(line) for line in captured.err.splitlines()]
    assert record["code"] == "document-error"
    assert record["location"] == location


def test_well_formed_document_still_loads(ws, capsys):
    tmp_path, sig, rules = ws
    host = tmp_path / "ok.csp"
    host.write_text(json.dumps(_doc(edges=[_edge()])))
    argv = ["rewrite", "--sig", sig, "--rules", rules, "--host", str(host)]
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("normal forms: 1\n")


def test_translate_of_a_3000_factor_chain(ws, tmp_path, capsys):
    _, sig, _ = ws
    term = tmp_path / "chain.term"
    term.write_text(" ; ".join(["f"] * 3000))
    out = tmp_path / "chain.csp"
    argv = ["translate", "--sig", sig, "--term-file", str(term)]
    assert run(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["edges"]) == 3000
    assert doc["left"] == [0] and doc["right"] == [3000]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_translate_of_f_inside_deep_parentheses(ws, tmp_path, capsys, depth):
    _, sig, _ = ws
    assert run(["translate", "--sig", sig, "--term", "f"]) == 0
    flat = capsys.readouterr().out
    term = tmp_path / "nested.term"
    term.write_text("(" * depth + "f" + ")" * depth)
    assert run(["translate", "--sig", sig, "--term-file", str(term)]) == 0
    assert capsys.readouterr() == (flat, "")
    term.write_text("(" * depth + "f" + ")" * (depth - 1))
    assert run(["translate", "--sig", sig, "--term-file", str(term)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "code": "syntax-error",
        "message": "expected ')', got end of input",
    }


BIG_RULE = "rule big : " + " ; ".join(["f"] * 3000) + " => f\n"


@pytest.mark.parametrize(
    "command,expected",
    [
        (["rewrite", "--host", "f"], "normal forms: 1\n"),
        (["rewrite", "--host", "f", "--all"], "steps: 0\n"),
        (["match", "--host", "f"], "matches: 0\n"),
        (
            ["oracle-compare", "--host", "f", "--bound", "4"],
            "oracle classes: 0\n",
        ),
    ],
    ids=["rewrite", "rewrite-all", "match", "oracle-compare"],
)
def test_rule_with_a_3000_factor_side(ws, tmp_path, capsys, command, expected):
    _, sig, _ = ws
    rules = tmp_path / "big.rules"
    rules.write_text(BIG_RULE)
    assert run(command + ["--sig", sig, "--rules", str(rules)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(expected)
    assert captured.err == ""


def test_match_of_a_1500_factor_rule_on_a_1500_factor_chain(
    ws, tmp_path, capsys
):
    _, sig, _ = ws
    chain = " ; ".join(["f"] * 1500)
    rules = tmp_path / "big.rules"
    rules.write_text(f"rule big : {chain} => f\n")
    host = tmp_path / "chain.term"
    host.write_text(chain)
    argv = [
        "match", "--sig", sig, "--rules", str(rules), "--host-file", str(host)
    ]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("matches: 1\n")
    assert captured.err == ""


@pytest.mark.parametrize("inputs", [900, 1500])
def test_readback_of_a_wide_merge(ws, tmp_path, capsys, inputs):
    _, sig, _ = ws
    doc = {"nodes": [0], "edges": [], "left": [0] * inputs, "right": [0]}
    csp = tmp_path / "merge.csp"
    csp.write_text(json.dumps(doc))
    assert run(["readback", "--cospan", str(csp), "--sig", sig]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    sig_obj = parse_signature(SIG_TEXT)
    back = eval_term(parse_term(captured.out, sig_obj), sig_obj)
    assert iso_equal(back, cospan_from_document(doc))


def test_readback_rejects_an_edge_used_at_the_wrong_type(ws, tmp_path, capsys):
    # f is declared 1 -> 1 and k nowhere: an f or k edge with two sources
    # reads back to no term, with the record translate gives for the term
    _, sig, _ = ws
    for label, record in [
        ("f", {"code": "type-mismatch",
               "message": "generator 'f' used at 2->1 but declared 1->1"}),
        ("k", {"code": "unknown-generator",
               "message": "generator 'k' not declared"}),
    ]:
        doc = _doc(
            nodes=[0, 1, 2],
            edges=[_edge(label=label, sources=[0, 1], targets=[2])],
            left=[0, 1],
            right=[2],
        )
        csp = tmp_path / "mistyped.csp"
        csp.write_text(json.dumps(doc))
        assert run(["readback", "--cospan", str(csp), "--sig", sig]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(ln) for ln in captured.err.splitlines()] == [record]


FUZZ_RULES = "rule fg : f => g\nrule hm : h => mu\n"
# k is declared nowhere; the others at SIG_TEXT's types
FUZZ_LABELS = st.sampled_from(["f", "g", "h", "s", "k"])
BAD_VALUES = st.sampled_from(["0", None, 1.5, True, {}, [None], [1.0]])


@st.composite
def fuzz_documents(draw) -> dict:
    """A cospan document of at most 5 nodes, 4 edges and arity 2.

    Edges take their sources from nodes no earlier edge consumes, and
    right lists the nodes none consumes, so most documents are
    right-monogamous; labels are any of FUZZ_LABELS at any arity. Some
    documents then get a fault: an unknown node, a value of the wrong
    type, a missing key, or a node consumed twice."""
    nodes = list(range(draw(st.integers(0, 5))))
    node = st.sampled_from(nodes) if nodes else st.nothing()
    free = list(nodes)
    edges = []
    for eid in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, min(2, len(free))))
        sources = draw(st.permutations(free))[:k]
        free = [v for v in free if v not in sources]
        targets = draw(st.lists(node, max_size=2)) if nodes else []
        edges.append(_edge(id=eid, label=draw(FUZZ_LABELS),
                           sources=sources, targets=targets))
    doc = _doc(
        nodes=nodes,
        edges=edges,
        left=draw(st.lists(node, max_size=2)) if nodes else [],
        right=draw(st.permutations(free)),
    )
    fault = draw(st.sampled_from(
        [None] * 4 + ["unknown-node", "bad-value", "missing-key", "reuse"]
    ))
    holders = [doc] + edges
    holder = draw(st.sampled_from(holders))
    key = draw(st.sampled_from(sorted(holder)))
    if fault == "unknown-node":
        lists = ["left", "right"] if holder is doc else ["sources", "targets"]
        holder[draw(st.sampled_from(lists))].append(len(nodes) + 1)
    elif fault == "bad-value":
        holder[key] = draw(BAD_VALUES)
    elif fault == "missing-key":
        del holder[key]
    elif fault == "reuse" and nodes:
        doc["right"].append(draw(node))
    return doc


@settings(max_examples=200, deadline=None)
@given(fuzz_documents())
def test_cli_on_fuzzed_documents_ends_in_an_answer_or_one_record(doc):
    # no traceback: exit 0 with an answer, or exit 1 with one JSON record
    # (check prints its verdict instead); a readback reads back the same
    # cospan
    sig = parse_signature(SIG_TEXT)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "sig").write_text(SIG_TEXT)
        (tmp / "rules").write_text(FUZZ_RULES)
        (tmp / "doc.csp").write_text(json.dumps(doc))
        csp, on = str(tmp / "doc.csp"), ["--sig", str(tmp / "sig")]
        host = ["--rules", str(tmp / "rules"), *on, "--host", csp]
        for argv in (
            ["check", "--cospan", csp],
            ["factorize", "--cospan", csp],
            ["readback", "--cospan", csp, *on],
            ["match", *host],
            ["rewrite", *host, "--all"],
            ["rewrite", *host, "--strategy", "bfs"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out):
                with contextlib.redirect_stderr(err):
                    code = run(argv)
            out, err = out.getvalue(), err.getvalue()
            # well-formed arguments: never the usage error's exit 2
            assert code in (0, 1), argv
            if code == 0:
                assert err == ""
            elif argv[0] == "check" and not err:
                assert out.startswith("right-monogamous: ")
            else:
                [record] = map(json.loads, err.splitlines())
                assert set(record) >= {"code", "message"}
            if argv[0] == "readback" and code == 0:
                back = eval_term(parse_term(out, sig), sig)
                given_doc = cospan_from_document(doc)
                assert cospan_key(back) == cospan_key(given_doc)


# atoms SIG_TEXT declares or the grammar builds in; k, undeclared; two
# too wide to hold; two malformed; w, which some signature lines add
FUZZ_ATOMS = st.sampled_from(
    ["f", "g", "h", "s", "mu", "eta", "id_1", "id_2", "sym_1_1"] * 3
    + ["id_0", "k", f"id_{HUGE}", f"sym_1_{HUGE}", "id_", "sym_1", "w"]
)
# lines a signature file may add to SIG_TEXT's
FUZZ_SIG_LINES = st.sampled_from(
    ["gen w : 1 -> 1", "# comment"] * 4
    + [f"gen w : {HUGE} -> 1", "gen mu : 2 -> 1", "gen f : 1 -> 1",
       "gen f 1 -> 1", "gen 1f : 1 -> 1", "gen id_3 : 1 -> 1", "gen"]
)
FUZZ_GOOD_RULES = st.sampled_from(
    ["f => g", "h => mu", "mu => sym_1_1 ; mu", "f ; f => f", "s => eta",
     "(id_1 + s) ; h => f"]
)


@st.composite
def fuzz_term_text(draw) -> str:
    """Up to four atoms joined by ';' or '+', parenthesised where the
    operator changes and else at random; sometimes a stray token (an
    unbalanced or doubled operator, a bad character) goes at a random
    place."""
    text, last = draw(FUZZ_ATOMS), None
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from([" ; ", " + "]))
        if last not in (None, op) or draw(st.booleans()):
            text = f"({text})"
        text, last = text + op + draw(FUZZ_ATOMS), op
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from(["(", ")", ";", "+", "!", " ; ;", "-"]))
        text = text[:at] + stray + text[at:]
    return text


@st.composite
def fuzz_rule_file(draw) -> str:
    """Up to three rule lines: most well typed, some with fuzzed sides,
    some malformed or with a repeated name."""
    lines = []
    for i in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from([f"r{i}"] * 4 + ["r0"]))
        lhs, rhs = draw(fuzz_term_text()), draw(fuzz_term_text())
        lines.append(draw(st.sampled_from([
            *[f"rule {name} : {draw(FUZZ_GOOD_RULES)}"] * 4,
            f"rule {name} : {lhs} => {rhs}",
            f"rule {name} : {lhs} => {lhs}",
            f"rule {name} : {lhs}",
            f"rule : {lhs} => {rhs}",
        ])))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(FUZZ_SIG_LINES, max_size=1),
    fuzz_rule_file(),
    fuzz_term_text(),
    st.integers(0, 7),
)
def test_cli_on_fuzzed_text_ends_in_an_answer_or_one_record(
    sig_lines, rules_text, host, bound
):
    # no exception escapes run: exit 0, exit 1 with one JSON record (or
    # oracle-compare's disagreement verdict on stdout), or the usage
    # error's exit 2 for a host text that starts like an option. bfs goes
    # one step deep: a rule with an edgeless side, such as id_1 => f,
    # grows its frontier tenfold a step, and bfs has no state budget yet
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "sig").write_text(SIG_TEXT + "\n".join(sig_lines) + "\n")
        (tmp / "rules").write_text(rules_text)
        on = ["--sig", str(tmp / "sig")]
        with_rules = ["--rules", str(tmp / "rules"), *on, "--host", host]
        for argv in (
            ["translate", *on, "--term", host],
            ["match", *with_rules],
            ["rewrite", *with_rules, "--all"],
            ["rewrite", *with_rules, "--strategy=bfs", "--max-steps=1"],
            ["oracle-compare", *with_rules, "--bound", str(bound)],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out):
                with contextlib.redirect_stderr(err):
                    try:
                        code = run(argv)
                    except SystemExit as exc:
                        code = exc.code
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2), argv
            if code == 0:
                assert err == ""
            elif code == 1 and argv[0] == "oracle-compare" and not err:
                assert "\nsymmetric difference: " in out
            elif code == 1:
                [record] = map(json.loads, err.splitlines())
                assert set(record) >= {"code", "message"}
