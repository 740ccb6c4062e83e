"""Batch command-line front end.

Subcommands wire parsing, translation, factorisation, checking, rewriting,
oracle comparison, and DOT export. Output is deterministic: identical
invocations produce byte-identical results, and files land atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .cospan import (
    Cospan,
    cospan_from_document,
    cospan_key,
    cospan_to_document,
    cospan_to_dot,
    is_right_monogamous,
)
from .decompose import factorise_into_levels, readback_term
from .dpo import (
    enumerate_convex_matches,
    normalize,
    parse_rule_terms,
    parse_rules,
    rewrite_all,
)
from .errors import CmonrwError, IoFailure
from .hypergraph import is_acyclic
from .oracle import enumerate_rewrites_bruteforce
from .sigterm import (
    Signature,
    Term,
    parse_signature,
    parse_term,
    pretty_print,
    term_size,
)
from .translate import eval_term


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}", location=path)


def _atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cmonrw-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}", location=path)


def _load_cospan(path: str) -> Cospan:
    return cospan_from_document(json.loads(_read_file(path)))


def _load_term(value: str, sig: Signature) -> Term:
    """Accept either a path to a term file or inline term text."""
    if os.path.exists(value):
        return parse_term(_read_file(value), sig)
    return parse_term(value, sig)


def _doc_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(args, text: str, out_path: str | None = None) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    c = _load_cospan(args.cospan)
    rm = is_right_monogamous(c)
    ac = is_acyclic(c.carrier)
    if args.format == "structured":
        _emit(args, _doc_json({"right-monogamous": rm, "acyclic": ac}))
    else:
        _emit(
            args,
            "right-monogamous: %s, acyclic: %s\n"
            % (str(rm).lower(), str(ac).lower()),
        )
    return 0 if rm and ac else 1


def _cmd_translate(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    t = _load_term(args.term, sig)
    c = eval_term(t, sig)
    # the cospan document is already the text interchange format
    _emit(args, _doc_json(cospan_to_document(c)), args.out)
    if args.dot:
        _atomic_write(args.dot, cospan_to_dot(c))
    return 0


def _cmd_factorize(args) -> int:
    c = _load_cospan(args.cospan)
    lf = factorise_into_levels(c)
    payload = {
        "factors": [
            {
                "slice": cospan_to_document(f.slice),
                "passthrough": f.passthrough,
                "merges": cospan_to_document(f.merges),
            }
            for f in lf.factors
        ],
        "perm": list(lf.perm.table),
    }
    if args.format == "structured":
        _emit(args, _doc_json(payload), args.out)
    else:
        lines = []
        for i, f in enumerate(lf.factors):
            lines.append(f"factor {i}: passthrough {f.passthrough}")
            lines.append("  slice: " + json.dumps(cospan_to_document(f.slice)))
            lines.append(
                "  merges: " + json.dumps(cospan_to_document(f.merges))
            )
        lines.append("perm: " + json.dumps(list(lf.perm.table)))
        _emit(args, "\n".join(lines) + "\n", args.out)
    return 0


def _cmd_readback(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    c = _load_cospan(args.cospan)
    t = readback_term(c, sig)
    if args.format == "structured":
        _emit(args, _doc_json({"term": pretty_print(t)}), args.out)
    else:
        _emit(args, pretty_print(t) + "\n", args.out)
    return 0


def _cmd_match(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    rules = parse_rules(_read_file(args.rules), sig)
    host = _load_host(args.host, sig)
    records = []
    for rule in rules:
        for i, m in enumerate(enumerate_convex_matches(rule, host)):
            records.append(
                {
                    "rule": rule.name,
                    "match": i,
                    "nodes": {
                        str(k): v for k, v in sorted(m.hom.node_map.items())
                    },
                    "edges": {
                        str(k): v for k, v in sorted(m.hom.edge_map.items())
                    },
                }
            )
    if args.format == "structured":
        _emit(args, _doc_json({"matches": records}))
    else:
        lines = [f"matches: {len(records)}"]
        for r in records:
            lines.append(
                "rule %s match %d: nodes %s edges %s"
                % (
                    r["rule"],
                    r["match"],
                    json.dumps(r["nodes"]),
                    json.dumps(r["edges"]),
                )
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_host(value: str, sig: Signature) -> Cospan:
    """A host is a cospan document (.csp path) or a term (path or inline)."""
    if os.path.exists(value) and value.endswith(".csp"):
        return _load_cospan(value)
    return eval_term(_load_term(value, sig), sig)


def _write_dot_series(directory: str, cospans: list[Cospan], stem: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, c in enumerate(cospans):
        _atomic_write(
            os.path.join(directory, f"{stem}_{i:03d}.dot"), cospan_to_dot(c)
        )


def _cmd_rewrite(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    rules = parse_rules(_read_file(args.rules), sig)
    host = _load_host(args.host, sig)
    if args.all:
        steps = rewrite_all(rules, host)
        results = [s.result for s in steps]
        if args.dot_dir:
            _write_dot_series(args.dot_dir, results, "result")
        if args.format == "structured":
            payload = {
                "steps": [
                    {
                        "rule": s.rule.name,
                        "result": cospan_to_document(s.result),
                    }
                    for s in steps
                ]
            }
            _emit(args, _doc_json(payload))
        else:
            lines = [f"steps: {len(steps)}"]
            for s in steps:
                lines.append(
                    "rule %s -> %s"
                    % (s.rule.name, json.dumps(cospan_to_document(s.result)))
                )
            _emit(args, "\n".join(lines) + "\n")
        return 0
    outcome = normalize(
        rules, host, strategy=args.strategy, max_steps=args.max_steps
    )
    if args.dot_dir:
        _write_dot_series(args.dot_dir, list(outcome), "normal")
    docs = [cospan_to_document(c) for c in outcome]
    if args.format == "structured":
        _emit(args, _doc_json({"normal-forms": docs}))
    else:
        lines = [f"normal forms: {len(docs)}"]
        for d in docs:
            lines.append(json.dumps(d))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle_compare(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    rule_text = _read_file(args.rules)
    triples = parse_rule_terms(rule_text, sig)
    rules = parse_rules(rule_text, sig)
    host_term = _load_term(args.host, sig)
    host = eval_term(host_term, sig)

    oracle_reps: dict[tuple, Term] = {}
    for _, lhs, rhs in triples:
        found = enumerate_rewrites_bruteforce((lhs, rhs), host_term, args.bound)
        for t in sorted(found, key=lambda t: (term_size(t), pretty_print(t))):
            key = cospan_key(eval_term(t, sig))
            oracle_reps.setdefault(key, t)

    dpo_reps: dict[tuple, Cospan] = {}
    for step in rewrite_all(rules, host):
        dpo_reps.setdefault(step.key, step.result)

    only_oracle = sorted(oracle_reps.keys() - dpo_reps.keys())
    only_dpo = sorted(dpo_reps.keys() - oracle_reps.keys())
    ok = not only_oracle and not only_dpo

    okeys = sorted(oracle_reps)
    dkeys = sorted(dpo_reps)
    if args.format == "structured":
        payload = {
            "oracle": [pretty_print(oracle_reps[k]) for k in okeys],
            "dpo": [cospan_to_document(dpo_reps[k]) for k in dkeys],
            "only-oracle": [pretty_print(oracle_reps[k]) for k in only_oracle],
            "only-dpo": [cospan_to_document(dpo_reps[k]) for k in only_dpo],
            "agree": ok,
        }
        _emit(args, _doc_json(payload))
    else:
        lines = [f"oracle classes: {len(okeys)}"]
        for k in okeys:
            lines.append("  " + pretty_print(oracle_reps[k]))
        lines.append(f"dpo classes: {len(dkeys)}")
        for k in dkeys:
            lines.append("  " + json.dumps(cospan_to_document(dpo_reps[k])))
        lines.append(
            f"symmetric difference: {len(only_oracle) + len(only_dpo)}"
        )
        for k in only_oracle:
            lines.append("  only oracle: " + pretty_print(oracle_reps[k]))
        for k in only_dpo:
            lines.append(
                "  only dpo: " + json.dumps(cospan_to_document(dpo_reps[k]))
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_export(args) -> int:
    c = _load_cospan(args.cospan)
    _atomic_write(args.dot, cospan_to_dot(c))
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmonrw",
        description=(
            "String-diagram rewriting over hypergraph cospans: translate, "
            "factorise, match, rewrite, and cross-check against a term-level "
            "oracle."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=["text", "structured"],
            default="text",
            help="output as human-readable text or a single JSON document",
        )

    p = sub.add_parser("check", help="validate a cospan document")
    p.add_argument("--cospan", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("translate", help="evaluate a term into a cospan")
    p.add_argument("--sig", required=True)
    p.add_argument("--term", required=True, help="term text or path")
    p.add_argument("--out", help="write the cospan document here")
    p.add_argument("--dot", help="also write a DOT rendering here")
    add_format(p)
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("factorize", help="stratify a cospan into levels")
    p.add_argument("--cospan", required=True)
    p.add_argument("--out")
    add_format(p)
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("readback", help="convert a cospan back to a term")
    p.add_argument("--cospan", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--out")
    add_format(p)
    p.set_defaults(handler=_cmd_readback)

    p = sub.add_parser("match", help="enumerate convex matches")
    p.add_argument("--rules", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--host", required=True, help=".csp path, term path, or term text")
    add_format(p)
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("rewrite", help="apply rules to a host")
    p.add_argument("--rules", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--host", required=True, help=".csp path, term path, or term text")
    p.add_argument("--strategy", choices=["leftmost", "bfs"], default="leftmost")
    p.add_argument("--max-steps", type=_non_negative_int, default=100)
    p.add_argument(
        "--all",
        action="store_true",
        help="enumerate every single-step result instead of normalising",
    )
    p.add_argument("--dot-dir", help="write DOT renderings into this directory")
    add_format(p)
    p.set_defaults(handler=_cmd_rewrite)

    p = sub.add_parser(
        "oracle-compare",
        help="compare rewrite results against the term-level oracle",
    )
    p.add_argument("--rules", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--host", required=True, help="term path or term text")
    p.add_argument("--bound", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_oracle_compare)

    p = sub.add_parser("export", help="render a cospan document to DOT")
    p.add_argument("--cospan", required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CmonrwError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        record = {"code": "io-failure", "message": f"{type(exc).__name__}: {exc}"}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
