"""Batch command-line front end.

Subcommands wire parsing, translation, factorisation, checking, rewriting,
oracle comparison, and DOT export. Output is deterministic: identical
invocations produce byte-identical results, and files land atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quote

from .cospan import (
    Cospan,
    compose,
    cospan_from_document,
    cospan_key,
    cospan_order_key,
    cospan_to_document,
    cospan_to_dot,
    tensor,
)
from .decompose import factorise_into_levels, readback_term
from .dpo import (
    RewriteRule,
    enumerate_convex_matches,
    normalize,
    parse_rule_terms,
    parse_rules,
    rewrite_all,
)
from .errors import (
    CmonrwError,
    DocumentError,
    IoFailure,
    OutOfMemory,
    StepBudgetExhausted,
)
from .hypergraph import is_acyclic
from .oracle import TermPool, enumerate_rewrite_keys
from .sigterm import (
    Seq,
    Signature,
    Term,
    parse_signature,
    parse_term,
    pretty_print,
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


def _document_int(digits: str) -> int:
    """A document integer; one longer than int() takes is malformed."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DocumentError(
            f"$ must hold integers of at most {limit} digits", location="$"
        ) from None


def _load_cospan(path: str) -> Cospan:
    text = _read_file(path)
    return cospan_from_document(json.loads(text, parse_int=_document_int))


def _load_term(text: str | None, path: str | None, sig: Signature) -> Term:
    """The term given inline as text, or in the term file at path."""
    return parse_term(text if path is None else _read_file(path), sig)


def _doc_json(doc: dict) -> str:
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """json.dumps(value, indent=2) byte for byte, newline carrying the
    indent. json drops its C encoder when it indents, so it is left only
    empty containers and scalars other than ints and strings."""
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [
            _quote(k if isinstance(k, str) else json.dumps(k))
            + ": "
            + _json(v, inner)
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    ints = all(type(v) is int for v in value)
    items = map(str, value) if ints else [_json(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    c = _load_cospan(args.cospan)
    rm = c.right_monogamous
    ac = is_acyclic(c.carrier)
    if args.format == "structured":
        _emit(_doc_json({"right-monogamous": rm, "acyclic": ac}))
    else:
        _emit(
            "right-monogamous: %s, acyclic: %s\n"
            % (str(rm).lower(), str(ac).lower()),
        )
    return 0 if rm and ac else 1


def _cmd_translate(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    t = _load_term(args.term, args.term_file, sig)
    c = eval_term(t, sig)
    # the cospan document is already the text interchange format
    _emit(_doc_json(cospan_to_document(c)), args.out)
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
        _emit(_doc_json(payload), args.out)
    else:
        lines = []
        for i, f in enumerate(lf.factors):
            lines.append(f"factor {i}: passthrough {f.passthrough}")
            lines.append("  slice: " + json.dumps(cospan_to_document(f.slice)))
            lines.append(
                "  merges: " + json.dumps(cospan_to_document(f.merges))
            )
        lines.append("perm: " + json.dumps(list(lf.perm.table)))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_readback(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    c = _load_cospan(args.cospan)
    t = readback_term(c, sig)
    if args.format == "structured":
        _emit(_doc_json({"term": pretty_print(t)}), args.out)
    else:
        _emit(pretty_print(t) + "\n", args.out)
    return 0


def _cmd_match(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    rules = parse_rules(_read_file(args.rules), sig)
    host = _load_host(args, sig)
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
        _emit(_doc_json({"matches": records}))
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
        _emit("\n".join(lines) + "\n")
    return 0


def _load_host(args, sig: Signature) -> Cospan:
    """A host is a cospan document (a --host ending in .csp) or a term,
    inline in --host or in the file --host-file names."""
    if args.host is not None and args.host.endswith(".csp"):
        return _load_cospan(args.host)
    return eval_term(_load_term(args.host, args.host_file, sig), sig)


def _write_dot_series(directory: str, cospans: list[Cospan], stem: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, c in enumerate(cospans):
        _atomic_write(
            os.path.join(directory, f"{stem}_{i:03d}.dot"), cospan_to_dot(c)
        )


def _cmd_rewrite(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    rules = parse_rules(_read_file(args.rules), sig)
    host = _load_host(args, sig)
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
            _emit(_doc_json(payload))
        else:
            lines = [f"steps: {len(steps)}"]
            for s in steps:
                lines.append(
                    "rule %s -> %s"
                    % (s.rule.name, json.dumps(cospan_to_document(s.result)))
                )
            _emit("\n".join(lines) + "\n")
        return 0
    outcome = normalize(
        rules, host, strategy=args.strategy, max_steps=args.max_steps
    )
    if args.dot_dir:
        _write_dot_series(args.dot_dir, list(outcome), "normal")
    docs = [cospan_to_document(c) for c in outcome]
    if args.format == "structured":
        _emit(_doc_json({"normal-forms": docs}))
    else:
        lines = [f"normal forms: {len(docs)}"]
        for d in docs:
            lines.append(json.dumps(d))
        _emit("\n".join(lines) + "\n")
    return 0


def _oracle_classes(
    pool: TermPool, found: list[frozenset[int]], sig: Signature
) -> tuple[dict[tuple, Term], dict[tuple, Cospan]]:
    """Each class of the rules' rewrites (keys of pool), by cospan_key:
    its representative and one of its cospans. The first rule to reach a
    class represents it by its least rewrite there in (size, pretty_print).
    A class is folded over the pool: an atom's is its cospan's, and a ; or
    + node's is the class of compose or tensor of one cospan of each
    operand's class, glued once per (op, class, class). eval_term builds
    that composite, and compose and tensor respect isomorphism, so each
    rewrite gets its own cospan's class."""
    number: dict[tuple, int] = {}  # cospan_key -> class
    cospans: list[Cospan] = []  # class -> a cospan of the class
    joins: dict[tuple, int] = {}

    def classify(c: Cospan) -> int:
        n = number.setdefault(cospan_key(c), len(cospans))
        if n == len(cospans):
            cospans.append(c)
        return n

    def join(op: type, a: int, b: int) -> int:
        if (op, a, b) not in joins:
            glue = compose if op is Seq else tensor
            joins[op, a, b] = classify(glue(cospans[a], cospans[b]))
        return joins[op, a, b]

    class_of = pool.fold(
        set().union(*found), lambda t: classify(eval_term(t, sig)), join
    )
    reps: dict[int, Term] = {}
    for rewrites in found:
        least: dict[int, list[int]] = {}  # a class's least-size rewrites
        for k in sorted(rewrites, key=pool.size):
            ks = least.setdefault(class_of[k], [])
            if not ks or pool.size(k) == pool.size(ks[0]):
                ks.append(k)
        for n, ks in least.items():
            if n not in reps:
                reps[n] = min(map(pool.term, ks), key=pretty_print)
    keys = list(number)
    return (
        {keys[n]: t for n, t in reps.items()},
        {keys[n]: cospans[n] for n in reps},
    )


def _cmd_oracle_compare(args) -> int:
    sig = parse_signature(_read_file(args.sig))
    triples = parse_rule_terms(_read_file(args.rules), sig)
    rules = [
        RewriteRule(eval_term(lhs, sig), eval_term(rhs, sig), name)
        for name, lhs, rhs in triples
    ]
    host_term = _load_term(args.host, args.host_file, sig)
    host = eval_term(host_term, sig)
    pairs = [(lhs, rhs) for _, lhs, rhs in triples]
    pool, found = enumerate_rewrite_keys(pairs, host_term, args.bound)
    oracle_reps, classes = _oracle_classes(pool, found, sig)

    dpo_reps: dict[tuple, Cospan] = {}
    for step in rewrite_all(rules, host):
        dpo_reps.setdefault(step.key, step.result)
        classes.setdefault(step.key, step.result)

    # classes are listed in canonical-form order, one order key per class
    order = {k: cospan_order_key(c) for k, c in classes.items()}
    okeys = sorted(oracle_reps, key=order.__getitem__)
    dkeys = sorted(dpo_reps, key=order.__getitem__)
    only_oracle = [k for k in okeys if k not in dpo_reps]
    only_dpo = [k for k in dkeys if k not in oracle_reps]
    ok = not only_oracle and not only_dpo

    if args.format == "structured":
        payload = {
            "oracle": [pretty_print(oracle_reps[k]) for k in okeys],
            "dpo": [cospan_to_document(dpo_reps[k]) for k in dkeys],
            "only-oracle": [pretty_print(oracle_reps[k]) for k in only_oracle],
            "only-dpo": [cospan_to_document(dpo_reps[k]) for k in only_dpo],
            "agree": ok,
        }
        _emit(_doc_json(payload))
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
        _emit("\n".join(lines) + "\n")
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


@functools.cache  # parsing only reads the parser
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

    def add_term(p, name, what):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(f"--{name}", help=what)
        group.add_argument(f"--{name}-file", help="path of a term file")

    p = sub.add_parser("check", help="validate a cospan document")
    p.add_argument("--cospan", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("translate", help="evaluate a term into a cospan")
    p.add_argument("--sig", required=True)
    add_term(p, "term", "term text")
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
    add_term(p, "host", ".csp path or term text")
    add_format(p)
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("rewrite", help="apply rules to a host")
    p.add_argument("--rules", required=True)
    p.add_argument("--sig", required=True)
    add_term(p, "host", ".csp path or term text")
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
    add_term(p, "host", "term text")
    p.add_argument("--bound", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_oracle_compare)

    p = sub.add_parser("export", help="render a cospan document to DOT")
    p.add_argument("--cospan", required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


def _error_record(exc: CmonrwError) -> dict:
    """exc's record; an exhausted step budget also carries what the
    search had: its frontier size, trace length and the normal forms
    found so far, as cospan documents in normalize's order."""
    rec = exc.record()
    if isinstance(exc, StepBudgetExhausted):
        rec["frontier-size"] = len(exc.frontier)
        rec["trace-length"] = len(exc.trace)
        rec["normal-forms"] = [
            cospan_to_document(c) for c in exc.normal_forms
        ]
    return rec


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CmonrwError as exc:
        sys.stderr.write(json.dumps(_error_record(exc), sort_keys=True) + "\n")
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        record = {"code": "io-failure", "message": f"{type(exc).__name__}: {exc}"}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1
    except (MemoryError, OverflowError):
        # OverflowError: a width such as id_100000000000000000000 that no
        # list can hold. The record is written below the handler, once the
        # traceback has let go of the frames that hold the memory
        pass
    exc = OutOfMemory(f"{args.subcommand} ran out of memory")
    sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
    return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
