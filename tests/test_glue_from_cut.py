"""Rewrite results glued straight from a match's cut, against the
complement-then-pushout glue they replaced (naive_dpo.glued_results):
every candidate of every match, in the same order, with the same document,
and each step's complement the one boundary_complement lists at its
index. Rules pair each left side with right sides of its type that glue
interface nodes in different ways (merges, identities, copies)."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from cmonrw import dpo
from cmonrw.cospan import (
    Cospan,
    cospan_key,
    cospan_to_document,
    validate_right_monogamous_acyclic,
)
from cmonrw.dpo import RewriteRule, rewrite_all
from cmonrw.errors import Cyclic, ResultNotRightMonogamous
from cmonrw.sigterm import parse_signature, parse_term, term_type
from cmonrw.translate import eval_term
from corpus import SIG3, random_rm_cospan, random_term, random_typed_term
from naive_dpo import glued_results
from test_complement_twins import (
    MIXED_HOSTS,
    OUTPUT_IMAGE_CASES,
    RM_SIG,
    SIG,
    TWO_SLOT_HOST,
    merge_host,
)
from test_dpo import FAST_PATH_LHS

UNARY = parse_signature(
    "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"
)

# right sides by type (arity, coarity), per signature
SIG_RHS = {
    (1, 1): ["f", "g", "id_1", "(s + f) ; mu"],
    (2, 1): ["mu ; f", "h", "mu", "(f + g) ; h"],
    (3, 1): ["(mu + id_1) ; mu", "(h + id_1) ; h", "(id_1 + mu) ; h"],
    (4, 1): ["(mu + mu) ; h", "(h + h) ; mu", "(mu + mu) ; mu"],
    (4, 2): ["mu + mu", "h + h", "h + mu"],
}
SIG3_RHS = {
    (0, 1): ["eta ; a", "eta"],
    (1, 1): ["a", "id_1", "c ; b"],
    (1, 2): ["c", "a ; c", "a ; c ; (a + id_1)"],
    (2, 1): ["mu", "b", "(a + a) ; mu", "sym_1_1 ; b"],
}
UNARY_RHS = {
    (1, 1): ["g", "id_1", "(s + f) ; mu", "f ; f"],
    (2, 1): ["mu", "h", "(f + g) ; h"],
    (2, 2): ["g + g", "sym_1_1", "id_2", "(mu ; f) + s"],
}
RM_RHS = {
    (0, 1): ["s", "s ; p"],
    (1, 1): ["p", "id_1", "(s + p) ; q"],
    (1, 2): ["r", "p + s"],
    (2, 1): ["q", "mu", "mu ; p"],
}


def _ev(text: str, sig) -> Cospan:
    return eval_term(parse_term(text, sig), sig)


def rules_for(lhs_text: str, sig, rhs_by_type) -> list[RewriteRule]:
    """The left side rewritten to each right side of its type."""
    lhs = parse_term(lhs_text, sig)
    return [
        RewriteRule(eval_term(lhs, sig), _ev(rhs, sig), f"{lhs_text}=>{rhs}")
        for rhs in rhs_by_type[term_type(lhs)]
    ]


def _match_view(match) -> tuple:
    return (
        match.rule.name,
        sorted(match.hom.node_map.items()),
        sorted(match.hom.edge_map.items()),
    )


def _comp_view(comp) -> tuple:
    return (
        sorted(comp.carrier.nodes),
        sorted(comp.carrier.edges.items()),
        comp.c1,
        comp.c2,
        comp.d1,
        comp.d2,
    )


def _listed(rows, view) -> tuple[list, str | None]:
    """view of each row, and the name of the error a failing result check
    ends the rows with, if one does."""
    out = []
    try:
        for row in rows:
            out.append(view(row))
    except (ResultNotRightMonogamous, Cyclic) as exc:
        return out, type(exc).__name__
    return out, None


def _deduplicated(rows):
    """The rows whose result has a key no earlier row's has, each with its
    key appended."""
    seen = set()
    for row in rows:
        key = cospan_key(row[-1])
        if key not in seen:
            seen.add(key)
            yield row + (key,)


def assert_glued_like_pushout(rules: list[RewriteRule], host: Cospan) -> int:
    """Compare both glues on every candidate, then rewrite_all's steps
    with the reference's first result per key; return the number of
    candidates."""
    validate_right_monogamous_acyclic(host)
    glued = _listed(
        dpo._results(rules, host),
        lambda r: (_match_view(r[1]), r[2], cospan_to_document(r[3])),
    )
    reference = _listed(
        glued_results(rules, host),
        lambda r: (_match_view(r[1]), r[2], cospan_to_document(r[4])),
    )
    assert glued == reference
    expected, error = _listed(
        _deduplicated(glued_results(rules, host)),
        lambda r: (
            _match_view(r[1]),
            r[2],
            _comp_view(r[3]),
            cospan_to_document(r[4]),
            r[5],
        ),
    )
    try:
        steps = [
            (
                _match_view(s.match),
                s.index,
                _comp_view(s.complement),
                cospan_to_document(s.result),
                s.key,
            )
            for s in rewrite_all(rules, host)
        ]
    except (ResultNotRightMonogamous, Cyclic) as exc:
        assert type(exc).__name__ == error
    else:
        assert error is None and steps == expected
    return len(reference[0])


def test_glue_from_cut_on_the_dpo_corpus():
    rng = random.Random(20261018)
    hosts = [
        eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for _ in range(25)
    ]
    found = 0
    for lhs in FAST_PATH_LHS:
        rules = rules_for(lhs, SIG3, SIG3_RHS)
        for host in hosts:
            found += assert_glued_like_pushout(rules, host)
    unary_hosts = [
        "((f + f) ; h) ; g",
        "(f ; g) ; f",
        "f ; f ; f",
        "((f + s) ; mu) ; g",
        "(f + g) ; mu",
        # f + f matches with both outputs on the merge node: one c2 copy
        # for two rhs outputs
        "(f + f) ; mu",
    ]
    for lhs in ("f", "f + f", "h", "mu", "f ; f"):
        for host in unary_hosts:
            found += assert_glued_like_pushout(
                rules_for(lhs, UNARY, UNARY_RHS), _ev(host, UNARY)
            )
    assert found > 1000


def test_glue_from_cut_on_the_twin_corpus():
    # the edgeless left sides (mu, mu + mu, and (mu + id_1) ; mu on the
    # mixed hosts) are left out: their thousands of candidates, each keyed
    # by its canonical form, take minutes
    cases = [(merge_host(n), "mu ; f") for n in range(1, 9)]
    cases += [(TWO_SLOT_HOST, "(mu + mu) ; h")]
    cases += [(h, lhs) for h in MIXED_HOSTS for lhs in ("mu ; f", "f")]
    cases += OUTPUT_IMAGE_CASES
    found = 0
    for host, lhs in cases:
        rules = rules_for(lhs, SIG, SIG_RHS)
        found += assert_glued_like_pushout(rules, _ev(host, SIG))
    rng = random.Random(7)
    for _ in range(60):
        host = random_rm_cospan(rng)
        for lhs in ("p", "q", "r", "s", "mu ; p"):
            found += assert_glued_like_pushout(
                rules_for(lhs, RM_SIG, RM_RHS), host
            )
    assert found > 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_glue_from_cut_on_random_hosts_and_rules(seed):
    rng = random.Random(seed)
    host = eval_term(random_term(rng, SIG3, max_generators=5), SIG3)
    rules = []
    for name in rng.sample(FAST_PATH_LHS, 3):
        lhs = parse_term(name, SIG3)
        dom, cod = term_type(lhs)
        rhs = random_typed_term(rng, SIG3, dom, cod)
        rules.append(
            RewriteRule(eval_term(lhs, SIG3), eval_term(rhs, SIG3), name)
        )
    assert_glued_like_pushout(rules, host)
