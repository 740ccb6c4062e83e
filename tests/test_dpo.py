"""DPO rewriting: matching, complements, gluing, strategies, rule parsing."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cmonrw.corpus import SIG3, complement_mutations, random_term
from cmonrw import dpo
from cmonrw.cospan import (
    Cospan,
    cospan_key,
    cospan_to_document,
    is_right_monogamous,
    iso_equal,
)
from cmonrw.dpo import (
    Complement,
    RewriteRule,
    apply_rewrite,
    boundary_complement,
    complement_is_valid,
    enumerate_convex_matches,
    iter_rewrites,
    normalize,
    parse_rule_terms,
    parse_rules,
    rewrite_all,
)
from cmonrw.errors import (
    Cyclic,
    DanglingEdge,
    InterfaceMismatch,
    ResultNotRightMonogamous,
    StepBudgetExhausted,
    TermSyntaxError,
    TypeMismatch,
    UnknownNode,
)
from cmonrw.hypergraph import Edge, Hypergraph, find_homomorphisms
from cmonrw.sigterm import Mu, Seq, Sym, parse_term
from cmonrw.translate import eval_term


@pytest.fixture(scope="module")
def ev(unary_sig):
    def _ev(src: str):
        return eval_term(parse_term(src, unary_sig), unary_sig)

    return _ev


def test_rule_requires_matching_interfaces(ev):
    with pytest.raises(InterfaceMismatch):
        RewriteRule(ev("f"), ev("h"), "bad")


def test_single_redex_single_result(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    steps = rewrite_all([rule], ev("f"))
    assert len(steps) == 1
    assert iso_equal(steps[0].result, ev("g"))


def test_parallel_redexes_give_two_distinct_results(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    steps = rewrite_all([rule], ev("f + f"))
    assert len(steps) == 2
    # interface order separates g+f from f+g
    assert sum(iso_equal(s.result, ev("g + f")) for s in steps) == 1
    assert sum(iso_equal(s.result, ev("f + g")) for s in steps) == 1
    assert not iso_equal(ev("g + f"), ev("f + g"))


def test_identity_lhs_rewrites_on_every_wire(ev):
    # matching id_1 inside [f] can hit the input, the output, or either
    # half of a virtual merge on each; four iso-distinct outcomes
    rule = RewriteRule(ev("id_1"), ev("g"), "idg")
    steps = rewrite_all([rule], ev("f"))
    expected = [
        "g ; f",
        "((id_1 + (eta ; g)) ; mu) ; f",
        "f ; g",
        "(f + (eta ; g)) ; mu",
    ]
    assert len(steps) == len(expected)
    for src in expected:
        assert sum(iso_equal(s.result, ev(src)) for s in steps) == 1


def test_match_may_merge_lhs_outputs_on_merge_node(ev):
    rule = RewriteRule(ev("f + f"), ev("g + g"), "merge2")
    host = ev("(f + f) ; mu")
    matches = enumerate_convex_matches(rule, host)
    assert len(matches) == 2
    maps = sorted(
        tuple(sorted(m.hom.node_map.items())) for m in matches
    )
    assert maps == [
        ((0, 0), (1, 1), (2, 2), (3, 1)),
        ((0, 2), (1, 1), (2, 0), (3, 1)),
    ]
    steps = rewrite_all([rule], host)
    assert len(steps) == 1
    assert iso_equal(steps[0].result, ev("(g + g) ; mu"))


def test_whole_host_redex_keeps_both_orientations(ev):
    rule = RewriteRule(ev("(f + f) ; mu"), ev("h"), "whole")
    steps = rewrite_all([rule], ev("(f + f) ; mu"))
    assert len(steps) == 2
    assert sum(iso_equal(s.result, ev("h")) for s in steps) == 1
    assert sum(iso_equal(s.result, ev("sym_1_1 ; h")) for s in steps) == 1


def test_dangling_complement_is_rejected(ev):
    # deleting f;g would strand the s edge glued onto the middle node
    rule = RewriteRule(ev("f ; g"), ev("g ; f"), "fgswap")
    host = ev("((f + s) ; mu) ; g")
    matches = enumerate_convex_matches(rule, host)
    assert len(matches) == 1
    with pytest.raises(DanglingEdge):
        boundary_complement(matches[0], host)
    assert rewrite_all([rule], host) == []


def test_nonconvex_image_is_not_a_match(ev):
    rule = RewriteRule(ev("f + f"), ev("g + g"), "pair")
    host = ev("(f ; g) ; f")
    raw = find_homomorphisms(rule.lhs.carrier, host.carrier)
    assert len(raw) == 2
    assert enumerate_convex_matches(rule, host) == []


def test_complement_validity_and_mutations(ev):
    rule = RewriteRule(ev("h"), ev("mu"), "hm")
    host = ev("((f + f) ; h) ; g")
    rng = random.Random(7)
    kinds = set()
    for match in enumerate_convex_matches(rule, host):
        for comp in boundary_complement(match, host):
            assert complement_is_valid(match, host, comp)
            for kind, bad in complement_mutations(rng, comp):
                assert not complement_is_valid(match, host, bad), kind
                kinds.add(kind)
    assert "merge-c1-pair" in kinds and "c1-grows-outputs" in kinds


def test_leftmost_normalizes_chain(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    out = normalize([rule], ev("f ; f"), strategy="leftmost")
    assert len(out) == 1
    assert iso_equal(out[0], ev("g ; g"))


def test_bfs_normalizes_chain(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    out = normalize(
        [rule], ev("f ; f"), strategy="exhaustive-bfs", max_steps=10
    )
    assert len(out) == 1
    assert iso_equal(out[0], ev("g ; g"))


def test_commutativity_rule_never_terminates(unary_sig):
    comm = RewriteRule(
        eval_term(Mu(), unary_sig),
        eval_term(Seq(Sym(1, 1), Mu()), unary_sig),
        "comm",
    )
    host = eval_term(Mu(), unary_sig)
    with pytest.raises(StepBudgetExhausted) as exc:
        normalize([comm], host, strategy="leftmost", max_steps=5)
    assert len(exc.value.trace) == 6
    for c in exc.value.trace:
        assert iso_equal(c, host)
    # bfs closes the orbit immediately: the result is iso to the host,
    # so nothing new appears and no normal form exists
    assert normalize([comm], host, strategy="exhaustive-bfs") == []


def test_zero_budget_semantics(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    assert len(normalize([rule], ev("g"), "leftmost", max_steps=0)) == 1
    with pytest.raises(StepBudgetExhausted) as exc:
        normalize([rule], ev("f"), "leftmost", max_steps=0)
    assert len(exc.value.trace) == 1
    with pytest.raises(StepBudgetExhausted) as exc:
        normalize([rule], ev("f"), "bfs", max_steps=0)
    assert len(exc.value.frontier) == 1
    assert exc.value.normal_forms == ()


@pytest.mark.parametrize("strategy", ["leftmost", "bfs"])
def test_negative_budget_rejected(ev, strategy):
    # f => f ; f never normalises, so leftmost would run forever on -1
    rule = RewriteRule(ev("f"), ev("f ; f"), "dup")
    with pytest.raises(ValueError):
        normalize([rule], ev("f"), strategy=strategy, max_steps=-1)


def test_unknown_strategy_rejected(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    with pytest.raises(ValueError):
        normalize([rule], ev("f"), strategy="dfs")


def test_rewrite_all_deduplicates_across_rules(ev):
    a = RewriteRule(ev("f"), ev("g"), "a")
    b = RewriteRule(ev("f"), ev("g"), "b")
    steps = rewrite_all([a, b], ev("f"))
    assert len(steps) == 1
    assert steps[0].rule.name == "a"


RULES_TEXT = """\
# comment lines and blanks are skipped

rule fg : f => g
rule collapse : (f + f) ; mu => h
"""


def test_parse_rules_roundtrip(unary_sig):
    rules = parse_rules(RULES_TEXT, unary_sig)
    assert [r.name for r in rules] == ["fg", "collapse"]
    assert rules[1].lhs.arity == 2 and rules[1].lhs.coarity == 1


def test_parse_rules_rejects_bad_line(unary_sig):
    with pytest.raises(TermSyntaxError) as exc:
        parse_rules("rule x f => g\n", unary_sig)
    assert exc.value.location == 1


def test_parse_rules_rejects_duplicate_name(unary_sig):
    text = "rule x : f => g\nrule x : g => f\n"
    with pytest.raises(TermSyntaxError) as exc:
        parse_rules(text, unary_sig)
    assert exc.value.location == 2


def test_parse_rules_rejects_type_mismatch(unary_sig):
    with pytest.raises(TypeMismatch):
        parse_rules("rule x : f => h\n", unary_sig)


def test_parse_rule_terms_keeps_terms(unary_sig):
    triples = parse_rule_terms("rule fg : f => g\n", unary_sig)
    assert len(triples) == 1
    name, lhs, rhs = triples[0]
    assert name == "fg"
    assert lhs == parse_term("f", unary_sig)
    assert rhs == parse_term("g", unary_sig)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rewrite_results_stay_well_formed(seed):
    from cmonrw.cospan import validate_right_monogamous_acyclic

    rng = random.Random(seed)
    rule = RewriteRule(
        eval_term(parse_term("a", SIG3), SIG3),
        eval_term(parse_term("c ; b", SIG3), SIG3),
        "acb",
    )
    host = eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
    for step in rewrite_all([rule], host):
        validate_right_monogamous_acyclic(step.result)
        assert step.result.arity == host.arity
        assert step.result.coarity == host.coarity


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rewrite_all_is_deterministic(seed):
    rng = random.Random(seed)
    rule = RewriteRule(
        eval_term(parse_term("a", SIG3), SIG3),
        eval_term(parse_term("a ; a", SIG3), SIG3),
        "dup",
    )
    host = eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
    first = [cospan_key(s.result) for s in rewrite_all([rule], host)]
    second = [cospan_key(s.result) for s in rewrite_all([rule], host)]
    assert first == second


def _sig3(text: str):
    return eval_term(parse_term(text, SIG3), SIG3)


def reference_complement_is_valid(match, host, comp) -> bool:
    """The validity check by isomorphism alone: the same structural checks,
    then a canonical-form comparison of the re-glued lhs with the host."""
    rule = match.rule
    if len(comp.c1) != rule.lhs.arity or len(comp.c2) != rule.lhs.coarity:
        return False
    if len(comp.d1) != host.arity or len(comp.d2) != host.coarity:
        return False
    if len(set(comp.c1)) != len(comp.c1) or set(comp.c1) & set(comp.c2):
        return False
    try:
        rearranged = Cospan(
            comp.carrier, comp.d1 + comp.c2, comp.d2 + comp.c1
        )
    except UnknownNode:
        return False
    if not is_right_monogamous(rearranged):
        return False
    # gluing a rule's rhs is the same pushout; a malformed result cannot
    # be isomorphic to the well-formed host
    try:
        glued = apply_rewrite(RewriteRule(rule.lhs, rule.lhs), match, comp)
    except (ResultNotRightMonogamous, Cyclic):
        return False
    return iso_equal(glued, host)


FAST_PATH_LHS = [
    "a",
    "b",
    "c",
    "mu",
    "id_1",
    "a ; a",
    "c ; b",
    "b ; a",
    "a ; c",
    "mu ; a",
    "eta ; a",
    "(a + id_1) ; mu",
    "(a + a) ; b",
    "(a + a) ; mu",
    "sym_1_1 ; b",
]


def test_complement_check_agrees_with_isomorphism_reference(monkeypatch):
    checked = []
    fallbacks = []

    def recording(match, host, comp):
        verdict = complement_is_valid(match, host, comp)
        checked.append((match, host, comp, verdict))
        return verdict

    def counting_iso_equal(a, b):
        fallbacks.append((a, b))
        return iso_equal(a, b)

    monkeypatch.setattr(dpo, "complement_is_valid", recording)
    monkeypatch.setattr(dpo, "iso_equal", counting_iso_equal)
    rng = random.Random(20261018)
    hosts = [
        eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for _ in range(25)
    ]
    rules = [
        RewriteRule(_sig3(text), _sig3(text), text) for text in FAST_PATH_LHS
    ]
    valid = []
    for host in hosts:
        for rule in rules:
            for match in enumerate_convex_matches(rule, host):
                try:
                    valid += [
                        (match, host, c)
                        for c in boundary_complement(match, host)
                    ]
                except DanglingEdge:
                    pass
    # built candidates never need the general isomorphism test
    assert fallbacks == []
    assert len(checked) > 200 and len(valid) > 100
    for match, host, comp, verdict in checked:
        assert verdict == reference_complement_is_valid(match, host, comp)
    # mutants fail the structural checks; renumbered, relabelled and
    # reordered copies pass them but not the witness map, so the general
    # test decides
    verdicts = []
    for match, host, comp in valid:
        others = [bad for _, bad in complement_mutations(rng, comp)]
        others += [
            _renumbered(comp),
            _relabelled(comp),
            replace(comp, d1=comp.d1[::-1]),
            replace(comp, d2=comp.d2[::-1]),
        ]
        for other in others:
            verdict = complement_is_valid(match, host, other)
            assert verdict == reference_complement_is_valid(match, host, other)
            verdicts.append(verdict)
    assert len(verdicts) > 300 and True in verdicts and False in verdicts
    assert len(fallbacks) > 100


def _renumbered(comp):
    """The same complement with every node moved to a fresh id."""
    shift = max(comp.carrier.nodes) + 1
    edges = {
        eid: Edge(
            e.label,
            tuple(v + shift for v in e.sources),
            tuple(v + shift for v in e.targets),
        )
        for eid, e in comp.carrier.edges.items()
    }
    nodes = frozenset(v + shift for v in comp.carrier.nodes)
    carrier = Hypergraph(nodes, edges)
    c1, c2, d1, d2 = (
        tuple(v + shift for v in vs)
        for vs in (comp.c1, comp.c2, comp.d1, comp.d2)
    )
    return Complement(carrier, c1, c2, d1, d2)


def _relabelled(comp):
    """The complement with its first edge relabelled (unchanged if none)."""
    edges = dict(comp.carrier.edges)
    for eid in sorted(edges)[:1]:
        e = edges[eid]
        edges[eid] = Edge(e.label + "x", e.sources, e.targets)
    return replace(comp, carrier=Hypergraph(comp.carrier.nodes, edges))


def _step_view(step):
    comp = step.complement
    return (
        step.rule.name,
        sorted(step.match.hom.node_map.items()),
        sorted(step.match.hom.edge_map.items()),
        (comp.c1, comp.c2, comp.d1, comp.d2),
        sorted(comp.carrier.nodes),
        sorted(comp.carrier.edges.items()),
        cospan_to_document(step.result),
        step.key,
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_iter_rewrites_starts_with_rewrite_alls_first_step(seed):
    rng = random.Random(seed)
    rules = [
        RewriteRule(_sig3("b"), _sig3("mu ; a"), "bma"),
        RewriteRule(_sig3("a"), _sig3("c ; b"), "acb"),
    ]
    host = eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
    steps = rewrite_all(rules, host)
    first = next(iter_rewrites(rules, host), None)
    if not steps:
        assert first is None
        return
    assert _step_view(first) == _step_view(steps[0])
    assert all(s.key == cospan_key(s.result) for s in steps)
