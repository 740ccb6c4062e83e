"""DPO rewriting: matching, complements, gluing, strategies, rule parsing."""

from __future__ import annotations

import functools
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from corpus import SIG3, complement_mutations, random_term, random_typed_term
from cmonrw import cospan, dpo, hypergraph
from cmonrw.cospan import (
    Cospan,
    cospan_key,
    cospan_to_document,
    is_right_monogamous,
    iso_equal,
    pushout,
)
from cmonrw.dpo import (
    Complement,
    Match,
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
from cmonrw.hypergraph import Edge, Hypergraph, find_homomorphisms, is_convex
from cmonrw.sigterm import Mu, Seq, Sym, parse_signature, parse_term
from cmonrw.translate import eval_term
import naive_match
import naive_scans
from naive_dpo import (
    full_bfs,
    full_product_complements,
    leftmost_trace,
    reference_complement_is_valid,
)
from naive_match import homs_view


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


def test_no_complement_when_the_rearrangement_is_not_right_monogamous(ev):
    # boundary_complement does not validate the host: on one that is not
    # right-monogamous, no complement is, and none is returned
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    f, g = Edge("f", (0,), (1,)), Edge("g", (1,), (2,))
    hosts = [
        # node 1 feeds two g edges
        Cospan(
            Hypergraph(range(4), {0: f, 1: g, 2: Edge("g", (1,), (3,))}),
            (0,),
            (2, 3),
        ),
        # the right leg lists node 2 twice
        Cospan(Hypergraph(range(3), {0: f, 1: g}), (0,), (2, 2)),
    ]
    for host in hosts:
        (hom,) = find_homomorphisms(
            rule.lhs.carrier, host.carrier, frozenset(rule.lhs.right)
        )
        match = Match(rule, hom)
        assert boundary_complement(match, host) == []
        assert full_product_complements(match, host) == []


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


def _chain_complements(ev):
    """f => g with each of its matches into f ; f and the one complement
    of each."""
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    host = ev("f ; f")
    found = []
    for match in enumerate_convex_matches(rule, host):
        (comp,) = boundary_complement(match, host)
        found.append((match, comp))
    assert len(found) == 2
    return rule, host, found


def _with_missing_node(comp: Complement) -> list[Complement]:
    """comp with each of its four node lists pointed at a node outside
    its carrier."""
    missing = max(comp.carrier.nodes) + 1
    return [
        replace(comp, **{name: (missing,) * len(getattr(comp, name))})
        for name in ("c1", "c2", "d1", "d2")
    ]


def test_complement_check_rejects_wrong_lengths_and_unknown_nodes(ev):
    rule, host, found = _chain_complements(ev)
    for match, comp in found:
        assert complement_is_valid(match, host, comp)
        wrong_lengths = [
            replace(comp, c1=()),
            replace(comp, c2=comp.c2 * 2),
            replace(comp, d1=()),
            replace(comp, d2=comp.d2 * 2),
        ]
        for bad in wrong_lengths + _with_missing_node(comp):
            assert not complement_is_valid(match, host, bad), bad


def test_apply_rewrite_raises_typed_errors(ev):
    rule, host, found = _chain_complements(ev)
    results = []
    for match, comp in found:
        results.append(apply_rewrite(rule, match, comp))
        for bad in replace(comp, c1=()), replace(comp, c2=comp.c2 * 2):
            with pytest.raises(InterfaceMismatch):
                apply_rewrite(rule, match, bad)
        for bad in _with_missing_node(comp):
            with pytest.raises(UnknownNode):
                apply_rewrite(rule, match, bad)
        # g glued from c1 back to c1 is a loop; c1 listed as the output is
        # consumed twice, by g and by the right leg
        with pytest.raises(Cyclic):
            apply_rewrite(rule, match, replace(comp, c2=comp.c1))
        with pytest.raises(ResultNotRightMonogamous):
            apply_rewrite(rule, match, replace(comp, d2=comp.c1))
    assert sorted(
        [iso_equal(r, ev("g ; f")), iso_equal(r, ev("f ; g"))]
        for r in results
    ) == [[False, True], [True, False]]


def test_leftmost_normalizes_chain(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    out = normalize([rule], ev("f ; f"), strategy="leftmost")
    assert len(out) == 1
    assert iso_equal(out[0], ev("g ; g"))


def test_bfs_normalizes_chain(ev):
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    out = normalize([rule], ev("f ; f"), strategy="bfs", max_steps=10)
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
    assert normalize([comm], host, strategy="bfs") == []


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
    for strategy in ("dfs", "exhaustive-bfs"):
        with pytest.raises(ValueError):
            normalize([rule], ev("f"), strategy=strategy)


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
    built = []
    called = []
    make = dpo.Complement

    def building(*fields):
        built.append(make(*fields))
        return built[-1]

    def recording(name, fn):
        def wrapper(*args):
            called.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(dpo, "Complement", building)
    for name in ("complement_is_valid", "pushout", "iso_equal"):
        monkeypatch.setattr(dpo, name, recording(name, getattr(dpo, name)))
    rng = random.Random(20261018)
    hosts = [
        eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for _ in range(25)
    ]
    rules = [
        RewriteRule(_sig3(text), _sig3(text), text) for text in FAST_PATH_LHS
    ]
    candidates = []
    valid = []
    for host in hosts:
        for rule in rules:
            for match in enumerate_convex_matches(rule, host):
                built.clear()
                try:
                    valid += [
                        (match, host, c)
                        for c in boundary_complement(match, host)
                    ]
                except DanglingEdge:
                    pass
                candidates += [(match, host, c) for c in built]
    # candidates are valid by construction: none is checked or glued
    assert called == []
    assert len(candidates) > 200 and len(valid) > 100
    for match, host, comp in candidates:
        assert complement_is_valid(match, host, comp)
        assert reference_complement_is_valid(match, host, comp)
    # mutants fail the structural checks; renumbered, relabelled and
    # reordered copies pass them, so the isomorphism test decides
    called.clear()
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
    assert called.count("iso_equal") > 100


def _convexity_corpus(ev):
    """Random SIG3 hosts and a few unary ones, with the lhs sides matched
    into them (test_homomorphism_search_matches_recursive_reference's)."""
    rng = random.Random(20261018)
    hosts = [
        eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for _ in range(25)
    ]
    hosts += [ev("((f + f) ; h) ; g"), ev("(f ; g) ; f"), ev("f ; f ; f")]
    sides = [_sig3(text) for text in FAST_PATH_LHS]
    sides += [ev(text) for text in ("f", "f + f", "h", "f ; f", "mu")]
    return hosts, sides


def test_convexity_of_match_images_agrees_with_whole_host_reference(ev):
    hosts, sides = _convexity_corpus(ev)
    verdicts = []
    for host in hosts:
        g = host.carrier
        for lhs in sides:
            for hom in find_homomorphisms(lhs.carrier, g, lhs.right):
                nodes = set(hom.node_map.values())
                edges = set(hom.edge_map.values())
                # the image, and the image without its first edge
                for es in (edges, edges - set(sorted(edges)[:1])):
                    verdicts.append(is_convex(g, nodes, es))
                    assert verdicts[-1] == (
                        not naive_scans.bridging_edges(g, nodes, es)
                    )
    assert len(verdicts) > 500 and True in verdicts and False in verdicts


def test_homomorphism_search_matches_recursive_reference(ev):
    rng = random.Random(20261018)
    hosts = [
        eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for _ in range(25)
    ]
    hosts += [ev("((f + f) ; h) ; g"), ev("(f ; g) ; f"), ev("f ; f ; f")]
    sides = [_sig3(text) for text in FAST_PATH_LHS]
    sides += [ev(text) for text in ("f", "f + f", "h", "f ; f", "mu")]
    found = 0
    for host in hosts:
        for lhs in sides:
            for allowed in (frozenset(), frozenset(lhs.right)):
                homs = find_homomorphisms(lhs.carrier, host.carrier, allowed)
                ref = naive_match.find_homomorphisms(
                    lhs.carrier, host.carrier, allowed
                )
                assert homs_view(homs) == homs_view(ref)
                found += len(homs)
    assert found > 500


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


@pytest.mark.parametrize("alteration", ["swap-d1", "relabel-edge"])
def test_gluing_check_rejects_structurally_sound_complement(
    ev, monkeypatch, alteration
):
    # complement_mutations only builds complements that fail a structural
    # check; these pass all of them, so only gluing the lhs back into the
    # complement can tell that they no longer recompose the host
    host = ev("f + g")
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    (match,) = enumerate_convex_matches(rule, host)
    (comp,) = boundary_complement(match, host)
    if alteration == "swap-d1":
        bad = replace(comp, d1=comp.d1[::-1])
    else:
        bad = _relabelled(comp)
    glued, fallbacks = [], []

    def counting_pushout(*args):
        glued.append(args)
        return pushout(*args)

    def counting_iso_equal(a, b):
        fallbacks.append((a, b))
        return iso_equal(a, b)

    monkeypatch.setattr(dpo, "pushout", counting_pushout)
    monkeypatch.setattr(dpo, "iso_equal", counting_iso_equal)
    # one path: one pushout and one isomorphism test per complement that
    # passes the structural checks
    assert complement_is_valid(match, host, comp)
    assert len(glued) == 1 and len(fallbacks) == 1
    assert not complement_is_valid(match, host, bad)
    assert len(glued) == 2 and len(fallbacks) == 2
    assert not reference_complement_is_valid(match, host, bad)


SIG3_RULES = [
    ("c ; b", "a"),
    ("(a + a) ; b", "b ; a"),
    ("mu ; a", "b"),
    ("a ; a", "a"),
    ("a", "c ; b"),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lazy_leftmost_follows_rewrite_alls_first_step(seed):
    # leftmost pulls matches lazily and never keys; step for step it must
    # take the step the old loop took, rewrite_all(rules, cur)[0]
    rng = random.Random(seed)
    # a => c ; b fires on every host with an a, and never normalises
    picked = rng.sample(SIG3_RULES[:-1], rng.randint(1, 3)) + SIG3_RULES[-1:]
    rng.shuffle(picked)
    rules = [
        RewriteRule(_sig3(lhs), _sig3(rhs), f"r{i}")
        for i, (lhs, rhs) in enumerate(picked)
    ]
    host = eval_term(random_term(rng, SIG3, max_generators=6), SIG3)
    ref, reducible = leftmost_trace(rules, host, 6)
    docs = [cospan_to_document(c) for c in ref]
    for budget in range(len(ref)):
        if budget == len(ref) - 1 and not reducible:
            (out,) = normalize(rules, host, "leftmost", max_steps=budget)
            assert cospan_to_document(out) == docs[-1]
            continue
        with pytest.raises(StepBudgetExhausted) as exc:
            normalize(rules, host, "leftmost", max_steps=budget)
        trace = [cospan_to_document(c) for c in exc.value.trace]
        assert trace == docs[: budget + 1]


def test_a_rewrite_step_passes_over_its_host_once(ev, monkeypatch):
    # one incidence index and one topological order per graph, shared by
    # validation, matching and every convexity check; one carrier per
    # result, glued from the match's cut with no pushout, and complements
    # built only where a match has several candidates (none for f => g or
    # f ; f => g on a chain, where each match has one);
    # one right-monogamy check per result, shared by the result check, the
    # key and the next step's validation; and leftmost never keys a result
    ranked, incidences = [], []
    order, incidence = hypergraph.Hypergraph.ranks.func, hypergraph.incidence

    def ranking(g):
        ranked.append(g)
        return order(g)

    def indexing(g):
        incidences.append(g)
        return incidence(g)

    ranks = functools.cached_property(ranking)
    ranks.__set_name__(hypergraph.Hypergraph, "ranks")
    monkeypatch.setattr(hypergraph.Hypergraph, "ranks", ranks)
    monkeypatch.setattr(hypergraph, "incidence", indexing)
    checked, results, keyed, carriers, comps, pushed = [], [], [], [], [], []
    make_carrier, make_complement = dpo.Hypergraph, dpo.Complement
    check_result = dpo._checked

    def checking(c):
        checked.append(c)
        return is_right_monogamous(c)

    def accepting(rule, result):
        results.append(check_result(rule, result))
        return results[-1]

    def keying(c):
        keyed.append(c)
        return cospan_key(c)

    def building(*args):
        carriers.append(make_carrier(*args))
        return carriers[-1]

    def complementing(*args):
        comps.append(make_complement(*args))
        return comps[-1]

    def pushing(*args):
        pushed.append(args)
        return pushout(*args)

    for module in (cospan, dpo):
        monkeypatch.setattr(module, "is_right_monogamous", checking)
    monkeypatch.setattr(dpo, "_checked", accepting)
    monkeypatch.setattr(dpo, "cospan_key", keying)
    monkeypatch.setattr(dpo, "Hypergraph", building)
    monkeypatch.setattr(dpo, "Complement", complementing)
    monkeypatch.setattr(dpo, "pushout", pushing)

    def once_each(seen, expected):
        return sorted(map(id, seen)) == sorted(map(id, expected))

    def one_carrier_per_result():
        built = [r.carrier for r in results] + [c.carrier for c in comps]
        return once_each(carriers, built) and pushed == []

    fg = RewriteRule(ev("f"), ev("g"), "fg")
    ffg = RewriteRule(ev("f ; f"), ev("g"), "ffg")
    mufh = RewriteRule(ev("mu ; f"), ev("h"), "mufh")
    chain = " ; ".join(["f"] * 12)
    hosts = [
        chain,
        "(((s + s) ; mu) + ((s + s) ; mu)) ; mu ; f",
        "((((s ; f) + (s ; f)) ; mu) + (s ; f)) ; mu",
    ]
    compared = 0
    for text in hosts:
        for rules in ([fg], [ffg, fg], [mufh, fg]):
            host = ev(text)
            for seen in (ranked, incidences, checked, results, carriers, comps):
                seen.clear()
            steps = list(iter_rewrites(rules, host))
            assert steps and len(results) >= len(steps)
            assert one_carrier_per_result()
            if text == chain and mufh not in rules:
                assert comps == []
            compared += len(comps)
            graphs = [host.carrier] + [r.carrier for r in results]
            assert once_each(ranked, graphs)
            assert once_each(incidences, graphs)
            assert once_each(
                [c for c in checked if c is host or c in results],
                [host] + results,
            )
    # mu ; f has two candidates at each f of the chain
    assert compared
    for strategy in ("leftmost", "bfs"):
        host = ev("f ; f ; f ; f ; f")
        for seen in (keyed, checked, results, carriers, comps):
            seen.clear()
        (out,) = normalize([fg], host, strategy)
        assert iso_equal(out, ev("g ; g ; g ; g ; g"))
        assert results and comps == [] and one_carrier_per_result()
        assert once_each([c for c in checked if c in results], results)
        if strategy == "leftmost":
            assert keyed == []


def test_leftmost_on_a_200_chain_within_budget(ev):
    # ROADMAP item 1 aims at 1 s on a shared 2-vCPU VM; the budget leaves
    # room for a slower or busier machine
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    host = ev(" ; ".join(["f"] * 200))
    start = time.perf_counter()
    (out,) = normalize([rule], host, "leftmost", max_steps=200)
    assert time.perf_counter() - start < 5.0
    assert iso_equal(out, ev(" ; ".join(["g"] * 200)))


def test_rewrite_all_on_a_64_chain_within_budget(ev):
    # ROADMAP item 1 aims at 0.1 s on a shared 2-vCPU VM; as for the
    # 200-chain, the budget leaves room for a slower or busier machine,
    # and the repeated work itself is held by the guard test above
    rule = RewriteRule(ev("f"), ev("g"), "fg")
    host = ev(" ; ".join(["f"] * 64))
    start = time.perf_counter()
    steps = rewrite_all([rule], host)
    assert time.perf_counter() - start < 1.0
    assert len(steps) == 64


def _bfs_outcome(search) -> list | tuple:
    """A bfs run's normal forms as cospan documents, or its budget record:
    the message, the frontier and the normal forms found."""
    try:
        return [cospan_to_document(c) for c in search()]
    except StepBudgetExhausted as exc:
        return (
            str(exc),
            [cospan_to_document(c) for c in exc.frontier],
            [cospan_to_document(c) for c in exc.normal_forms],
        )


def _bfs_matches_full_search(rules, host, max_steps) -> list | tuple:
    ref = _bfs_outcome(lambda: full_bfs(rules, host, max_steps))
    got = _bfs_outcome(lambda: normalize(rules, host, "bfs", max_steps))
    assert got == ref
    return ref


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


SIG3_TYPES = {"a": (1, 1), "b": (2, 1), "c": (1, 2)}


def _random_generator_rules(rng: random.Random) -> list[RewriteRule]:
    """One to four rules whose lhs is a SIG3 generator, often several on
    one label. A rhs is a generator of the lhs's type or a random term of
    it; only the first rule, a quarter of the time, may have two
    generators on its rhs, so that the state spaces stay small."""
    grow = rng.random() < 0.25
    rules = []
    for i, label in enumerate(rng.choices("abc", k=rng.randint(1, 4))):
        dom, cod = SIG3_TYPES[label]
        while True:
            rhs = _sig3(label)
            if rng.random() >= 0.3:
                rhs = eval_term(random_typed_term(rng, SIG3, dom, cod), SIG3)
            if len(rhs.carrier.edges) <= 1 + (grow and i == 0):
                break
        rules.append(RewriteRule(_sig3(label), rhs, f"r{i}"))
    return rules


def test_bfs_matches_the_full_search_on_random_generator_rules(monkeypatch):
    # rules on a and b (one output each) expand a persistent prefix;
    # any rule on c sends bfs to the full search, and so do the
    # fallbacks, so both paths are compared with the reference
    rng = random.Random(230)
    full = _count_calls(monkeypatch, dpo, "rewrite_all")
    reduced = records = 0
    start = time.perf_counter()
    for _ in range(1200):
        rules = _random_generator_rules(rng)
        host = eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        full.clear()
        outcome = _bfs_matches_full_search(rules, host, rng.randint(0, 8))
        reduced += not full
        records += isinstance(outcome, tuple)
    assert time.perf_counter() - start < 20.0
    assert reduced >= 300 and records >= 50


P_SIG = parse_signature(
    "".join(f"gen {x} : 1 -> 1\n" for x in ("f", "g", "k", "p", "q", "r"))
)


def _term(sig, src: str) -> Cospan:
    return eval_term(parse_term(src, sig), sig)


def _rules(sig, *texts: str) -> list[RewriteRule]:
    """One rule for each "lhs => rhs" text over sig."""
    pairs = (text.split(" => ") for text in texts)
    return [
        RewriteRule(_term(sig, lhs), _term(sig, rhs), f"r{i}")
        for i, (lhs, rhs) in enumerate(pairs)
    ]


def test_bfs_matches_the_full_search_on_pinned_rule_sets(
    unary_sig, monkeypatch
):
    prefixes = _count_calls(monkeypatch, dpo, "_persistent_prefix")
    # the CLI's pinned budget record: f grows as fast as it normalises
    grow = _rules(unary_sig, "f => g", "f => f ; f")
    record = _bfs_matches_full_search(grow, _term(unary_sig, "f"), 2)
    assert record[0] == "3 reducible cospans left at depth 2"
    assert len(record[1]) == 3 and len(record[2]) == 1
    # a cycle of two rules: no normal form, and every state is reducible,
    # so budgets below 3 are exhausted
    swap = _rules(unary_sig, "f => g", "g => f")
    outcomes = [
        _bfs_matches_full_search(swap, _term(unary_sig, "f ; f"), max_steps)
        for max_steps in range(5)
    ]
    assert [o == [] for o in outcomes] == [False] * 3 + [True] * 2
    # the prefix at f + p runs past p => q to reach f => k at f; the steps
    # at f alone are persistent too, but they reach k + q along another
    # path, which numbers its nodes differently
    interleaved = _rules(P_SIG, "f => g", "p => q", "f => k")
    host = _term(P_SIG, "f + p")
    assert len(_bfs_matches_full_search(interleaved, host, 4)) == 2
    assert prefixes
    # c : 1 -> 2 has two outputs, and its match on c ; mu merges them:
    # the full search runs
    sig = parse_signature(
        "gen a : 1 -> 1\ngen b : 2 -> 1\ngen c : 1 -> 2\ngen c2 : 1 -> 2\n"
    )
    prefixes.clear()
    (out,) = _bfs_matches_full_search(
        _rules(sig, "c => c2"), _term(sig, "c ; mu"), 3
    )
    assert [e["label"] for e in out["edges"]] == ["c2"]
    # and it must: b => mu merges a's target into c's second output, so a
    # step at b makes c's image non-convex and disables every step at c
    merge = _rules(SIG3, "b => mu", "c => id_1 + eta")
    forms = _bfs_matches_full_search(merge, _sig3("c ; (a + id_1) ; b"), 4)
    assert len(forms) == 2
    # an edgeless lhs takes the full path too
    idf = _rules(unary_sig, "id_1 => f")
    record = _bfs_matches_full_search(idf, _term(unary_sig, "f ; g"), 2)
    assert isinstance(record, tuple)
    assert prefixes == []


@pytest.mark.parametrize(
    "rules, host, max_steps",
    [
        # depth budget hit: the reduced search overflows
        (["f => g"], "f ; f ; f", 2),
        # a cycle in the reduced graph, whose search ends at depth 1
        (["f => g", "g => f", "p => q", "q => r"], "f + p", 2),
        (["f => g", "g => f", "p => q", "q => r"], "f + p", 3),
        # acyclic and finished at depth 2 with the normal form k + q, but
        # f, g, k + p, q is a path of 3 steps
        (["f => g", "f => k", "g => k", "p => q"], "f + p", 2),
    ],
    ids=["depth", "cycle", "cycle-deep", "longest-path"],
)
def test_bfs_falls_back_to_the_full_search(
    rules, host, max_steps, monkeypatch
):
    # in each case the full search exhausts its budget where the reduced
    # one alone would answer
    prefixes = _count_calls(monkeypatch, dpo, "_persistent_prefix")
    full = _count_calls(monkeypatch, dpo, "rewrite_all")
    rules = _rules(P_SIG, *rules)
    host = _term(P_SIG, host)
    record = _bfs_matches_full_search(rules, host, max_steps)
    assert isinstance(record, tuple)
    assert prefixes and full


@pytest.mark.parametrize(
    "rules, host, max_steps",
    [
        # f grows as fast as it normalises: budget records at every depth
        *((["f => g", "f => f ; f"], "f", d) for d in range(7)),
        # a cycle: nothing overflows, but the longest-path check fails
        *((["f => g", "g => f"], "f", d) for d in (2, 5)),
    ],
)
def test_bfs_does_not_rerun_a_search_whose_prefixes_were_full(
    rules, host, max_steps, monkeypatch
):
    # with two rules on one label every prefix holds every step, so the
    # reduced search was the full search: its answer or budget record is
    # the full search's, and rewrite_all never runs
    prefixes = _count_calls(monkeypatch, dpo, "_persistent_prefix")
    full = _count_calls(monkeypatch, dpo, "rewrite_all")
    rules = _rules(P_SIG, *rules)
    _bfs_matches_full_search(rules, _term(P_SIG, host), max_steps)
    assert prefixes and full == []


@pytest.mark.parametrize(
    "text", [" ; ".join(["f"] * 40), " + ".join(["f"] * 12)],
    ids=["40-chain", "12-parallel"],
)
def test_bfs_expands_one_step_per_state_under_f_to_g(ev, monkeypatch, text):
    # past the full search's reach (2^12 states for 12 parallel f), bfs
    # expands n + 1 states, glues n results, and prints what leftmost
    # prints: the least path of step indices is leftmost's, all zeros
    fg = RewriteRule(ev("f"), ev("g"), "fg")
    host = ev(text)
    (ref,) = normalize([fg], host, "leftmost", max_steps=40)
    prefixes = _count_calls(monkeypatch, dpo, "_persistent_prefix")
    glued = _count_calls(monkeypatch, dpo, "_glue_into_cut")
    full = _count_calls(monkeypatch, dpo, "rewrite_all")
    (out,) = normalize([fg], host, "bfs")
    assert cospan_to_document(out) == cospan_to_document(ref)
    n = len(host.carrier.edges)
    assert (len(prefixes), len(glued), full) == (n + 1, n, [])
