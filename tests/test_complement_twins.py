"""boundary_complement up to twin producers, against the full product of
in-slot picks kept in naive_dpo: the same complements, in the same order,
field for field, from far fewer candidates where twins feed a boundary
node."""

from __future__ import annotations

import random

import pytest

from cmonrw import cospan, dpo, hypergraph
from corpus import SIG3, random_rm_cospan, random_term
from cmonrw.cospan import Cospan, is_right_monogamous
from cmonrw.dpo import (
    Match,
    RewriteRule,
    boundary_complement,
    enumerate_convex_matches,
    normalize,
    rewrite_all,
)
from cmonrw.errors import DanglingEdge
from cmonrw.hypergraph import Edge, Hypergraph, is_convex, iter_homomorphisms
from cmonrw.sigterm import parse_signature, parse_term
from cmonrw.translate import eval_term
from naive_dpo import (
    full_product_complements,
    reference_complement_is_valid,
)

SIG = parse_signature(
    "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\n"
    "gen s : 0 -> 1\ngen t : 0 -> 1\ngen p : 0 -> 2\n"
)
# the labels of corpus.random_rm_cospan, whose hosts can have twin s edges
RM_SIG = parse_signature(
    "gen p : 1 -> 1\ngen q : 2 -> 1\ngen r : 1 -> 2\ngen s : 0 -> 1\n"
)


def _ev(text: str, sig=SIG) -> Cospan:
    return eval_term(parse_term(text, sig), sig)


def merge_all(n: int) -> str:
    """A term merging n wires into one: n-1 mu, each on the first two."""
    layers = [f"(mu + id_{k})" if k else "mu" for k in range(n - 2, -1, -1)]
    return " ; ".join(layers) if layers else "id_1"


def _view(comp) -> tuple:
    """Every field of a complement, edges in their dict order."""
    return (
        sorted(comp.carrier.nodes),
        list(comp.carrier.edges.items()),
        comp.c1,
        comp.c2,
        comp.d1,
        comp.d2,
    )


def _outcome(build, match, host):
    try:
        return [_view(c) for c in build(match, host)]
    except DanglingEdge:
        return "dangling"


def assert_same_complements(lhs: Cospan, host: Cospan) -> int:
    """Compare both builders on every convex match of lhs in host; return
    the number of complements found."""
    rule = RewriteRule(lhs, lhs, "self")
    found = 0
    for match in enumerate_convex_matches(rule, host):
        new = _outcome(boundary_complement, match, host)
        assert new == _outcome(full_product_complements, match, host)
        found += len(new) if new != "dangling" else 0
    return found


def has_twins(host: Cospan) -> bool:
    edges = list(host.carrier.edges.values())
    return len(set(edges)) < len(edges)


def merge_host(n: int) -> str:
    """n nullary s edges merged into one wire, then f."""
    return f"({' + '.join(['s'] * n)}) ; {merge_all(n)} ; f"


@pytest.mark.parametrize("n", range(1, 11))
def test_mu_f_on_n_way_merge_of_s(n):
    host = _ev(merge_host(n))
    assert assert_same_complements(_ev("mu ; f"), host) >= 1


def test_ten_way_merge_builds_one_candidate_per_class(monkeypatch):
    built, checked = [], []
    make, check = dpo.Complement, dpo.complement_is_valid

    def building(*fields):
        built.append(fields)
        return make(*fields)

    def counting(match, host, comp):
        checked.append(comp)
        return check(match, host, comp)

    monkeypatch.setattr(dpo, "Complement", building)
    monkeypatch.setattr(dpo, "complement_is_valid", counting)
    host = _ev(merge_host(10))
    (match,) = enumerate_convex_matches(
        RewriteRule(_ev("mu ; f"), _ev("h"), "mufh"), host
    )
    comps = boundary_complement(match, host)
    assert len(built) == 11 and checked == []
    assert [_view(c) for c in full_product_complements(match, host)] == [
        _view(c) for c in comps
    ]
    # the full product builds and validates every pick vector
    assert len(checked) == 1024
    # k of the ten s edges on the first copy, k = 0..10
    assert len(comps) == 11
    assert all(reference_complement_is_valid(match, host, c) for c in comps)


# three p : 0 -> 2; every first output merges into one node, every second
# output into another, and h reads both
TWO_SLOT_HOST = (
    "(p + p + p) ; (id_1 + sym_1_1 + id_3) ; (id_2 + sym_2_1 + id_1)"
    f" ; (({merge_all(3)}) + ({merge_all(3)})) ; h"
)


def test_twins_with_two_in_slots_each():
    host = _ev(TWO_SLOT_HOST)
    assert has_twins(host)
    assert assert_same_complements(_ev("(mu + mu) ; h"), host) >= 2
    assert assert_same_complements(_ev("mu + mu"), host) >= 2


MIXED_HOSTS = [
    f"(id_1 + f + f + s + t + s) ; {merge_all(6)} ; f",
    f"(s + id_1 + s + g + s) ; {merge_all(5)} ; f",
    f"(id_2 + s + s + p) ; {merge_all(6)} ; f",
]
MIXED_LHS = ["mu ; f", "mu", "f", "(mu + id_1) ; mu"]


@pytest.mark.parametrize("host_text", MIXED_HOSTS)
@pytest.mark.parametrize("lhs_text", MIXED_LHS)
def test_twins_mixed_with_other_producers_and_left_slots(host_text, lhs_text):
    host = _ev(host_text)
    assert has_twins(host) and host.left
    assert_same_complements(_ev(lhs_text), host)


OUTPUT_IMAGE_CASES = [
    # the f output and the twins meet in the output-image node: its only
    # copy is the c2 one
    (f"(f + s + s + s) ; {merge_all(4)}", "f"),
    (f"(f + s + s + s) ; {merge_all(4)} ; g", "f"),
    # mu's node is in both images: two c1 copies and one c2 copy
    (f"(s + s + s + s) ; {merge_all(4)} ; f", "mu"),
    (f"(s + s + s + s) ; {merge_all(4)}", "mu"),
]


@pytest.mark.parametrize("host_text, lhs_text", OUTPUT_IMAGE_CASES)
def test_twins_into_an_output_image_node(host_text, lhs_text):
    host = _ev(host_text)
    assert has_twins(host)
    assert assert_same_complements(_ev(lhs_text), host) >= 1


def test_rewrite_all_glues_once_per_step_and_never_validates(monkeypatch):
    # a result is glued straight from its match's cut: one carrier per
    # result and no pushout. A complement is built only where a match has
    # several candidates to deduplicate, once per candidate, and nothing
    # checks a complement
    calls = dict.fromkeys(
        [
            "pushout",
            "complement_is_valid",
            "iso_equal",
            "Complement",
            "Hypergraph",
            "cospan_key",
        ],
        0,
    )

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(dpo, name, counting(name, getattr(dpo, name)))
    cases = [(merge_host(n), "mu ; f") for n in range(1, 11)]
    cases += [(TWO_SLOT_HOST, "(mu + mu) ; h"), (TWO_SLOT_HOST, "mu + mu")]
    cases += [(h, lhs) for h in MIXED_HOSTS for lhs in MIXED_LHS]
    cases += OUTPUT_IMAGE_CASES
    cases += [(" ; ".join(["f"] * 6), "f"), ("(f + f) ; h ; g", "f ; g")]
    seen = {"single": 0, "several": 0}
    for host_text, lhs_text in cases:
        lhs, host = _ev(lhs_text), _ev(host_text)
        rule = RewriteRule(lhs, lhs, "self")
        # per match, the candidates boundary_complement builds and the
        # complements it keeps
        built, kept = [], []
        for match in enumerate_convex_matches(rule, host):
            before = calls["Complement"]
            try:
                kept.append(len(boundary_complement(match, host)))
            except DanglingEdge:
                continue
            built.append(calls["Complement"] - before)
            seen["several" if built[-1] > 1 else "single"] += 1
        for name in calls:
            calls[name] = 0
        rewrite_all([rule], host)
        compared = sum(n for n in built if n > 1)
        assert calls["cospan_key"] == sum(kept)
        assert calls["Complement"] == compared
        assert calls["Hypergraph"] == sum(kept) + compared
        assert calls["pushout"] == 0
        assert calls["complement_is_valid"] == calls["iso_equal"] == 0
    assert seen["single"] > 10 and seen["several"] > 10


def counting_canonical_forms(monkeypatch) -> list:
    """Record every canonical_form call, all made through cospan."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return hypergraph.canonical_form(*args, **kwargs)

    monkeypatch.setattr(cospan, "canonical_form", counting)
    return calls


def test_rewriting_forests_computes_no_canonical_form(monkeypatch):
    # results of f => g on f-chains and merged s ; f branches are forests,
    # which cospan_key certifies without the canonical form; only sorting
    # several normal forms into output order needs it, once per form
    calls = counting_canonical_forms(monkeypatch)
    fg = RewriteRule(_ev("f"), _ev("g"), "fg")
    chains = [" ; ".join(["f"] * n) for n in (1, 2, 5, 12)]
    branches = [
        f"({' + '.join(['(s ; f)'] * n)}) ; {merge_all(n)}" for n in (2, 3, 6)
    ]
    for host in chains + branches:
        assert rewrite_all([fg], _ev(host))
    for host in chains[:3] + branches[:2]:
        assert len(normalize([fg], _ev(host), "bfs")) == 1
    assert calls == []
    two_forms = [fg, RewriteRule(_ev("f ; f"), _ev("g"), "ffg")]
    assert len(normalize(two_forms, _ev("f ; f"), "bfs")) == 2
    assert len(calls) == 2


LHS_SIG3 = [
    "a",
    "b",
    "c",
    "mu",
    "id_1",
    "a ; a",
    "c ; b",
    "mu ; a",
    "eta ; a",
    "(a + id_1) ; mu",
    "(a + a) ; b",
    "(a + a) ; mu",
    "sym_1_1 ; b",
]


def test_random_sig3_hosts():
    rng = random.Random(20261018)
    rules = [_ev(text, SIG3) for text in LHS_SIG3]
    found = 0
    for _ in range(25):
        host = eval_term(random_term(rng, SIG3, max_generators=4), SIG3)
        for lhs in rules:
            found += assert_same_complements(lhs, host)
    assert found > 100


def test_criterion_7_hosts():
    lhs = _ev("b", SIG3)
    for text in [
        "(a + a) ; b",
        "((a + a) ; b) ; a",
        "(c ; b) ; a",
        "((a + a) ; b) ; c",
        "(b + a) ; b",
    ]:
        assert assert_same_complements(lhs, _ev(text, SIG3)) >= 1


def test_random_rm_cospans_some_with_twins():
    rng = random.Random(7)
    rules = [
        _ev(text, RM_SIG)
        for text in ["p", "q", "r", "s", "mu", "mu ; p", "r ; q", "id_1"]
    ]
    twins = found = 0
    for _ in range(300):
        host = random_rm_cospan(rng)
        twins += has_twins(host)
        for lhs in rules:
            found += assert_same_complements(lhs, host)
    assert twins >= 5 and found > 300


def _spoilt(rng: random.Random, host: Cospan) -> Cospan:
    """The host with its right leg or a consumer changed, so that it is
    no longer right-monogamous: an output listed twice, an output dropped,
    or a new p edge from a node, consumed or an output already, to a new
    output."""
    g, right = host.carrier, host.right
    kind = rng.randrange(3)
    if kind == 0 and right:
        return Cospan(g, host.left, right + right[:1])
    if kind == 1 and right:
        return Cospan(g, host.left, right[1:])
    new = max(g.nodes) + 1
    edges = dict(g.edges)
    edges[len(edges)] = Edge("p", (rng.choice(sorted(g.nodes)),), (new,))
    return Cospan(Hypergraph(g.nodes | {new}, edges), host.left, right + (new,))


def test_hosts_that_are_not_right_monogamous_give_the_full_product():
    # a cut reads the host's own right-monogamy flag in place of checking
    # each complement's rearrangement; on hosts that fail it, the full
    # product (which checks every candidate) must find no complement either
    rng = random.Random(19)
    rules = [
        _ev(text, RM_SIG)
        for text in ["p", "q", "r", "s", "mu", "mu ; p", "r ; q", "id_1"]
    ]
    spoilt = compared = 0
    for _ in range(300):
        host = _spoilt(rng, random_rm_cospan(rng))
        spoilt += not is_right_monogamous(host)
        for lhs in rules:
            for hom in iter_homomorphisms(
                lhs.carrier, host.carrier, frozenset(lhs.right)
            ):
                images = set(hom.node_map.values()), set(hom.edge_map.values())
                if not is_convex(host.carrier, *images):
                    continue
                match = Match(RewriteRule(lhs, lhs, "self"), hom)
                new = _outcome(boundary_complement, match, host)
                assert new == _outcome(full_product_complements, match, host)
                compared += 1
    assert spoilt == 300 and compared > 300
