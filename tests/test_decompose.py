"""Cuts, weak/strong decomposition, level factorisation, readback."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    SIG3,
    random_convex_sub,
    random_gluing,
    random_in_cuts,
    random_out_cuts,
    random_rm_cospan,
    random_term,
    random_updown_signature,
)
from cmonrw import decompose
from cmonrw.cospan import (
    Cospan,
    FinFunction,
    compose,
    cospan_key,
    function_to_cospan,
    is_monogamous,
    is_right_monogamous,
    iso_equal,
)
from cmonrw.decompose import (
    Cut,
    complete_cut,
    edge_conn,
    edge_levels,
    factorise_into_levels,
    fn_to_cmon_term,
    gluing_choice_points,
    iface_conn,
    in_connections,
    level0_decompose,
    node_orders,
    perm_term,
    readback_term,
    recompose_levels,
    recompose_strong,
    recompose_weak,
    strong_decompose,
    weak_decompose,
)
from cmonrw.errors import (
    BadInterfaceOrder,
    IncompatibleGluing,
    NotTerminal,
    PartitionMismatch,
)
from cmonrw.hypergraph import Edge, Hypergraph, SubHypergraph, terminal_nodes
from cmonrw.sigterm import Eta, Id, Mu, Par, Seq, parse_signature, parse_term
from cmonrw.translate import eval_term
import naive_scans

SIG_AB = parse_signature(
    "gen a : 1 -> 1\ngen b : 1 -> 1\ngen f : 2 -> 1\ngen g : 1 -> 2\n"
)


def merge_fixture() -> Cospan:
    """Three g-edges feeding two merge nodes; left reuses node 2 twice."""
    g = Hypergraph(
        frozenset([0, 1, 2, 3, 4]),
        {
            0: Edge("g", (0,), (2, 2)),
            1: Edge("g", (1,), (2, 2)),
            2: Edge("g", (2,), (3, 3)),
        },
    )
    return Cospan(g, (0, 2, 2, 4, 1), (3, 4))


def test_fixture_orders_and_levels():
    c = merge_fixture()
    conns = in_connections(c)
    assert sorted(v for v, cs in conns.items() if len(cs) != 1) == [2, 3]
    assert node_orders(c) == {0: 0, 1: 0, 2: 1, 3: 2, 4: 0}
    assert edge_levels(c) == {0: 0, 1: 0, 2: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_in_connections_index_agrees_with_per_node_scan(seed):
    rng = random.Random(seed)
    term = random_term(rng, SIG3)
    for c in (random_rm_cospan(rng), eval_term(term, SIG3), merge_fixture()):
        conns = in_connections(c)
        assert conns.keys() == c.carrier.nodes
        for v in c.carrier.nodes:
            assert conns[v] == naive_scans.in_connections(c, v)


def one_cut(c: Cospan, v: int) -> Cut:
    """The trivial cut keeping all of v's input connections together."""
    return Cut(v, (frozenset(in_connections(c)[v]),))


def cut_at(c: Cospan, cut: Cut):
    """complete_cut with cut at its node and trivial cuts elsewhere."""
    others = sorted(terminal_nodes(c.carrier) - {cut.node})
    return complete_cut(c, [cut] + [one_cut(c, v) for v in others])


def test_one_cut_keeps_cospan_intact():
    c = merge_fixture()
    split, fn = cut_at(c, one_cut(c, 3))
    assert iso_equal(split, c)
    assert fn.table == tuple(range(fn.dom))


def test_apply_cut_requires_terminal_node():
    c = merge_fixture()
    with pytest.raises(NotTerminal):
        cut_at(c, one_cut(c, 2))


def test_apply_cut_rejects_wrong_partition():
    c = merge_fixture()
    with pytest.raises(PartitionMismatch):
        cut_at(c, Cut(3, (frozenset([iface_conn(0)]),)))


def test_two_cut_splits_merge_node():
    c = merge_fixture()
    cut = Cut(
        3,
        (frozenset([edge_conn(2, 0)]), frozenset([edge_conn(2, 1)])),
    )
    split, fn = cut_at(c, cut)
    assert len(split.carrier.nodes) == len(c.carrier.nodes) + 1
    assert fn.dom == len(split.right) and fn.cod == len(c.right)
    assert iso_equal(compose(split, function_to_cospan(fn)), c)


@given(st.integers(0, 2**32 - 1))
def test_complete_cut_recomposes(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    cuts = {cut.node: cut for cut in random_in_cuts(rng, c, 0)}
    full = [
        cuts.get(v, one_cut(c, v))
        for v in sorted(terminal_nodes(c.carrier))
    ]
    split, fn = complete_cut(c, full)
    assert iso_equal(compose(split, function_to_cospan(fn)), c)


def weak_fixture():
    c = merge_fixture()
    sub = SubHypergraph(frozenset([0, 2]), frozenset([0]))
    tau = {
        2: (
            frozenset([iface_conn(2)]),
            frozenset([iface_conn(1), edge_conn(1, 0), edge_conn(1, 1)]),
        )
    }
    return c, sub, tau


def test_weak_decomposition_frozen_shape():
    c, sub, tau = weak_fixture()
    wd = weak_decompose(c, sub, tau)
    assert wd.passthrough == 2
    assert wd.upstream.left == (0, 6, 5, 4, 1)
    assert wd.upstream.right == (4, 5, 0, 6)
    assert wd.extracted.left == (0, 2)
    assert wd.extracted.right == (2,)
    assert wd.downstream.left == (4, 2, 2)
    assert wd.downstream.right == (3, 4)
    for part in (wd.upstream, wd.extracted, wd.downstream):
        assert is_right_monogamous(part)
    assert iso_equal(recompose_weak(wd), c)


def strong_fixture():
    """The weak fixture, its weak decomposition, and cuts on both sides
    under which middle positions 2 and 3 each choose between two copies
    and positions 0 and 1 have one node to attach to."""
    c, sub, tau = weak_fixture()
    wd = weak_decompose(c, sub, tau)
    omega_in = [
        Cut(0, (frozenset([iface_conn(0)]), frozenset())),
        Cut(
            6,
            (
                frozenset([edge_conn(1, 0), edge_conn(1, 1)]),
                frozenset([iface_conn(1)]),
            ),
        ),
    ]
    omega_out = [
        Cut(2, (frozenset([edge_conn(0, 0)]), frozenset([edge_conn(0, 1)])))
    ]
    return c, wd, (omega_in, omega_out)


def test_strong_decomposition_frozen_gluings():
    c, wd, inout = strong_fixture()
    assert gluing_choice_points(wd, inout) == {2: 2, 3: 2}
    middles = set()
    for g0, g1 in product(range(2), range(2)):
        parts = strong_decompose(wd, inout, {2: g0, 3: g1})
        assert iso_equal(recompose_strong(parts), c)
        middles.add(cospan_key(parts[1]))
    assert len(middles) == 4


def test_strong_decomposition_rejects_gluings_that_do_not_fit():
    c, wd, inout = strong_fixture()
    for gluing, message in [
        ({2: 0, 3: 0, 4: 0}, "gluing position 4 out of range"),
        ({-1: 0, 2: 0, 3: 0}, "gluing position -1 out of range"),
        ({0: 1, 2: 0, 3: 0}, "position 0 has a single node to attach to"),
        ({1: 1, 2: 0, 3: 0}, "position 1 has a single node to attach to"),
        ({2: 0}, "position 3 needs a gluing choice among 2 copies"),
        ({2: 0, 3: 2}, "gluing index 2 at position 3 out of range"),
    ]:
        with pytest.raises(IncompatibleGluing) as raised:
            strong_decompose(wd, inout, gluing)
        assert raised.value.message == message
    parts = strong_decompose(wd, inout, {0: 0, 1: 0, 2: 1, 3: 0})
    assert iso_equal(recompose_strong(parts), c)


def test_strong_decomposition_trivial_cuts():
    c, sub, tau = weak_fixture()
    wd = weak_decompose(c, sub, tau)
    parts = strong_decompose(wd, ([], []), {})
    assert iso_equal(recompose_strong(parts), c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weak_and_strong_recompose_on_random_instances(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    sub = random_convex_sub(rng, c.carrier)
    wd = weak_decompose(c, sub, random_updown_signature(rng, c, sub))
    assert iso_equal(recompose_weak(wd), c)
    inout = (
        random_in_cuts(rng, wd.upstream, wd.passthrough),
        random_out_cuts(rng, wd.extracted),
    )
    parts = strong_decompose(wd, inout, random_gluing(rng, wd, inout))
    assert iso_equal(recompose_strong(parts), c)


def test_level_factorisation_frozen_shape():
    c = merge_fixture()
    lf = factorise_into_levels(c)
    assert len(lf.factors) == 3
    assert lf.perm.table == (1, 0)
    assert sorted(lf.factors[0].slice.carrier.edges) == [0, 1]
    assert sorted(lf.factors[1].slice.carrier.edges) == [2]
    assert sorted(lf.factors[2].slice.carrier.edges) == []
    for f in lf.factors:
        assert is_monogamous(f.slice)
        assert not f.merges.carrier.edges
        assert is_right_monogamous(f.merges)
    assert iso_equal(recompose_levels(lf), c)


def test_monogamous_input_factorises_trivially():
    c = eval_term(parse_term("(a + b) ; f", SIG_AB), SIG_AB)
    lf = factorise_into_levels(c)
    nonempty = [f for f in lf.factors if f.slice.carrier.edges]
    assert len(nonempty) == 1
    assert iso_equal(recompose_levels(lf), c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_levels_recompose_and_audit(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    lf = factorise_into_levels(c)
    assert iso_equal(recompose_levels(lf), c)
    levels = edge_levels(c)
    for i, f in enumerate(lf.factors):
        assert set(f.slice.carrier.edges) == {
            e for e, l in levels.items() if l == i
        }


def test_level0_conditions():
    base = merge_fixture()
    # order-0 outputs must lead, so present the outputs as (4, 3)
    c = Cospan(base.carrier, base.left, (4, 3))
    split = level0_decompose(c)
    assert set(split.slice.carrier.edges) == {0, 1}
    assert is_monogamous(split.slice)
    assert not split.merges.carrier.edges
    assert split.passthrough == 1


def test_level0_rejects_misordered_outputs():
    c = merge_fixture()
    with pytest.raises(BadInterfaceOrder):
        level0_decompose(c)


@given(st.integers(0, 2**32 - 1))
def test_perm_term_evaluates_to_its_permutation(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    table = list(range(n))
    rng.shuffle(table)
    perm = FinFunction(n, n, tuple(table))
    t = perm_term(perm)
    assert iso_equal(eval_term(t, SIG3), function_to_cospan(perm))


@given(st.integers(0, 2**32 - 1))
def test_fn_to_cmon_term_evaluates_to_its_function(seed):
    rng = random.Random(seed)
    dom, cod = rng.randint(0, 4), rng.randint(1, 4)
    f = FinFunction(dom, cod, tuple(rng.randrange(cod) for _ in range(dom)))
    assert iso_equal(
        eval_term(fn_to_cmon_term(f), SIG3), function_to_cospan(f)
    )


def recursive_merge_tree(count: int):
    """The merge tree as fn_to_cmon_term built it by recursion."""
    if count == 0:
        return Eta()
    if count == 1:
        return Id(1)
    if count == 2:
        return Mu()
    return Seq(Par(Id(1), recursive_merge_tree(count - 1)), Mu())


@pytest.mark.parametrize("count", range(40))
def test_merge_tree_is_the_recursive_one(count):
    f = FinFunction(count, 1, (0,) * count)
    assert fn_to_cmon_term(f) == recursive_merge_tree(count)
    fibers = FinFunction(count + 3, 3, (2,) + (0,) * count + (2, 1))
    built = fn_to_cmon_term(fibers)
    assert built.snd.fst.fst == recursive_merge_tree(count)


READBACK_CASES = [
    "id_3",
    "mu",
    "eta",
    "(mu + id_1) ; mu",
    "(a + a) ; f",
    "g ; mu",
    "(g + g) ; (id_1 + sym_1_1 + id_1) ; (mu + mu)",
]


@pytest.mark.parametrize("src", READBACK_CASES)
def test_readback_roundtrip_fixed_cases(src):
    c = eval_term(parse_term(src, SIG_AB), SIG_AB)
    rb = readback_term(c, SIG_AB)
    assert iso_equal(eval_term(rb, SIG_AB), c)


def test_readback_of_merge_fixture():
    c = merge_fixture()
    rb = readback_term(c, SIG_AB)
    assert iso_equal(eval_term(rb, SIG_AB), c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_readback_roundtrip_random_terms(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3)
    c = eval_term(t, SIG3)
    rb = readback_term(c, SIG3)
    assert iso_equal(eval_term(rb, SIG3), c)


def _raw(c: Cospan) -> tuple:
    g = c.carrier
    return (sorted(g.nodes), list(g.edges.items()), c.left, c.right)


def _factors_raw(lf) -> tuple:
    return lf.perm, [
        (_raw(f.slice), f.passthrough, _raw(f.merges)) for f in lf.factors
    ]


def test_factorisation_matches_the_per_level_reference():
    rng = random.Random(2024)
    hosts = [merge_fixture()]
    hosts += [random_rm_cospan(rng) for _ in range(300)]
    hosts += [eval_term(random_term(rng, SIG3), SIG3) for _ in range(150)]
    peeled = 0
    for c in hosts:
        assert _factors_raw(factorise_into_levels(c)) == _factors_raw(
            naive_scans.factorise_into_levels(c)
        )
        # each remainder's orders are its parent's, lowered by one
        orders = node_orders(c)
        right = tuple(sorted(c.right, key=lambda v: orders[v]))
        cur = Cospan(c.carrier, c.left, right)
        while cur.carrier.nodes:
            cur = level0_decompose(cur).remainder
            shifted = {v: max(orders[v] - 1, 0) for v in cur.carrier.nodes}
            assert node_orders(cur) == shifted
            orders = shifted
            peeled += 1
    assert peeled >= 600


def test_factorisation_validates_and_orders_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(decompose, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("validate_right_monogamous_acyclic", "node_orders"):
        monkeypatch.setattr(decompose, name, counted(name))
    deep = eval_term(
        parse_term("((g ; mu) + a) ; f ; g ; mu ; g ; mu", SIG_AB), SIG_AB
    )
    for c in (merge_fixture(), deep):
        calls.clear()
        lf = factorise_into_levels(c)
        assert len(lf.factors) >= 3
        assert calls == {
            "validate_right_monogamous_acyclic": 1,
            "node_orders": 1,
        }


SIG_PQRS = parse_signature(
    "gen p : 1 -> 1\ngen q : 2 -> 1\ngen r : 1 -> 2\ngen s : 0 -> 1\n"
)


def test_readback_matches_the_re_sorting_reference():
    rng = random.Random(2025)
    cases = [(merge_fixture(), SIG_AB)]
    cases += [
        (eval_term(parse_term(src, SIG_AB), SIG_AB), SIG_AB)
        for src in READBACK_CASES
    ]
    cases += [(random_rm_cospan(rng), SIG_PQRS) for _ in range(300)]
    for c, sig in cases:
        assert readback_term(c, sig) == naive_scans.readback_term(c, sig)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_readback_of_random_terms_matches_the_re_sorting_reference(seed):
    rng = random.Random(seed)
    c = eval_term(random_term(rng, SIG3), SIG3)
    assert readback_term(c, SIG3) == naive_scans.readback_term(c, SIG3)


def test_readback_reuses_the_factorisation(monkeypatch):
    calls = Counter()
    real = decompose.peel_levels

    def counted(g):
        calls["peel_levels"] += 1
        return real(g)

    monkeypatch.setattr(decompose, "peel_levels", counted)
    c = eval_term(parse_term("((g ; mu) + a) ; f ; g ; mu", SIG_AB), SIG_AB)
    lf = factorise_into_levels(c)
    back = readback_term(c, SIG_AB)
    assert factorise_into_levels(c) is lf
    assert calls["peel_levels"] == 1
    assert back == naive_scans.readback_term(c, SIG_AB)
    assert iso_equal(eval_term(back, SIG_AB), c)


def test_readback_of_an_8000_factor_chain_is_one_slice_in_linear_time():
    sig = parse_signature("gen f : 1 -> 1\n")
    c = eval_term(parse_term(" ; ".join(["f"] * 8000), sig), sig)
    lf = factorise_into_levels(c)
    assert len(lf.factors[0].slice.carrier.edges) == 8000
    t0 = time.perf_counter()
    back = readback_term(c, sig)
    assert time.perf_counter() - t0 < 0.5
    assert back.size == 2 * 8000 - 1
