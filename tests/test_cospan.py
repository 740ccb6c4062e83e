"""Cospans: composition, tensor, functions, iso checking, documents."""

from __future__ import annotations

import dataclasses
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpus import SIG3, random_rm_cospan, random_term
from cmonrw.cospan import (
    EDGE,
    IFACE,
    Connection,
    Cospan,
    FinFunction,
    compose,
    cospan_from_document,
    cospan_key,
    cospan_order_key,
    cospan_to_document,
    cospan_to_dot,
    cospan_to_function,
    function_to_cospan,
    identity_cospan,
    is_monogamous,
    is_right_monogamous,
    iso_equal,
    pushout,
    reattach,
    symmetry_cospan,
    tensor,
    validate_right_monogamous_acyclic,
)
from cmonrw.decompose import in_connections
from cmonrw.errors import (
    InterfaceMismatch,
    NotDiscrete,
    NotRightMonogamous,
    UnknownNode,
)
from cmonrw.hypergraph import (
    Edge,
    Hypergraph,
    is_acyclic,
    reachable,
    terminal_nodes,
)
from cmonrw.sigterm import parse_signature, parse_term
from cmonrw.translate import eval_term
import naive_scans
from naive_eval import shifted_tensor, tagged_pushout


def rand_fn(rng: random.Random, dom: int, cod: int) -> FinFunction:
    return FinFunction(
        dom, cod, tuple(rng.randrange(cod) for _ in range(dom))
    )


def _shifted(g: Hypergraph, by: int) -> Hypergraph:
    """g with every node id moved by ``by`` (negative ids included)."""
    return Hypergraph(
        frozenset(v + by for v in g.nodes),
        {
            eid: Edge(
                e.label,
                tuple(v + by for v in e.sources),
                tuple(v + by for v in e.targets),
            )
            for eid, e in g.edges.items()
        },
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pushout_matches_tagged_reference(seed):
    rng = random.Random(seed)
    a = _shifted(random_rm_cospan(rng).carrier, rng.randint(-5, 5))
    b = _shifted(random_rm_cospan(rng).carrier, rng.randint(-5, 5))
    if rng.random() < 0.1:
        a = Hypergraph(frozenset(), {})
    # any pairs, repeats included, so classes chain across both sides
    pairs = [
        (rng.choice(sorted(a.nodes)), rng.choice(sorted(b.nodes)))
        for _ in range(rng.randint(0, 6) if a.nodes and b.nodes else 0)
    ]
    g, ra, rb = pushout(a, b, pairs)
    ref, rename = tagged_pushout(a, b, pairs)
    assert g.nodes == ref.nodes
    assert g.edges == ref.edges
    assert ra == {v: rename[(0, v)] for v in a.nodes}
    assert rb == {v: rename[(1, v)] for v in b.nodes}


def test_cospan_rejects_unknown_interface_nodes():
    g = Hypergraph(frozenset([0]), {})
    with pytest.raises(UnknownNode):
        Cospan(g, (1,), ())


def test_identity_and_symmetry_shapes():
    assert identity_cospan(3).arity == 3
    assert identity_cospan(3).coarity == 3
    s = symmetry_cospan(2, 1)
    assert s.arity == 3 and s.coarity == 3
    assert cospan_to_function(s).table == (1, 2, 0)


def test_compose_requires_matching_interfaces():
    with pytest.raises(InterfaceMismatch):
        compose(identity_cospan(2), identity_cospan(3))


def test_compose_glues_outputs_to_inputs():
    f = Hypergraph(frozenset([0, 1]), {0: Edge("f", (0,), (1,))})
    a = Cospan(f, (0,), (1,))
    c = compose(a, a)
    assert c.arity == 1 and c.coarity == 1
    assert len(c.carrier.nodes) == 3 and len(c.carrier.edges) == 2


@given(st.integers(0, 2**32 - 1))
def test_compose_is_associative_up_to_iso(seed):
    rng = random.Random(seed)
    f = rand_fn(rng, rng.randint(0, 3), rng.randint(1, 3))
    g = rand_fn(rng, f.cod, rng.randint(1, 3))
    h = rand_fn(rng, g.cod, rng.randint(1, 3))
    a, b, c = map(function_to_cospan, (f, g, h))
    assert iso_equal(compose(compose(a, b), c), compose(a, compose(b, c)))


@given(st.integers(0, 2**32 - 1))
def test_identity_is_neutral_up_to_iso(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    assert iso_equal(compose(identity_cospan(c.arity), c), c)
    assert iso_equal(compose(c, identity_cospan(c.coarity)), c)


@given(st.integers(0, 2**32 - 1))
def test_tensor_adds_interfaces(seed):
    rng = random.Random(seed)
    a, b = random_rm_cospan(rng, 4), random_rm_cospan(rng, 4)
    t = tensor(a, b)
    assert t.arity == a.arity + b.arity
    assert t.coarity == a.coarity + b.coarity


@given(st.integers(0, 2**32 - 1))
def test_compose_and_tensor_preserve_right_monogamy_acyclicity(seed):
    rng = random.Random(seed)
    a, b = random_rm_cospan(rng, 5), random_rm_cospan(rng, 5)
    t = tensor(a, b)
    validate_right_monogamous_acyclic(t)
    glue = function_to_cospan(rand_fn(rng, a.coarity, max(a.coarity, 1)))
    c = compose(a, glue)
    assert is_right_monogamous(c) and is_acyclic(c.carrier)


@given(st.integers(0, 2**32 - 1))
def test_function_cospan_roundtrip(seed):
    rng = random.Random(seed)
    f = rand_fn(rng, rng.randint(0, 4), rng.randint(1, 4))
    assert cospan_to_function(function_to_cospan(f)) == f


@given(st.integers(0, 2**32 - 1))
def test_cospan_composition_computes_function_composition(seed):
    rng = random.Random(seed)
    f = rand_fn(rng, rng.randint(0, 4), rng.randint(1, 4))
    g = rand_fn(rng, f.cod, rng.randint(1, 4))
    composite = compose(function_to_cospan(f), function_to_cospan(g))
    assert cospan_to_function(composite) == f.compose(g)


def test_cospan_to_function_needs_discrete_carrier():
    g = Hypergraph(frozenset([0, 1]), {0: Edge("f", (0,), (1,))})
    with pytest.raises(NotDiscrete):
        cospan_to_function(Cospan(g, (0,), (1,)))


def test_cospan_to_function_rejects_a_right_leg_that_repeats_a_node():
    c = Cospan(Hypergraph(frozenset([0]), {}), (0,), (0, 0))
    with pytest.raises(NotRightMonogamous) as raised:
        cospan_to_function(c)
    assert raised.value.code == "not-right-monogamous"
    assert raised.value.message == (
        "output boundary must list each carrier node exactly once"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FinFunction(2, 2, (0,)), "table length 1 != domain 2"),
        (
            lambda: FinFunction(1, 2, (2,)),
            "entry 0 maps to 2, outside codomain 2",
        ),
        (
            lambda: FinFunction(1, 2, (0,)).compose(FinFunction(1, 1, (0,))),
            "cannot compose: codomain 2 != domain 1",
        ),
    ],
    ids=["short-table", "outside-codomain", "compose-mismatch"],
)
def test_fin_function_rejects_mismatched_interfaces(build, message):
    with pytest.raises(InterfaceMismatch) as raised:
        build()
    assert raised.value.code == "interface-mismatch"
    assert raised.value.message == message


def test_interface_order_is_significant():
    g = Hypergraph(
        frozenset([0, 1, 2, 3]),
        {0: Edge("f", (0,), (1,)), 1: Edge("g", (2,), (3,))},
    )
    fg = Cospan(g, (0, 2), (1, 3))
    gf = Cospan(g, (2, 0), (3, 1))
    assert not iso_equal(fg, gf)
    assert iso_equal(fg, fg)


def shuffled_copy(rng: random.Random, c: Cospan) -> Cospan:
    """c with its nodes renamed at random (some names negative) and its
    edges renumbered and inserted in a random order."""
    names = sorted(c.carrier.nodes)
    pool = range(-20, 3 * len(names) + 20)
    ren = dict(zip(names, rng.sample(pool, len(names))))
    old = list(c.carrier.edges.values())
    rng.shuffle(old)
    ids = rng.sample(range(5 * len(old) + 5), len(old))
    h = Hypergraph(
        frozenset(ren.values()),
        {
            eid: Edge(
                e.label,
                tuple(ren[v] for v in e.sources),
                tuple(ren[v] for v in e.targets),
            )
            for eid, e in zip(ids, old)
        },
    )
    return Cospan(
        h, tuple(ren[v] for v in c.left), tuple(ren[v] for v in c.right)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_matches_the_shifted_reference(seed):
    # operands numbered densely from 0 give the reference's document, node
    # for node and edge for edge; renamed copies, with negative or sparse
    # ids, give an isomorphic cospan
    rng = random.Random(seed)
    a, b = random_rm_cospan(rng, 5), random_rm_cospan(rng, 5)
    s, t = (eval_term(random_term(rng, SIG3), SIG3) for _ in range(2))
    empty = identity_cospan(0)
    for x, y in ((a, b), (s, t), (a, s), (empty, b), (t, empty)):
        glued = tensor(x, y)
        assert cospan_to_document(glued) == cospan_to_document(
            shifted_tensor(x, y)
        )
        renamed = tensor(shuffled_copy(rng, x), shuffled_copy(rng, y))
        assert iso_equal(renamed, glued)


@given(st.integers(0, 2**32 - 1))
def test_cospan_key_equal_for_shuffled_copies(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    d = shuffled_copy(rng, c)
    assert cospan_key(c) == cospan_key(d)
    assert iso_equal(c, d)


@given(st.integers(0, 2**32 - 1))
def test_document_roundtrip_preserves_interfaces_exactly(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    doc = cospan_to_document(c)
    back = cospan_from_document(json.loads(json.dumps(doc)))
    assert back.left == c.left and back.right == c.right
    assert cospan_to_document(back) == doc


def test_dot_output_has_interface_rails():
    dot = cospan_to_dot(identity_cospan(2))
    assert "cluster_left" in dot and "cluster_right" in dot
    assert dot == cospan_to_dot(identity_cospan(2))


def test_dot_output_of_one_edge_is_pinned_byte_for_byte():
    # two inputs chain their rail, the one output has no chain
    c = Cospan(Hypergraph({0, 1, 2}, {0: Edge("h", (0, 1), (2,))}),
               (0, 1), (2,))
    assert cospan_to_dot(c) == (
        "digraph cospan {\n"
        "  rankdir=LR;\n"
        "  subgraph cluster_left {\n"
        '    label="left"; color=blue;\n'
        '    l0 [shape=plaintext, label="0"];\n'
        '    l1 [shape=plaintext, label="1"];\n'
        "    l0 -> l1 [style=invis];\n"
        "  }\n"
        "  subgraph cluster_right {\n"
        '    label="right"; color=blue;\n'
        '    r0 [shape=plaintext, label="0"];\n'
        "  }\n"
        '  n0 [shape=point, xlabel="0"];\n'
        '  n1 [shape=point, xlabel="1"];\n'
        '  n2 [shape=point, xlabel="2"];\n'
        '  e0 [shape=box, label="h"];\n'
        '  n0 -> e0 [headlabel="0"];\n'
        '  n1 -> e0 [headlabel="1"];\n'
        '  e0 -> n2 [headlabel="0"];\n'
        "  l0 -> n0 [style=dashed, arrowhead=none];\n"
        "  l1 -> n1 [style=dashed, arrowhead=none];\n"
        "  n2 -> r0 [style=dashed, arrowhead=none];\n"
        "}\n"
    )


def test_monogamy_predicates():
    # merge node: in-degree 2 through mu is right-monogamous, not monogamous
    mu = function_to_cospan(FinFunction(2, 1, (0, 0)))
    assert is_right_monogamous(mu)
    assert not is_monogamous(mu)
    assert is_monogamous(identity_cospan(2))


def _altered(rng: random.Random, c: Cospan) -> Cospan:
    """c with one change to its right leg or its edges. Some keep it
    right-monogamous (a shuffled right leg, a new edge from a fresh node
    to a fresh output); the others spoil it: an output listed twice or
    dropped, a consumed node listed as an output, a second consumer for a
    node, or a fresh node nothing consumes."""
    g, right = c.carrier, c.right
    fresh = max(g.nodes) + 1
    edges = dict(g.edges)
    kind = rng.randrange(6)
    if kind == 0:
        return Cospan(g, c.left, right + (rng.choice(sorted(g.nodes)),))
    if kind == 1 and right:
        i = rng.randrange(len(right))
        return Cospan(g, c.left, right[:i] + right[i + 1:])
    if kind == 2:
        source = rng.choice(sorted(g.nodes))
        edges[len(edges)] = Edge("p", (source,), (fresh,))
        nodes, right = g.nodes | {fresh}, right + (fresh,)
    elif kind == 3:
        nodes = g.nodes | {fresh}
    elif kind == 4:
        edges[len(edges)] = Edge("p", (fresh,), (fresh + 1,))
        nodes, right = g.nodes | {fresh, fresh + 1}, right + (fresh + 1,)
    else:
        nodes, right = g.nodes, tuple(rng.sample(right, len(right)))
    return Cospan(Hypergraph(nodes, edges), c.left, right)


@pytest.mark.parametrize("seed", range(3))
def test_one_pass_right_monogamy_agrees_with_the_two_walk_reference(seed):
    rng = random.Random(seed)
    verdicts = []
    for _ in range(400):
        c = random_rm_cospan(rng)
        assert is_right_monogamous(c) and naive_scans.is_right_monogamous(c)
        altered = _altered(rng, c)
        verdicts.append(is_right_monogamous(altered))
        assert verdicts[-1] == naive_scans.is_right_monogamous(altered)
    assert 100 < verdicts.count(False) < 350


# the shapes a degree-based check is easiest to get wrong, with the verdict
RIGHT_MONOGAMY_CASES = {
    "edge with sources (v, v)": (
        ([0, 1], [("h", (0, 0), (1,))], (0,), (1,)), False
    ),
    "node twice on the right leg": (
        ([0, 1], [("f", (0,), (1,))], (0,), (1, 1)), False
    ),
    "consumed node on the right leg": (
        ([0, 1], [("f", (0,), (1,))], (0,), (0, 1)), False
    ),
    "isolated node off the right leg": (
        ([0, 1, 2], [("f", (0,), (1,))], (0,), (1,)), False
    ),
    "right-monogamous cycle": (
        ([0, 1], [("f", (0,), (1,)), ("g", (1,), (0,))], (), ()), True
    ),
}


@pytest.mark.parametrize("case", sorted(RIGHT_MONOGAMY_CASES))
def test_right_monogamy_edge_cases_agree_with_the_two_walk_reference(case):
    parts, verdict = RIGHT_MONOGAMY_CASES[case]
    c = _cospan(*parts)
    assert is_right_monogamous(c) == naive_scans.is_right_monogamous(c)
    assert is_right_monogamous(c) == verdict


def _connections(c: Cospan) -> list[Connection]:
    return [conn for conns in in_connections(c).values() for conn in conns]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reattach_matches_the_per_slot_rebuild(seed):
    rng = random.Random(seed)
    for c in (random_rm_cospan(rng), eval_term(random_term(rng, SIG3), SIG3)):
        conns = _connections(c)
        fresh = max(c.carrier.nodes, default=-1) + 1
        picked = {
            conn: rng.randrange(fresh + 3)
            for conn in conns
            if rng.random() < 0.5
        }
        ifaces = {conn: fresh for conn in conns if conn.kind == IFACE}
        before = list(c.carrier.edges.items())
        for to in (picked, {}, ifaces):
            edges, left = reattach(c.carrier.edges, c.left, to)
            want_edges, want_left = naive_scans.rebuild(
                c.carrier.edges, c.left, to
            )
            assert list(edges.items()) == list(want_edges.items())
            assert left == want_left
        assert list(c.carrier.edges.items()) == before


def test_connection_tuple_keeps_the_dataclass_hash_order_and_repr():
    rng = random.Random(11)
    conns = [Connection(EDGE, 0), Connection(IFACE, 3), Connection(EDGE, 2, 1)]
    for _ in range(60):
        conns += _connections(random_rm_cospan(rng))
    old = [naive_scans.DataclassConnection(*conn) for conn in conns]
    for new, ref in zip(conns, old):
        assert hash(new) == hash(ref)
        assert repr(new) == repr(ref)
        assert tuple(new) == dataclasses.astuple(ref)
    assert [naive_scans.DataclassConnection(*c) for c in sorted(conns)] == (
        sorted(old)
    )
    for _ in range(50):
        picks = rng.sample(range(len(conns)), rng.randint(0, 12))
        new_set = frozenset(conns[i] for i in picks)
        old_set = frozenset(old[i] for i in picks)
        assert [tuple(c) for c in new_set] == [
            dataclasses.astuple(c) for c in old_set
        ]


# ------------------------------------------ cospan_key against the order key
# cospan_key takes an AHU tree certificate on forests, the cospan written
# out in certificate order on other right-monogamous acyclic cospans without
# a real tie, and the canonical form elsewhere; cospan_order_key is the
# canonical form alone. Both decide isomorphism, so they must induce the
# same partition of any corpus.

SIG_FGHS = parse_signature(
    "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"
)
ONE_TARGET_LABELS = (("p", 1, 1), ("q", 2, 1), ("s", 0, 1))


def ev_fghs(text: str) -> Cospan:
    return eval_term(parse_term(text, SIG_FGHS), SIG_FGHS)


def _cospan(nodes, edges, left, right) -> Cospan:
    g = Hypergraph(frozenset(nodes), dict(enumerate(Edge(*e) for e in edges)))
    return Cospan(g, tuple(left), tuple(right))


def partition(cospans, key) -> set[frozenset[int]]:
    classes: dict = {}
    for i, c in enumerate(cospans):
        classes.setdefault(key(c), set()).add(i)
    return {frozenset(block) for block in classes.values()}


def assert_same_partition(cospans) -> None:
    assert partition(cospans, cospan_key) == partition(
        cospans, cospan_order_key
    )


def with_copies(rng: random.Random, cospans, copies: int = 2) -> list:
    out = list(cospans)
    for c in cospans:
        out += [shuffled_copy(rng, c) for _ in range(copies)]
    return out


def is_forest_keyed(c: Cospan) -> bool:
    return cospan_key(c)[0] == "forest"


def test_key_partition_on_the_cospan_and_hypergraph_corpora():
    rng = random.Random(4242)
    corpus = []
    for _ in range(150):
        corpus.append(random_rm_cospan(rng, 6))
        corpus.append(eval_term(random_term(rng, SIG3), SIG3))
        dom, cod = rng.randint(0, 4), rng.randint(1, 4)
        corpus.append(function_to_cospan(rand_fn(rng, dom, cod)))
    corpus += [identity_cospan(n) for n in range(4)]
    corpus += [symmetry_cospan(m, n) for m in range(3) for n in range(3)]
    for labels in [("f", "g"), ("g", "f"), ("f", "f"), ("f",), ()]:
        edges = [(lab, (i,), (i + 1,)) for i, lab in enumerate(labels)]
        n = len(labels)
        corpus.append(_cospan(range(n + 1), edges, (0,), (n,)))
    corpus = with_copies(rng, corpus)
    assert any(map(is_forest_keyed, corpus))
    assert not all(map(is_forest_keyed, corpus))
    assert_same_partition(corpus)


@pytest.mark.parametrize("seed", range(4))
def test_key_partition_on_random_one_target_cospans(seed):
    rng = random.Random(seed)
    base = [
        random_rm_cospan(rng, rng.randint(1, 7), ONE_TARGET_LABELS)
        for _ in range(300)
    ]
    corpus = with_copies(rng, base)
    assert all(map(is_forest_keyed, corpus))
    assert_same_partition(corpus)
    # small draws repeat shapes, so the partition has non-trivial blocks
    assert len(partition(base, cospan_key)) < len(base)


# explicit shapes random_rm_cospan never draws, each with near misses
FOREST_CASES = {
    "edge without a target": [
        _cospan([0, 1], [("k", (0,), ()), ("f", (1,), ())], (0, 1), ()),
        _cospan([0, 1], [("f", (0,), ()), ("k", (1,), ())], (0, 1), ()),
        _cospan([0, 1], [("k", (0,), ()), ("k", (1,), ())], (0, 1), ()),
        _cospan([0, 1], [("k", (0, 1), ())], (0, 1), ()),
        _cospan([0, 1], [("k", (1, 0), ())], (0, 1), ()),
        _cospan([0, 1, 2], [("f", (0,), (1,)), ("k", (1,), ())], (0,), (2,)),
        _cospan([], [("z", (), ())], (), ()),
        _cospan([], [("z", (), ()), ("z", (), ())], (), ()),
    ],
    "node at several left positions": [
        _cospan([0, 1], [("f", (0,), (1,))], (0, 0, 0), (1,)),
        _cospan([0, 1, 2], [("h", (0, 1), (2,))], (0, 1, 0), (2,)),
        _cospan([0, 1, 2], [("h", (0, 1), (2,))], (0, 0, 1), (2,)),
        _cospan([0, 1, 2], [("h", (0, 1), (2,))], (1, 0, 0), (2,)),
        _cospan([0, 1, 2], [("h", (0, 1), (2,))], (0, 1, 1), (2,)),
        _cospan([0], [], (0, 0), (0,)),
        _cospan([0, 1], [], (0, 1, 0), (0, 1)),
        _cospan([0, 1], [], (0, 1, 0), (1, 0)),
    ],
    "producerless node in right": [
        _cospan([0], [], (), (0,)),
        _cospan([0, 1], [], (), (0, 1)),
        _cospan([0, 1], [], (1,), (0, 1)),
        _cospan([0, 1], [], (0,), (0, 1)),
        _cospan([0, 1, 2], [("f", (0,), (1,))], (0,), (1, 2)),
        _cospan([0, 1, 2], [("f", (0,), (1,))], (0,), (2, 1)),
        _cospan([0, 1], [("s", (), (0,))], (), (0, 1)),
    ],
}


@pytest.mark.parametrize("case", sorted(FOREST_CASES))
def test_key_partition_on_explicit_forest_shapes(case):
    rng = random.Random(case)
    corpus = with_copies(rng, FOREST_CASES[case], copies=3)
    assert all(map(is_forest_keyed, corpus))
    assert_same_partition(corpus)
    assert len(partition(corpus, cospan_key)) == len(FOREST_CASES[case])


# shapes with edges of several targets, each with near misses
SHARED_CASES = {
    "multi-target edge": [
        eval_term(parse_term("c ; b", SIG3), SIG3),
        eval_term(parse_term("c ; sym_1_1 ; b", SIG3), SIG3),
        eval_term(parse_term("c", SIG3), SIG3),
        _cospan([0, 1, 2], [("c", (0,), (1, 2))], (0,), (2, 1)),
        # read one target per edge, these two would look alike
        _cospan([0, 1, 2], [("c", (0,), (1, 2))], (0,), (1, 2)),
        _cospan([0, 1, 2], [("c", (0,), (1, 1))], (0,), (1, 2)),
    ],
}


def is_structurally_keyed(c: Cospan) -> bool:
    return cospan_key(c)[0] != "graph"


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_key_partition_on_explicit_shared_shapes(case):
    rng = random.Random(case)
    corpus = with_copies(rng, SHARED_CASES[case])
    assert all(map(is_structurally_keyed, corpus))
    assert not any(map(is_forest_keyed, corpus))
    assert_same_partition(corpus)


FALLBACK_CASES = {
    "not right-monogamous": [
        _cospan([0, 1], [("f", (0,), (1,))], (0,), (1, 1)),
        _cospan([0, 1], [("f", (0,), (1,))], (0,), (0, 1)),
        _cospan([0, 1, 2], [("h", (0, 0), (1,))], (0,), (1, 2)),
        _cospan([0, 1], [("f", (0,), (1,))], (0,), ()),
        # a root listed twice stands in for an unreached node in both
        _cospan([0, 1], [], (1,), (0, 0)),
        _cospan([0, 1], [("f", (1,), (1,))], (1,), (0, 0)),
    ],
    "cyclic": [
        _cospan([0, 1], [("f", (0,), (1,)), ("g", (1,), (0,))], (), ()),
        _cospan([0, 1], [("g", (0,), (1,)), ("f", (1,), (0,))], (), ()),
        _cospan([0], [("f", (0,), (0,))], (), ()),
        _cospan(
            [0, 1, 2, 3],
            [("f", (0,), (1,)), ("f", (1,), (0,)), ("g", (2,), (3,))],
            (2,),
            (3,),
        ),
    ],
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_key_falls_back_outside_forests(case):
    rng = random.Random(case)
    corpus = with_copies(rng, FALLBACK_CASES[case])
    for c in corpus:
        assert cospan_key(c) == ("graph",) + cospan_order_key(c)
    assert_same_partition(corpus)


# Two producers of a node, or two target-less edges, with equal cones that
# hold an edge of several targets are a real tie: the key falls back.
SIG_CBK = parse_signature(
    "gen c : 1 -> 2\ngen b : 2 -> 1\ngen a : 1 -> 1\n"
)
TWO_SPLITS = "((eta ; c) + (eta ; c)) ; "


def ev_cbk(text: str) -> Cospan:
    return eval_term(parse_term(text, SIG_CBK), SIG_CBK)


TIE_CASES = [
    # crosswise: each merge takes one slot of both splits, a real tie
    (ev_cbk(TWO_SPLITS + "(id_1 + sym_1_1 + id_1) ; (mu + mu)"), False),
    # pairwise: each merge takes slot 0 of one split and slot 1 of the other
    (ev_cbk(TWO_SPLITS + "(id_1 + sym_2_1) ; (mu + mu)"), True),
    # the same two, built by hand
    (_cospan(range(4), [("c", (0,), (2, 3)), ("c", (1,), (2, 3))], (), (2, 3)),
     False),
    (_cospan(range(4), [("c", (0,), (2, 3)), ("c", (1,), (3, 2))], (), (2, 3)),
     True),
    # target-less edges d : 2 -> 0: each reads both slots of one split, or
    # the two cross
    (_cospan(
        range(6),
        [("c", (0,), (2, 3)), ("c", (1,), (4, 5)),
         ("d", (2, 3), ()), ("d", (4, 5), ())],
        (), (),
    ), False),
    (_cospan(
        range(6),
        [("c", (0,), (2, 3)), ("c", (1,), (4, 5)),
         ("d", (2, 5), ()), ("d", (4, 3), ())],
        (), (),
    ), False),
    # left positions tell the two splits apart, so nothing ties; the two
    # are isomorphic
    (_cospan(
        range(6),
        [("c", (0,), (2, 3)), ("c", (1,), (4, 5)),
         ("d", (2, 5), ()), ("d", (4, 3), ())],
        (0, 1), (),
    ), True),
    (_cospan(
        range(6),
        [("c", (0,), (2, 3)), ("c", (1,), (4, 5)),
         ("d", (2, 5), ()), ("d", (4, 3), ())],
        (1, 0), (),
    ), True),
    # three splits merged in a ring: every merge has one slot 0 and one
    # slot 1, so all three look alike, yet the one on the output is fixed,
    # and the other two, tied two edges further down, cannot be swapped
    (_cospan(
        range(9),
        [("c", (0,), (3, 5)), ("c", (1,), (4, 3)), ("c", (2,), (5, 4)),
         ("a", (3,), (6,)), ("a", (4,), (7,)),
         ("a", (6,), (8,)), ("a", (7,), (8,))],
        (), (8, 5),
    ), False),
    # equal tree cones beside a shared edge are swapped by an automorphism
    (ev_cbk("((eta ; a) + (eta ; a) + (eta ; c)) ; (mu + mu) ; b ; c"), True),
]


def test_key_falls_back_on_real_ties_only():
    rng = random.Random(7)
    cospans = [c for c, _ in TIE_CASES]
    for c, structural in TIE_CASES:
        assert is_structurally_keyed(c) == structural
    crosswise, pairwise = cospans[:2]
    assert cospan_key(crosswise) != cospan_key(pairwise)
    assert_same_partition(with_copies(rng, cospans, copies=3))


SHARED_LABELS = (("c", 1, 2), ("c", 1, 2), ("b", 2, 1), ("k", 1, 0))


def random_shared_cospan(rng: random.Random, max_nodes: int) -> Cospan:
    """A random right-monogamous acyclic cospan over c : 1 -> 2,
    b : 2 -> 1 and k : 1 -> 0, edges directed id-upward; an edge may
    target one node twice and several edges one node."""
    n = rng.randint(1, max_nodes)
    unused = set(range(n))
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        label, m, k = rng.choice(SHARED_LABELS)
        top = rng.randrange(n + 1) if k else n
        pool = sorted(v for v in unused if v < top)
        if len(pool) < m or (k and top == n):
            continue
        sources = tuple(rng.sample(pool, m))
        targets = tuple(rng.choice(range(top, n)) for _ in range(k))
        unused.difference_update(sources)
        edges.append((label, sources, targets))
    c = _cospan(range(n), edges, (), ())
    right = sorted(terminal_nodes(c.carrier))
    rng.shuffle(right)
    left = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
    c = Cospan(c.carrier, left, tuple(right))
    assert is_right_monogamous(c) and is_acyclic(c.carrier)
    return c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_key_partition_on_random_shared_cospans(seed):
    rng = random.Random(seed)
    base = [random_shared_cospan(rng, rng.randint(2, 8)) for _ in range(40)]
    assert_same_partition(with_copies(rng, base))


def with_a_cycle(rng: random.Random, c: Cospan) -> Cospan:
    """c with a cycle yet still right-monogamous: an output fed back to a
    node upstream of it, or a fresh two-node loop beside c."""
    g = c.carrier
    edges = dict(g.edges)
    eid = max(edges, default=-1) + 1
    if c.right and rng.random() < 0.7:
        i = rng.randrange(len(c.right))
        out = c.right[i]
        back = rng.choice(sorted(reachable(g, [out], forward=False)))
        edges[eid] = Edge("p", (out,), (back,))
        right = c.right[:i] + c.right[i + 1:]
        return Cospan(Hypergraph(g.nodes, edges), c.left, right)
    a = max(g.nodes) + 1
    edges[eid] = Edge("p", (a,), (a + 1,))
    edges[eid + 1] = Edge("p", (a + 1,), (a,))
    return Cospan(Hypergraph(g.nodes | {a, a + 1}, edges), c.left, c.right)


def assert_key_matches_the_walk_reference(cospans) -> int:
    """cospan_key gives the walk's structural key wherever the walk gives
    one, and falls back exactly where the walk gives None. Returns how
    many fell back."""
    fallbacks = 0
    for c in cospans:
        expected = naive_scans.structural_key(c)
        fallbacks += expected is None
        if expected is None:
            expected = ("graph",) + cospan_order_key(c)
        assert cospan_key(c) == expected
    return fallbacks


@pytest.mark.parametrize("seed", range(3))
def test_key_matches_the_walk_reference_on_random_cospans(seed):
    rng = random.Random(seed)
    one_target = [
        random_rm_cospan(rng, rng.randint(1, 7), ONE_TARGET_LABELS)
        for _ in range(200)
    ]
    shared = [random_shared_cospan(rng, rng.randint(2, 8)) for _ in range(200)]
    assert assert_key_matches_the_walk_reference(one_target) == 0
    assert assert_key_matches_the_walk_reference(shared) < len(shared)
    cyclic = [with_a_cycle(rng, c) for c in one_target[:50] + shared[:50]]
    for c in cyclic:
        assert is_right_monogamous(c) and not is_acyclic(c.carrier)
    spoilt = [_altered(rng, c) for c in one_target + shared]
    spoilt = [c for c in spoilt if not naive_scans.is_right_monogamous(c)]
    assert len(spoilt) > 100
    for corpus in (cyclic, spoilt):
        assert assert_key_matches_the_walk_reference(corpus) == len(corpus)


def test_key_matches_the_walk_reference_on_explicit_cases():
    explicit = [c for case in FOREST_CASES.values() for c in case]
    explicit += [c for case in SHARED_CASES.values() for c in case]
    explicit += [c for c, _ in TIE_CASES]
    fallback = [c for case in FALLBACK_CASES.values() for c in case]
    real_ties = sum(not structural for _, structural in TIE_CASES)
    assert assert_key_matches_the_walk_reference(explicit) == real_ties
    assert assert_key_matches_the_walk_reference(fallback) == len(fallback)


# --------------------------------------------------- deep and wide structures


def best_of(runs: int, fn) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_keys_of_3000_factor_chains_compare_and_hash():
    chain = ev_fghs(" ; ".join(["f"] * 3000))
    again = ev_fghs(" ; ".join(["(f ; f)"] * 1500))
    other = ev_fghs(" ; ".join(["f"] * 2999 + ["g"]))
    a, b, c = map(cospan_key, (chain, again, other))
    assert a == b and hash(a) == hash(b)
    assert a != c and b != c
    assert len({a, b, c}) == 2
    assert best_of(3, lambda: cospan_key(chain)) < 0.1


def test_key_of_a_1000_edge_split_and_merge_chain_within_budget():
    chain = eval_term(parse_term(" ; ".join(["c ; b"] * 500), SIG3), SIG3)
    assert len(chain.carrier.edges) == 1000
    assert is_structurally_keyed(chain)
    assert best_of(3, lambda: cospan_key(chain)) < 0.1


def merged_branches(n: int) -> str:
    """n `s ; f` branches merged into one node by a left-leaning mu tree."""
    term = "(s ; f)"
    for _ in range(n - 1):
        term = f"(({term}) + (s ; f)) ; mu"
    return term


@pytest.mark.parametrize("n, limit", [(7, 0.005), (16, 0.05)])
def test_key_of_merged_branches_is_fast(n, limit):
    c = ev_fghs(merged_branches(n))
    assert is_forest_keyed(c)
    assert best_of(3, lambda: cospan_key(c)) < limit
