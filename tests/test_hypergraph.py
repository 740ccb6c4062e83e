"""Hypergraphs: degrees, acyclicity, homomorphisms, convexity, canonisation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_rm_cospan
from cmonrw import hypergraph
from cmonrw.errors import NotASubhypergraph
from cmonrw.hypergraph import (
    Edge,
    Homomorphism,
    Hypergraph,
    canonical_form,
    find_homomorphisms,
    graph_dot_lines,
    incidence,
    is_acyclic,
    is_convex,
    reachable,
    terminal_nodes,
)
import naive_match
from naive_match import homs_view
import naive_scans
from naive_scans import in_degree, out_degree


def chain(*labels: str) -> Hypergraph:
    """n edges in a line: 0 -l0-> 1 -l1-> 2 ..."""
    edges = {
        i: Edge(lab, (i,), (i + 1,)) for i, lab in enumerate(labels)
    }
    return Hypergraph(frozenset(range(len(labels) + 1)), edges)


def test_degrees_and_terminals():
    g = Hypergraph(
        frozenset([0, 1, 2]),
        {0: Edge("f", (0,), (2, 2)), 1: Edge("g", (1,), (2,))},
    )
    assert out_degree(g, 0) == 1 and in_degree(g, 0) == 0
    assert in_degree(g, 2) == 3
    assert terminal_nodes(g) == frozenset([2])


def test_self_loop_edge_is_cyclic():
    g = Hypergraph(frozenset([0]), {0: Edge("f", (0,), (0,))})
    assert not is_acyclic(g)
    assert g.ranks is None


def test_two_edge_cycle_detected():
    g = Hypergraph(
        frozenset([0, 1]),
        {0: Edge("f", (0,), (1,)), 1: Edge("f", (1,), (0,))},
    )
    assert not is_acyclic(g)


def test_chain_is_acyclic_with_topological_order():
    g = chain("f", "g", "f")
    assert is_acyclic(g)
    assert g.ranks == {0: 0, 1: 1, 2: 2}


def random_graph(rng: random.Random) -> Hypergraph:
    n = rng.randint(1, 8)
    edges = {}
    for eid in range(rng.randint(0, 10)):
        m, k = rng.randint(0, 2), rng.randint(0, 2)
        edges[eid] = Edge(
            rng.choice("pq"),
            tuple(rng.randrange(n) for _ in range(m)),
            tuple(rng.randrange(n) for _ in range(k)),
        )
    return Hypergraph(frozenset(range(n)), edges)


@settings(max_examples=500)
@given(st.integers(0, 2**32 - 1))
def test_acyclic_iff_edge_topological_order_exists(seed):
    g = random_graph(random.Random(seed))
    assert naive_scans.is_acyclic(g) == (g.ranks is not None)
    if g.ranks is not None:
        assert sorted(g.ranks.values()) == list(range(len(g.edges)))
        for eid, e in g.edges.items():
            for t in e.targets:
                for f, _ in g.index.outs[t]:
                    assert g.ranks[eid] < g.ranks[f]


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_incidence_index_agrees_with_per_node_scans(seed):
    rng = random.Random(seed)
    for g in (random_graph(rng), random_rm_cospan(rng).carrier):
        ins, outs = incidence(g)
        assert ins.keys() == outs.keys() == g.nodes
        for v in g.nodes:
            assert len(ins[v]) == in_degree(g, v)
            assert len(outs[v]) == out_degree(g, v)
            assert ins[v] == sorted(ins[v]) and outs[v] == sorted(outs[v])
            assert all(g.edges[eid].targets[i] == v for eid, i in ins[v])
            assert all(g.edges[eid].sources[i] == v for eid, i in outs[v])
        assert terminal_nodes(g) == {
            v for v in g.nodes if out_degree(g, v) == 0
        }
        assert is_acyclic(g) == naive_scans.is_acyclic(g)
        seeds = {v for v in g.nodes if rng.random() < 0.3}
        for forward in (True, False):
            assert reachable(g, seeds, forward=forward) == (
                naive_scans.reachable(g, seeds, forward=forward)
            )


def test_homomorphism_validates_structure():
    g = chain("f")
    with pytest.raises(NotASubhypergraph):
        Homomorphism(g, g, {0: 0, 1: 0}, {0: 0})


def test_empty_pattern_has_exactly_one_homomorphism():
    empty = Hypergraph(frozenset(), {})
    host = chain("f", "g")
    homs = find_homomorphisms(empty, host)
    assert len(homs) == 1
    assert homs[0].node_map == {} and homs[0].edge_map == {}


def test_single_edge_pattern_counts_occurrences():
    pat = chain("f")
    host = chain("f", "g", "f")
    homs = find_homomorphisms(pat, host)
    assert len(homs) == 2
    assert sorted(h.edge_map[0] for h in homs) == [0, 2]


def test_edge_map_is_always_injective():
    # two f edges in the pattern cannot share the host's single f edge
    pat = Hypergraph(
        frozenset([0, 1, 2, 3]),
        {0: Edge("f", (0,), (1,)), 1: Edge("f", (2,), (3,))},
    )
    host = chain("f")
    assert find_homomorphisms(pat, host) == []
    assert (
        find_homomorphisms(pat, host, merge_allowed=frozenset([0, 1, 2, 3]))
        == []
    )


def test_node_injectivity_unless_merge_allowed():
    # disjoint pattern edges, host edges share both endpoints
    pat = Hypergraph(
        frozenset([0, 1, 2, 3]),
        {0: Edge("f", (0,), (1,)), 1: Edge("f", (2,), (3,))},
    )
    host = Hypergraph(
        frozenset([0, 1]),
        {0: Edge("f", (0,), (1,)), 1: Edge("f", (0,), (1,))},
    )
    assert find_homomorphisms(pat, host) == []
    # merging only the outputs leaves the inputs colliding
    assert (
        find_homomorphisms(pat, host, merge_allowed=frozenset([1, 3])) == []
    )
    both = find_homomorphisms(
        pat, host, merge_allowed=frozenset([0, 1, 2, 3])
    )
    assert len(both) == 2
    for h in both:
        assert h.node_map == {0: 0, 1: 1, 2: 0, 3: 1}


def random_pattern(rng: random.Random, host: Hypergraph) -> Hypergraph:
    """A small random graph, or up to three host edges with their
    endpoints (and maybe one more host node), renumbered."""
    if rng.random() < 0.4 or not host.edges:
        n = rng.randint(0, 4)
        edges = {
            eid: Edge(
                rng.choice("pq"),
                tuple(rng.randrange(n) for _ in range(rng.randint(0, 2))),
                tuple(rng.randrange(n) for _ in range(rng.randint(0, 2))),
            )
            for eid in range(rng.randint(0, 4) if n else 0)
        }
        return Hypergraph(frozenset(range(n)), edges)
    eids = rng.sample(sorted(host.edges), rng.randint(1, min(3, len(host.edges))))
    nodes = {v for eid in eids for v in host.edges[eid].sources}
    nodes |= {v for eid in eids for v in host.edges[eid].targets}
    if rng.random() < 0.3:
        nodes.add(rng.choice(sorted(host.nodes)))
    names = sorted(nodes)
    perm = list(range(len(names)))
    rng.shuffle(perm)
    ren = dict(zip(names, perm))
    ids = list(range(len(eids)))
    rng.shuffle(ids)
    return Hypergraph(
        frozenset(perm),
        {
            pid: Edge(
                host.edges[eid].label,
                tuple(ren[v] for v in host.edges[eid].sources),
                tuple(ren[v] for v in host.edges[eid].targets),
            )
            for pid, eid in zip(ids, eids)
        },
    )


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_homomorphism_search_matches_recursive_reference(seed):
    rng = random.Random(seed)
    for host in (random_graph(rng), random_rm_cospan(rng).carrier):
        pattern = random_pattern(rng, host)
        some = frozenset(v for v in pattern.nodes if rng.random() < 0.5)
        for allowed in (frozenset(), some, pattern.nodes):
            assert homs_view(find_homomorphisms(pattern, host, allowed)) == (
                homs_view(naive_match.find_homomorphisms(pattern, host, allowed))
            )


def test_homomorphism_search_on_long_chains():
    host = chain(*["f"] * 1500)
    homs = find_homomorphisms(chain("f", "f", "f"), host)
    assert [h.edge_map for h in homs] == [
        {0: i, 1: i + 1, 2: i + 2} for i in range(1498)
    ]
    pattern, host = chain(*["f"] * 40), chain(*["f"] * 60)
    assert homs_view(find_homomorphisms(pattern, host)) == homs_view(
        naive_match.find_homomorphisms(pattern, host)
    )


def test_a_chain_matched_into_itself_tries_one_edge_per_level(monkeypatch):
    # a host edge whose paths in or out are shorter than the pattern
    # edge's is never tried: a 300-edge chain into itself tries each host
    # edge once (two shape reads per try), where trying every start would
    # walk the chain from each of them
    tried = []
    shape = hypergraph._shape

    def counting(e):
        tried.append(e)
        return shape(e)

    monkeypatch.setattr(hypergraph, "_shape", counting)
    g = chain(*["f"] * 300)
    (hom,) = find_homomorphisms(g, g)
    assert hom.edge_map == {i: i for i in range(300)}
    assert len(tried) == 2 * 300
    # a cyclic host gets no pruning, and the search stays exact
    loop = Hypergraph(
        frozenset([0, 1]),
        {0: Edge("f", (0,), (1,)), 1: Edge("f", (1,), (0,))},
    )
    assert homs_view(find_homomorphisms(chain("f", "f"), loop)) == homs_view(
        naive_match.find_homomorphisms(chain("f", "f"), loop)
    )


def test_convexity_rejects_bridged_image():
    host = chain("f", "g", "f")
    # the two f edges with their endpoints, skipping the g bridge
    assert not is_convex(host, {0, 1, 2, 3}, {0, 2})
    assert is_convex(host, {0, 1, 2}, {0, 1})


@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1))
def test_convexity_window_agrees_with_whole_graph_reference(seed):
    # random_graph has cycles, where the window holds every edge
    rng = random.Random(seed)
    for g in (random_graph(rng), random_rm_cospan(rng).carrier):
        for _ in range(4):
            edges = {e for e in g.edges if rng.random() < 0.5}
            if rng.random() < 0.5:
                nodes = {v for v in g.nodes if rng.random() < 0.4}
            else:
                nodes = {
                    v
                    for e in edges
                    for v in g.edges[e].sources + g.edges[e].targets
                }
            assert is_convex(g, nodes, edges) == (
                not naive_scans.bridging_edges(g, nodes, edges)
            )


def test_convexity_window_on_chains_and_their_images():
    host = chain(*["f", "g"] * 30)
    verdicts = []
    for pattern in (chain("f"), chain("f", "g"), chain("g", "f", "g")):
        for hom in find_homomorphisms(pattern, host):
            nodes = set(hom.node_map.values())
            edges = set(hom.edge_map.values())
            assert is_convex(host, nodes, edges)
            # dropping an inner edge leaves a bridge
            inner = sorted(edges)[1:-1]
            for e in inner:
                verdicts.append(is_convex(host, nodes, edges - {e}))
                assert verdicts[-1] == (
                    not naive_scans.bridging_edges(host, nodes, edges - {e})
                )
    assert verdicts and not any(verdicts)


def test_canonical_form_invariant_under_relabeling():
    g = chain("f", "g")
    relabeled = Hypergraph(
        frozenset([5, 7, 9]),
        {3: Edge("f", (9,), (5,)), 8: Edge("g", (5,), (7,))},
    )
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_form_distinguishes_labels():
    assert canonical_form(chain("f", "g")) != canonical_form(chain("g", "f"))


def test_canonical_form_pins_fix_nodes():
    g = Hypergraph(frozenset([0, 1]), {})
    # pinning picks out which of two symmetric nodes comes first
    assert canonical_form(g, pins=(0, 1)) == canonical_form(g, pins=(0, 1))
    h = Hypergraph(frozenset([0, 1]), {0: Edge("f", (0,), (1,))})
    assert canonical_form(h, pins=(0,)) != canonical_form(h, pins=(1,))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_form_matches_on_shuffled_copies(seed):
    rng = random.Random(seed)
    g = random_rm_cospan(rng).carrier
    names = sorted(g.nodes)
    perm = names[:]
    rng.shuffle(perm)
    ren = dict(zip(names, perm))
    h = Hypergraph(
        frozenset(ren[v] for v in g.nodes),
        {
            eid: Edge(
                e.label,
                tuple(ren[v] for v in e.sources),
                tuple(ren[v] for v in e.targets),
            )
            for eid, e in g.edges.items()
        },
    )
    assert canonical_form(g) == canonical_form(h)


def test_dot_lines_are_deterministic():
    g = chain("f")
    assert graph_dot_lines(g) == graph_dot_lines(g)
    assert any("shape=box" in ln for ln in graph_dot_lines(g))
    assert any("shape=point" in ln for ln in graph_dot_lines(g))
