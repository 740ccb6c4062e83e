"""Edge scans that the incidence index replaced, kept as the reference the
index is tested against. Every call scans all edges, even when it asks
about one node, and bridging_edges searches the whole graph. The level
factorisation and the readback that the one-pass versions replaced
follow."""

from __future__ import annotations

from dataclasses import field, make_dataclass

from cmonrw.cospan import (
    Connection,
    Cospan,
    FinFunction,
    cospan_to_function,
    edge_conn,
    iface_conn,
    is_monogamous,
)
from cmonrw.decompose import (
    LevelFactor,
    LevelFactorisation,
    fn_to_cmon_term,
    level0_decompose,
    node_orders,
    perm_term,
)
from cmonrw.errors import NotRightMonogamous, UnknownGenerator, UnknownNode
from cmonrw.hypergraph import Edge, Hypergraph, terminal_nodes
from cmonrw.sigterm import Gen, Id, Par, Seq, Signature, Sym, Term


def in_degree(g: Hypergraph, v: int) -> int:
    """Count of (edge, position) pairs with v as that target position."""
    if v not in g.nodes:
        raise UnknownNode(f"node {v} not in graph")
    return sum(1 for e in g.edges.values() for t in e.targets if t == v)


def out_degree(g: Hypergraph, v: int) -> int:
    """Count of (edge, position) pairs with v as that source position."""
    if v not in g.nodes:
        raise UnknownNode(f"node {v} not in graph")
    return sum(1 for e in g.edges.values() for s in e.sources if s == v)


def is_right_monogamous(c: Cospan) -> bool:
    """Right leg mono, image exactly the terminal nodes, out-degree <= 1:
    two walks over the edges, one in terminal_nodes and one counting
    out-degrees."""
    if len(set(c.right)) != len(c.right):
        return False
    if frozenset(c.right) != terminal_nodes(c.carrier):
        return False
    seen: set[int] = set()
    for e in c.carrier.edges.values():
        for v in e.sources:
            if v in seen:
                return False
            seen.add(v)
    return True


def in_connections(c: Cospan, v: int) -> tuple[Connection, ...]:
    """Input-boundary positions plus edge target slots pointing at v."""
    if v not in c.carrier.nodes:
        raise UnknownNode(f"node {v} not in carrier")
    conns = [iface_conn(p) for p, u in enumerate(c.left) if u == v]
    for eid in sorted(c.carrier.edges):
        for i, t in enumerate(c.carrier.edges[eid].targets):
            if t == v:
                conns.append(edge_conn(eid, i))
    return tuple(sorted(conns))


def reachable(g: Hypergraph, seeds, *, forward: bool = True) -> set[int]:
    """Nodes reachable from seeds (seeds included), over a successor or
    predecessor map rebuilt from every edge on each call."""
    step: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges.values():
        ends, far = e.sources, e.targets
        if not forward:
            ends, far = far, ends
        for v in ends:
            step[v].update(far)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in step[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def bridging_edges(g: Hypergraph, nodes, edges) -> list[int]:
    """Edges outside ``edges`` on a directed path between two of ``nodes``,
    in id order, from reachability over the whole graph: the convexity
    check that hypergraph.is_convex's topological window replaced."""
    fwd = reachable(g, nodes, forward=True)
    bwd = reachable(g, nodes, forward=False)
    return [
        eid
        for eid in sorted(g.edges.keys() - set(edges))
        if fwd.intersection(g.edges[eid].sources)
        and bwd.intersection(g.edges[eid].targets)
    ]


def is_acyclic(g: Hypergraph) -> bool:
    """Depth-first search for a node reached again while still open."""
    succ: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges.values():
        for s in e.sources:
            succ[s].update(e.targets)
    state = dict.fromkeys(g.nodes, 0)  # 0 new, 1 open, 2 done
    for root in sorted(g.nodes):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(sorted(succ[root])))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                state[v] = 2
                stack.pop()
                continue
            if state[w] == 1:
                return False
            if state[w] == 0:
                state[w] = 1
                stack.append((w, iter(sorted(succ[w]))))
    return True


# References for reattach and the one-pass level stratification.

# Connection as the frozen dataclass it was before it became a NamedTuple.
# The corpus draws iterate frozensets of connections, so the NamedTuple
# must keep this hash, order and repr.
DataclassConnection = make_dataclass(
    "Connection",
    [("kind", str), ("index", int), ("slot", int, field(default=0))],
    frozen=True,
    order=True,
)


def rebuild(
    edges: dict[int, Edge], left: tuple[int, ...], to: dict
) -> tuple[dict[int, Edge], tuple[int, ...]]:
    """Every edge target slot and left position looked up in to, the way
    each copy-and-reconnect rebuilt them before reattach."""
    new_edges = {
        eid: Edge(
            e.label,
            e.sources,
            tuple(
                to.get(edge_conn(eid, i), t) for i, t in enumerate(e.targets)
            ),
        )
        for eid, e in edges.items()
    }
    new_left = tuple(to.get(iface_conn(p), u) for p, u in enumerate(left))
    return new_edges, new_left


def factorise_into_levels(g: Cospan) -> LevelFactorisation:
    """One level0_decompose per level, each validating its remainder and
    computing its orders afresh."""
    orders = node_orders(g)
    n = len(g.right)
    sorted_pos = sorted(range(n), key=lambda p: (orders[g.right[p]], p))
    perm = FinFunction(n, n, tuple(sorted_pos))
    cur = Cospan(g.carrier, g.left, tuple(g.right[p] for p in sorted_pos))
    max_order = max(orders.values(), default=0)
    factors: list[LevelFactor] = []
    for _ in range(max_order + 2):
        split = level0_decompose(cur)
        factors.append(
            LevelFactor(split.slice, split.passthrough, split.merges)
        )
        cur = split.remainder
        if not cur.carrier.nodes:
            return LevelFactorisation(tuple(factors), perm)
    raise RuntimeError("level factorisation did not terminate")


# The slice readback that re-sorted the edges left for every edge it
# placed, with a fresh swap layer per swap.


def _par2(a: Term, b: Term) -> Term:
    if a == Id(0):
        return b
    if b == Id(0):
        return a
    return Par(a, b)


def _seq2(a: Term, b: Term) -> Term:
    if isinstance(a, Id):
        return b
    if isinstance(b, Id):
        return a
    return Seq(a, b)


def _swap_layer(width: int, pos: int) -> Term:
    return _par2(_par2(Id(pos), Sym(1, 1)), Id(width - pos - 2))


def monogamous_readback(m: Cospan, sig: Signature) -> Term:
    """Each edge placed is the least id left whose sources are all on the
    wires, found by scanning the sorted remaining ids."""
    if not is_monogamous(m):
        raise NotRightMonogamous("level slice is not monogamous")
    wires = list(m.left)
    remaining = set(m.carrier.edges)
    layers: list[Term] = []

    def bubble_to(node: int, target_pos: int) -> None:
        idx = wires.index(node)
        while idx > target_pos:
            layers.append(_swap_layer(len(wires), idx - 1))
            wires[idx - 1], wires[idx] = wires[idx], wires[idx - 1]
            idx -= 1

    while remaining:
        eid = next(
            eid
            for eid in sorted(remaining)
            if all(s in wires for s in m.carrier.edges[eid].sources)
        )
        e = m.carrier.edges[eid]
        if e.label not in sig:
            raise UnknownGenerator(f"generator '{e.label}' not declared")
        for i, s in enumerate(e.sources):
            bubble_to(s, i)
        a, b = len(e.sources), len(e.targets)
        layers.append(_par2(Gen(e.label, a, b), Id(len(wires) - a)))
        wires[:a] = []
        wires[:0] = list(e.targets)
        remaining.discard(eid)
    for i, v in enumerate(m.right):
        bubble_to(v, i)
    term: Term = Id(len(m.left))
    for layer in layers:
        term = _seq2(term, layer)
    return term


def readback_term(g: Cospan, sig: Signature) -> Term:
    """decompose.readback_term over a fresh per-level factorisation, with
    the re-sorting slice readback."""
    lf = factorise_into_levels(g)
    term: Term = Id(0)
    for f in reversed(lf.factors):
        d_term = fn_to_cmon_term(cospan_to_function(f.merges))
        inner = _seq2(d_term, term)
        term = _seq2(
            monogamous_readback(f.slice, sig),
            _par2(Id(f.passthrough), inner),
        )
    return _seq2(term, perm_term(lf.perm))
