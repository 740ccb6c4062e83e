"""Edge scans that the incidence index replaced, kept as the reference the
index is tested against. Every call scans all edges, even when it asks
about one node."""

from __future__ import annotations

from cmonrw.cospan import Cospan
from cmonrw.decompose import Connection, edge_conn, iface_conn
from cmonrw.errors import UnknownNode
from cmonrw.hypergraph import Hypergraph


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
