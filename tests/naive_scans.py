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
from cmonrw.hypergraph import Edge, Hypergraph
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
    two walks over the edges, one collecting the consumed nodes and one
    counting out-degrees."""
    if len(set(c.right)) != len(c.right):
        return False
    consumed = {v for e in c.carrier.edges.values() for v in e.sources}
    if frozenset(c.right) != c.carrier.nodes - consumed:
        return False
    seen: set[int] = set()
    for e in c.carrier.edges.values():
        for v in e.sources:
            if v in seen:
                return False
            seen.add(v)
    return True


def structural_key(c: Cospan) -> tuple | None:
    """cospan._structural_key as it was before it read the incidence
    index and ranks: its own producer map, a backward walk from the roots
    whose length is the cycle test, and a height pass over that walk."""
    g = c.carrier
    if not is_right_monogamous(c):
        return None
    edges = g.edges
    # each node's producer edges, an edge once however many of its target
    # slots hold the node
    producers: dict[int, list[int]] = {v: [] for v in g.nodes}
    free: list[int] = []
    # per edge with several targets (and only those), its target nodes
    # not yet reached
    waiting: dict[int, int] = {}
    for eid, e in edges.items():
        if len(e.targets) == 1:
            producers[e.targets[0]].append(eid)
        elif e.targets:
            ts = set(e.targets)
            waiting[eid] = len(ts)
            for t in ts:
                producers[t].append(eid)
        else:
            free.append(eid)
    shared = bool(waiting)
    lefts: dict[int, tuple[int, ...]] = {}
    for i, v in enumerate(c.left):
        lefts[v] = lefts.get(v, ()) + (i,)
    # consumers before producers: an edge once all its targets are, and a
    # node once its one consumer is; no node on a cycle comes
    order: list[int] = []
    stack = [v for eid in free for v in edges[eid].sources]
    stack += c.right
    while stack:
        v = stack.pop()
        order.append(v)
        for eid in producers[v]:
            if eid in waiting:
                waiting[eid] -= 1
                if waiting[eid]:
                    continue
            stack.extend(edges[eid].sources)
    if len(order) != len(g.nodes):
        return None
    height: dict[int, int] = {}
    levels: list[list[int]] = []
    for v in reversed(order):
        h = 0
        for eid in producers[v]:
            for u in edges[eid].sources:
                if height[u] >= h:
                    h = height[u] + 1
        height[v] = h
        if h == len(levels):
            levels.append([])
        levels[h].append(v)
    shape: dict[int, int] = {}
    at = shape.__getitem__

    def cones(eids: list[int], v: int | None = None) -> tuple:
        """The cones of edges eids at node v (None for target-less ones),
        one per target slot holding v, sorted."""
        found = []
        for eid in eids:
            e = edges[eid]
            k = (e.label, tuple(map(at, e.sources)))
            if eid in waiting:
                found += [k + (i,) for i, t in enumerate(e.targets) if t == v]
            else:
                found.append(k)
        if len(found) > 1:
            found.sort()
        return tuple(found)

    def in_cone_order(eids: list[int], v: int | None = None) -> list[int]:
        """eids by their least cone at v."""
        if len(eids) < 2:
            return eids
        keyed = sorted((cones([eid], v), eid) for eid in eids)
        return [eid for _, eid in keyed]

    table: list[tuple] = []
    for level in levels:
        sigs = [(lefts.get(v, ()), cones(producers[v], v)) for v in level]
        if len(level) == 1:
            shape[level[0]] = len(table)
            table += sigs
            continue
        distinct = sorted(set(sigs))
        rank = {sig: len(table) + i for i, sig in enumerate(distinct)}
        table += distinct
        for v, sig in zip(level, sigs):
            shape[v] = rank[sig]
    roots = cones(free)
    if not shared:
        return ("forest", tuple(table), tuple(map(at, c.right)), roots)
    # the shapes whose cone holds an edge with several targets: some
    # producer cone has a slot, or a source of such a shape
    deep: set[int] = set()
    for s, (_, ks) in enumerate(table):
        if len(set(ks)) < len(ks) and _tied(ks, deep):
            return None
        for k in ks:
            if len(k) > 2 or not deep.isdisjoint(k[1]):
                deep.add(s)
                break
    if len(set(roots)) < len(roots) and _tied(roots, deep):
        return None
    # nodes in the order they are numbered: the right positions, the
    # sources of the target-less edges in cone order, then, for each node
    # in turn, the sources of each producer numbered there, in cone order
    nodes = list(c.right)
    edge_no: dict[int, int] = {}
    for eid in in_cone_order(free):
        edge_no[eid] = len(edge_no)
        nodes += edges[eid].sources
    for v in nodes:
        for eid in in_cone_order(producers[v], v):
            if eid not in edge_no:
                edge_no[eid] = len(edge_no)
                nodes += edges[eid].sources
    node_no = {v: i for i, v in enumerate(nodes)}
    num = node_no.__getitem__
    return (
        "shared",
        len(nodes),
        tuple(map(num, c.left)),
        tuple(map(num, c.right)),
        tuple(
            (e.label, tuple(map(num, e.sources)), tuple(map(num, e.targets)))
            for e in map(edges.__getitem__, edge_no)
        ),
    )


def _tied(ks, deep: set[int]) -> bool:
    """Two equal cones in sorted ks that hold an edge with several
    targets: a slot, or a source shape in deep."""
    return any(
        a == b and (len(a) > 2 or not deep.isdisjoint(a[1]))
        for a, b in zip(ks, ks[1:])
    )


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
