"""Directed hypergraphs with labelled, ordered-endpoint edges.

Provides degree and path analysis, acyclicity, convexity of sub-hypergraphs,
homomorphism search with controlled node merging, and a canonical form that
decides isomorphism with pinned interface nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASubhypergraph, UnknownNode


@dataclass(frozen=True)
class Edge:
    """One labelled hyperedge with ordered source and target lists."""

    label: str
    sources: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Nodes are opaque ints; ``edges`` maps edge id to Edge.

    Immutable by convention.  Construction checks that all endpoints exist.
    Equality is identity; semantic equality goes through canonical_form.
    """

    nodes: frozenset[int]
    edges: dict[int, Edge]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        edges = {
            int(k): v if isinstance(v, Edge) else Edge(*v)
            for k, v in dict(self.edges).items()
        }
        object.__setattr__(self, "edges", edges)
        for eid, e in edges.items():
            for v in e.sources + e.targets:
                if v not in self.nodes:
                    raise UnknownNode(f"edge {eid} touches missing node {v}")

    def restrict(self, sub: "SubHypergraph") -> "Hypergraph":
        """The sub-hypergraph as a standalone graph (ids preserved)."""
        sub.validate_in(self)
        return Hypergraph(sub.nodes, {e: self.edges[e] for e in sub.edges})


@dataclass(frozen=True)
class SubHypergraph:
    """A sub-hypergraph of an ambient graph, given by id subsets."""

    nodes: frozenset[int]
    edges: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))

    def validate_in(self, g: Hypergraph) -> None:
        if not self.nodes <= g.nodes:
            raise NotASubhypergraph(
                f"nodes {sorted(self.nodes - g.nodes)} not in ambient graph"
            )
        for eid in self.edges:
            if eid not in g.edges:
                raise NotASubhypergraph(f"edge {eid} not in ambient graph")
            e = g.edges[eid]
            loose = set(e.sources + e.targets) - self.nodes
            if loose:
                raise NotASubhypergraph(
                    f"edge {eid} endpoints {sorted(loose)} missing from "
                    "sub-hypergraph"
                )


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """A structure map between hypergraphs; not necessarily injective."""

    source: Hypergraph
    target: Hypergraph
    node_map: dict[int, int]
    edge_map: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "node_map", dict(self.node_map))
        object.__setattr__(self, "edge_map", dict(self.edge_map))
        for v in self.source.nodes:
            if v not in self.node_map:
                raise NotASubhypergraph(f"node {v} has no image")
            if self.node_map[v] not in self.target.nodes:
                raise NotASubhypergraph(f"image of node {v} does not exist")
        for eid, se in self.source.edges.items():
            if eid not in self.edge_map:
                raise NotASubhypergraph(f"edge {eid} has no image")
            te = self.target.edges.get(self.edge_map[eid])
            if te is None:
                raise NotASubhypergraph(f"image of edge {eid} does not exist")
            ok = (
                te.label == se.label
                and tuple(self.node_map[v] for v in se.sources) == te.sources
                and tuple(self.node_map[v] for v in se.targets) == te.targets
            )
            if not ok:
                raise NotASubhypergraph(
                    f"edge {eid} does not commute with its image"
                )


class UnionFind:
    """Union-find over hashable keys with path halving."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            gp = self.parent.setdefault(p, p)
            self.parent[x] = gp
            x, p = p, self.parent.setdefault(gp, gp)
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


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


def terminal_nodes(g: Hypergraph) -> frozenset[int]:
    """Nodes with out-degree zero."""
    used: set[int] = set()
    for e in g.edges.values():
        used.update(e.sources)
    return frozenset(g.nodes - used)


def _succ(g: Hypergraph) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges.values():
        for s in e.sources:
            succ[s].update(e.targets)
    return succ


def _pred(g: Hypergraph) -> dict[int, set[int]]:
    pred: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges.values():
        for t in e.targets:
            pred[t].update(e.sources)
    return pred


def reachable(g: Hypergraph, seeds, *, forward: bool = True) -> set[int]:
    """Nodes reachable from seeds (seeds included)."""
    step = _succ(g) if forward else _pred(g)
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
    """True iff no directed path repeats a node."""
    succ = {v: sorted(s) for v, s in _succ(g).items()}
    state = dict.fromkeys(g.nodes, 0)  # 0 new, 1 open, 2 done
    for root in sorted(g.nodes):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
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
                stack.append((w, iter(succ[w])))
    return True


def edge_topological_order(g: Hypergraph) -> tuple[int, ...] | None:
    """Edges ordered so producers precede consumers; None when impossible."""
    after: dict[int, set[int]] = {eid: set() for eid in g.edges}
    by_source: dict[int, set[int]] = {}
    for eid, e in g.edges.items():
        for s in e.sources:
            by_source.setdefault(s, set()).add(eid)
    for eid, e in g.edges.items():
        for t in e.targets:
            for consumer in by_source.get(t, ()):
                after[eid].add(consumer)
    indeg = dict.fromkeys(g.edges, 0)
    for eid, outs in after.items():
        for f in outs:
            indeg[f] += 1
    ready = sorted(e for e, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        e = ready.pop(0)
        order.append(e)
        for f in sorted(after[e]):
            indeg[f] -= 1
            if indeg[f] == 0:
                ready.append(f)
        ready.sort()
    return tuple(order) if len(order) == len(g.edges) else None


def _is_convex_image(g: Hypergraph, img_nodes, img_edges) -> bool:
    """No path between image nodes passes through a non-image edge."""
    fwd = reachable(g, img_nodes, forward=True)
    bwd = reachable(g, img_nodes, forward=False)
    for eid, e in g.edges.items():
        if eid in img_edges:
            continue
        if (set(e.sources) & fwd) and (set(e.targets) & bwd):
            return False
    return True


def find_homomorphisms(
    pattern: Hypergraph, host: Hypergraph, merge_allowed=frozenset()
) -> list[Homomorphism]:
    """All label- and position-preserving maps, injective on edges.

    Node images must be injective except that two pattern nodes may share an
    image when BOTH lie in merge_allowed.
    """
    merge_allowed = frozenset(merge_allowed)
    pedges = sorted(pattern.edges)
    by_label: dict[str, list[int]] = {}
    for hid in sorted(host.edges):
        by_label.setdefault(host.edges[hid].label, []).append(hid)
    host_nodes = sorted(host.nodes)
    results: list[Homomorphism] = []

    def bind(nmap: dict, pv: int, hv: int) -> dict | None:
        if pv in nmap:
            return nmap if nmap[pv] == hv else None
        if pv not in merge_allowed:
            if hv in nmap.values():
                return None
        else:
            for q, w in nmap.items():
                if w == hv and q not in merge_allowed:
                    return None
        out = dict(nmap)
        out[pv] = hv
        return out

    def assign_rest(nmap: dict, emap: dict, rest: list[int], j: int) -> None:
        if j == len(rest):
            results.append(Homomorphism(pattern, host, nmap, emap))
            return
        for hv in host_nodes:
            nmap2 = bind(nmap, rest[j], hv)
            if nmap2 is not None:
                assign_rest(nmap2, emap, rest, j + 1)

    def rec(i: int, nmap: dict, emap: dict, used: frozenset) -> None:
        if i == len(pedges):
            rest = [v for v in sorted(pattern.nodes) if v not in nmap]
            assign_rest(nmap, emap, rest, 0)
            return
        pe = pattern.edges[pedges[i]]
        for hid in by_label.get(pe.label, ()):
            if hid in used:
                continue
            he = host.edges[hid]
            if len(he.sources) != len(pe.sources):
                continue
            if len(he.targets) != len(pe.targets):
                continue
            nmap2: dict | None = nmap
            for pv, hv in zip(pe.sources + pe.targets, he.sources + he.targets):
                nmap2 = bind(nmap2, pv, hv)
                if nmap2 is None:
                    break
            if nmap2 is not None:
                rec(i + 1, nmap2, {**emap, pedges[i]: hid}, used | {hid})

    rec(0, {}, {}, frozenset())
    return results


def _intern(values: dict[int, tuple]) -> dict[int, int]:
    ranks = {val: i for i, val in enumerate(sorted(set(values.values())))}
    return {v: ranks[val] for v, val in values.items()}


def _refine(g: Hypergraph, colors: dict[int, int]) -> dict[int, int]:
    while True:
        incidence: dict[int, list] = {v: [] for v in g.nodes}
        for eid, e in g.edges.items():
            scols = tuple(colors[u] for u in e.sources)
            tcols = tuple(colors[u] for u in e.targets)
            for i, u in enumerate(e.sources):
                incidence[u].append((0, i, e.label, scols, tcols))
            for i, u in enumerate(e.targets):
                incidence[u].append((1, i, e.label, scols, tcols))
        sig = {
            v: (colors[v], tuple(sorted(incidence[v]))) for v in g.nodes
        }
        new = _intern(sig)
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _certificate(g: Hypergraph, colors: dict[int, int], pins) -> tuple:
    edges = tuple(
        sorted(
            (
                e.label,
                tuple(colors[u] for u in e.sources),
                tuple(colors[u] for u in e.targets),
            )
            for e in g.edges.values()
        )
    )
    return (len(g.nodes), edges, tuple(colors[v] for v in pins))


def _canon(g: Hypergraph, colors: dict[int, int], pins) -> tuple:
    colors = _refine(g, colors)
    classes: dict[int, list[int]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    split = None
    for c in sorted(classes):
        if len(classes[c]) > 1:
            split = c
            break
    if split is None:
        return _certificate(g, colors, pins)
    best = None
    for v in sorted(classes[split]):
        branch = {u: (0, colors[u]) for u in g.nodes}
        branch[v] = (1, colors[v])
        cert = _canon(g, _intern(branch), pins)
        if best is None or cert < best:
            best = cert
    return best


def canonical_form(g: Hypergraph, pins=()) -> tuple:
    """A key equal for two graphs iff they are isomorphic by a
    label-preserving map fixing the pinned nodes pointwise in order."""
    pins = tuple(pins)
    for v in pins:
        if v not in g.nodes:
            raise UnknownNode(f"pinned node {v} not in graph")
    pinpos: dict[int, list[int]] = {v: [] for v in g.nodes}
    for i, v in enumerate(pins):
        pinpos[v].append(i)
    init = _intern({v: tuple(pinpos[v]) for v in g.nodes})
    return _canon(g, init, pins)


def graph_dot_lines(g: Hypergraph, indent: str = "  ") -> list[str]:
    """DOT body: nodes as points, hyperedges as labelled boxes whose
    tentacles carry the endpoint position on the arrowhead."""
    lines = []
    for v in sorted(g.nodes):
        lines.append(f'{indent}n{v} [shape=point, xlabel="{v}"];')
    for eid, e in sorted(g.edges.items()):
        lines.append(f'{indent}e{eid} [shape=box, label="{e.label}"];')
        for i, v in enumerate(e.sources):
            lines.append(f'{indent}n{v} -> e{eid} [headlabel="{i}"];')
        for i, v in enumerate(e.targets):
            lines.append(f'{indent}e{eid} -> n{v} [headlabel="{i}"];')
    return lines
