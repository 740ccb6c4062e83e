"""Directed hypergraphs with labelled, ordered-endpoint edges.

Each graph owns its incidence index and one edge order (``index``,
``ranks``), which reachability, terminal nodes, acyclicity, convexity and
homomorphism search (with controlled node merging) read; a canonical form
decides isomorphism with pinned interface nodes. ``Edge`` and
``Hypergraph`` take endpoint tuples and ``Edge`` values as given.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import NotASubhypergraph, UnknownNode


@dataclass(frozen=True)
class Edge:
    """One labelled hyperedge with ordered source and target lists."""

    label: str
    sources: tuple[int, ...]
    targets: tuple[int, ...]


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
        for eid, e in self.edges.items():
            for v in e.sources + e.targets:
                if v not in self.nodes:
                    raise UnknownNode(f"edge {eid} touches missing node {v}")

    @cached_property
    def index(self) -> "Incidence":
        """The incidence index, built once and shared by every check."""
        return incidence(self)

    @cached_property
    def ranks(self) -> dict[int, int] | None:
        """Each edge's position in one topological order, the smallest
        ready id first, or None when cyclic; built once, on first use,
        from the incidence index."""
        inc = self.index
        # per edge, the producer target slots feeding it not yet ranked
        waiting = dict.fromkeys(self.edges, 0)
        for e in self.edges.values():
            for t in e.targets:
                for f, _ in inc.outs[t]:
                    waiting[f] += 1
        ready = [eid for eid, n in waiting.items() if n == 0]
        heapq.heapify(ready)
        rank: dict[int, int] = {}
        while ready:
            eid = heapq.heappop(ready)
            rank[eid] = len(rank)
            for t in self.edges[eid].targets:
                for f, _ in inc.outs[t]:
                    waiting[f] -= 1
                    if waiting[f] == 0:
                        heapq.heappush(ready, f)
        return rank if len(rank) == len(self.edges) else None

    def restrict(self, sub: "SubHypergraph") -> "Hypergraph":
        """The sub-hypergraph as a standalone graph (ids preserved)."""
        sub.validate_in(self)
        return Hypergraph(sub.nodes, {e: self.edges[e] for e in sub.edges})


def renamed_edges(edges, new: dict[int, int]) -> list[Edge]:
    """Each edge with every endpoint v moved to new[v]."""
    at = new.__getitem__
    return [
        Edge(e.label, tuple(map(at, e.sources)), tuple(map(at, e.targets)))
        for e in edges
    ]


@dataclass(frozen=True)
class SubHypergraph:
    """A sub-hypergraph of an ambient graph, given by id subsets."""

    nodes: frozenset[int]
    edges: frozenset[int]

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


class Incidence(NamedTuple):
    """Per node, the (edge id, slot) pairs where it is a target (``ins``) and
    where it is a source (``outs``), each in edge id then slot order."""

    ins: dict[int, list[tuple[int, int]]]
    outs: dict[int, list[tuple[int, int]]]


def incidence(g: Hypergraph) -> Incidence:
    """The incidence index of g, built in one pass over the edges."""
    ins: dict[int, list[tuple[int, int]]] = {v: [] for v in g.nodes}
    outs: dict[int, list[tuple[int, int]]] = {v: [] for v in g.nodes}
    for eid, e in sorted(g.edges.items()):
        for i, v in enumerate(e.sources):
            outs[v].append((eid, i))
        for i, v in enumerate(e.targets):
            ins[v].append((eid, i))
    return Incidence(ins, outs)


def terminal_nodes(g: Hypergraph) -> frozenset[int]:
    """Nodes with out-degree zero."""
    return frozenset(v for v, uses in g.index.outs.items() if not uses)


def _reach(g: Hypergraph, seeds, forward: bool, keep) -> set[int]:
    ins, outs = g.index
    via = outs if forward else ins
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for eid, _ in via[stack.pop()]:
            if keep(eid):
                e = g.edges[eid]
                for w in e.targets if forward else e.sources:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return seen


def reachable(g: Hypergraph, seeds, *, forward: bool = True) -> set[int]:
    """Nodes reachable from seeds (seeds included)."""
    return _reach(g, seeds, forward, lambda eid: True)


def is_acyclic(g: Hypergraph) -> bool:
    """True iff no directed path repeats a node: a node cycle is a cycle of
    edges each feeding the next, which no edge order can list."""
    return g.ranks is not None


def is_convex(g: Hypergraph, nodes, edges) -> bool:
    """No path between two of ``nodes`` passes through an edge outside
    ``edges`` (a set). Topological positions rise along a path, so such a
    path only uses edges between the first consumer and the last producer
    of a node in ``nodes``: both searches stay in that window, which holds
    every edge of a cyclic graph."""
    ins, outs = g.index
    rank = g.ranks or dict.fromkeys(g.edges, 0)
    lo = min((rank[e] for v in nodes for e, _ in outs[v]), default=len(rank))
    hi = max((rank[e] for v in nodes for e, _ in ins[v]), default=-1)
    fwd = _reach(g, nodes, True, lambda eid: rank[eid] <= hi)
    bwd = _reach(g, nodes, False, lambda eid: rank[eid] >= lo)
    return all(
        eid in edges or rank[eid] > hi or bwd.isdisjoint(g.edges[eid].targets)
        for v in fwd
        for eid, _ in outs[v]
    )


def _shape(e: Edge) -> tuple[str, int, int]:
    return e.label, len(e.sources), len(e.targets)


def _path_lengths(g: Hypergraph) -> tuple[dict, dict] | None:
    """Per edge, the most edges on a path into it and on a path out of
    it, in one pass each way over the topological order; None when g is
    cyclic."""
    if g.ranks is None:
        return None
    ins, outs = g.index
    up: dict[int, int] = {}
    for eid in g.ranks:
        up[eid] = max(
            (up[f] + 1 for v in g.edges[eid].sources for f, _ in ins[v]),
            default=0,
        )
    down: dict[int, int] = {}
    for eid in reversed(g.ranks):
        down[eid] = max(
            (down[f] + 1 for v in g.edges[eid].targets for f, _ in outs[v]),
            default=0,
        )
    return up, down


def find_homomorphisms(
    pattern: Hypergraph, host: Hypergraph, merge_allowed=frozenset()
) -> list[Homomorphism]:
    """All of iter_homomorphisms' maps, in its order."""
    return list(iter_homomorphisms(pattern, host, merge_allowed))


def iter_homomorphisms(
    pattern: Hypergraph, host: Hypergraph, merge_allowed=frozenset()
) -> Iterator[Homomorphism]:
    """All label- and position-preserving maps, injective on edges, lazily.

    Node images must be injective except that two pattern nodes may share an
    image when BOTH lie in merge_allowed.

    Depth-first over an explicit stack, one level per pattern edge in id
    order and then one per pattern node no edge touches, each level trying
    host edges or nodes in id order. A pattern edge with an endpoint
    already mapped tries only the host edges at that endpoint's image in
    the same slot. When both graphs are acyclic and the pattern has two
    edges or more, a host edge is tried only where its longest paths in
    and out are at least the pattern edge's: a map injective on edges
    takes a path to a path of the same length, so this skips no map and
    keeps the order."""
    merge_allowed = frozenset(merge_allowed)
    by_label: dict[str, list[int]] = {}
    for hid in sorted(host.edges):
        by_label.setdefault(host.edges[hid].label, []).append(hid)
    pids = sorted(pattern.edges)
    pedges = [pattern.edges[pid] for pid in pids]
    n_edges = len(pedges)
    inc = host.index if n_edges > 1 else None
    touched = {v for e in pedges for v in e.sources + e.targets}
    loose = [v for v in sorted(pattern.nodes) if v not in touched]
    host_nodes = sorted(host.nodes)
    lengths = None
    if n_edges > 1:
        lengths = _path_lengths(pattern), _path_lengths(host)
        if None in lengths:
            lengths = None
    if not pedges and not loose:
        yield Homomorphism(pattern, host, {}, {})
        return
    nmap: dict[int, int] = {}
    emap: dict[int, int] = {}
    used: set[int] = set()  # host edges in emap's image
    taken: dict[int, int] = {}  # host node -> pattern nodes mapped onto it
    exclusive: set[int] = set()  # images of nodes outside merge_allowed

    def unbind(new: list[int]) -> None:
        for pv in reversed(new):
            hv = nmap.pop(pv)
            taken[hv] -= 1
            exclusive.discard(hv)

    def bind(pairs) -> list[int] | None:
        """Map every (pattern node, host node) pair and return the pattern
        nodes newly mapped, or map none and return None."""
        new: list[int] = []
        for pv, hv in pairs:
            if pv in nmap:
                if nmap[pv] == hv:
                    continue
            elif hv not in exclusive and (
                pv in merge_allowed or not taken.get(hv)
            ):
                nmap[pv] = hv
                taken[hv] = taken.get(hv, 0) + 1
                if pv not in merge_allowed:
                    exclusive.add(hv)
                new.append(pv)
                continue
            unbind(new)
            return None
        return new

    def candidates(k: int) -> list[int]:
        pe = pedges[k]
        if k:  # only an edge after the first can have an endpoint mapped
            for via, ends in ((inc.outs, pe.sources), (inc.ins, pe.targets)):
                for slot, pv in enumerate(ends):
                    if pv in nmap:
                        return [h for h, s in via[nmap[pv]] if s == slot]
        return by_label.get(pe.label, [])

    def options(k: int) -> list[int]:
        if k >= n_edges:
            return host_nodes
        if lengths is None:
            return candidates(k)
        (p_up, p_down), (h_up, h_down) = lengths
        up, down = p_up[pids[k]], p_down[pids[k]]
        return [
            h for h in candidates(k) if h_up[h] >= up and h_down[h] >= down
        ]

    def choose(k: int, opt: int) -> list[int] | None:
        if k >= n_edges:
            return bind([(loose[k - n_edges], opt)])
        pe, he = pedges[k], host.edges[opt]
        if opt in used or _shape(he) != _shape(pe):
            return None
        return bind(zip(pe.sources + pe.targets, he.sources + he.targets))

    last = n_edges + len(loose) - 1
    stack = [iter(options(0))]
    trail: list[list[int]] = []  # per level below the top, what it bound
    while stack:
        k = len(stack) - 1
        if len(trail) > k:
            unbind(trail.pop())
            if k < n_edges:
                used.discard(emap.pop(pids[k]))
        for opt in stack[k]:
            new = choose(k, opt)
            if new is not None:
                break
        else:
            stack.pop()
            continue
        trail.append(new)
        if k < n_edges:
            emap[pids[k]] = opt
            used.add(opt)
        if k == last:
            yield Homomorphism(pattern, host, nmap, emap)
        else:
            stack.append(iter(options(k + 1)))


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


def graph_dot_lines(g: Hypergraph) -> list[str]:
    """DOT body: nodes as points, hyperedges as labelled boxes whose
    tentacles carry the endpoint position on the arrowhead."""
    lines = []
    for v in sorted(g.nodes):
        lines.append(f'  n{v} [shape=point, xlabel="{v}"];')
    for eid, e in sorted(g.edges.items()):
        lines.append(f'  e{eid} [shape=box, label="{e.label}"];')
        for i, v in enumerate(e.sources):
            lines.append(f'  n{v} -> e{eid} [headlabel="{i}"];')
        for i, v in enumerate(e.targets):
            lines.append(f'  e{eid} -> n{v} [headlabel="{i}"];')
    return lines
