"""Cospans of hypergraphs with finite-function legs.

A cospan packages a carrier hypergraph with two interface maps: ``left``
lists the input boundary nodes in order, ``right`` the output boundary.
Composition glues output boundary to input boundary node-by-node. Checks
and keys read the carrier's ``Hypergraph.index`` (degrees, producers) and
``Hypergraph.ranks`` (acyclicity, heights).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    Cyclic,
    DocumentError,
    InterfaceMismatch,
    NotDiscrete,
    NotRightMonogamous,
    UnknownNode,
)
from .hypergraph import (
    Edge,
    Hypergraph,
    UnionFind,
    canonical_form,
    graph_dot_lines,
    is_acyclic,
    renamed_edges,
)


@dataclass(frozen=True)
class FinFunction:
    """A function between finite ordinals, as a lookup table."""

    dom: int
    cod: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.dom:
            raise InterfaceMismatch(
                f"table length {len(self.table)} != domain {self.dom}"
            )
        for i, j in enumerate(self.table):
            if not 0 <= j < self.cod:
                raise InterfaceMismatch(
                    f"entry {i} maps to {j}, outside codomain {self.cod}"
                )

    def compose(self, other: "FinFunction") -> "FinFunction":
        """self ; other (apply self first)."""
        if self.cod != other.dom:
            raise InterfaceMismatch(
                f"cannot compose: codomain {self.cod} != domain {other.dom}"
            )
        return FinFunction(
            self.dom, other.cod, tuple(other.table[j] for j in self.table)
        )


@dataclass(frozen=True, eq=False)
class Cospan:
    """Carrier graph with ordered input and output boundary node lists."""

    carrier: Hypergraph
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        for v in self.left + self.right:
            if v not in self.carrier.nodes:
                raise UnknownNode(f"interface node {v} not in carrier")

    @cached_property
    def right_monogamous(self) -> bool:
        """is_right_monogamous(self), worked out once for every reader."""
        return is_right_monogamous(self)

    @property
    def arity(self) -> int:
        return len(self.left)

    @property
    def coarity(self) -> int:
        return len(self.right)


EDGE = "edge"
IFACE = "interface"


class Connection(NamedTuple):
    """One input attachment point of a node.

    kind "edge": index is the edge id, slot the target position.
    kind "interface": index is the left-leg position, slot always 0.
    """

    kind: str
    index: int
    slot: int = 0


def edge_conn(eid: int, slot: int) -> Connection:
    return Connection(EDGE, eid, slot)


def iface_conn(pos: int) -> Connection:
    return Connection(IFACE, pos, 0)


def reattach(
    edges: dict[int, Edge], left: tuple[int, ...], to: dict[Connection, int]
) -> tuple[dict[int, Edge], tuple[int, ...]]:
    """Re-point the input connections named in to onto the nodes they map
    to: each edge target slot and left position there moves, every other
    endpoint stays. Returns new edges (same ids, same order) and left."""
    edges = dict(edges)
    new_left = list(left)
    targets: dict[int, list[int]] = {}
    for (kind, index, slot), node in to.items():
        if kind == IFACE:
            new_left[index] = node
        else:
            targets.setdefault(index, list(edges[index].targets))[slot] = node
    for eid, ts in targets.items():
        e = edges[eid]
        edges[eid] = Edge(e.label, e.sources, tuple(ts))
    return edges, tuple(new_left)


def identity_cospan(n: int) -> Cospan:
    g = Hypergraph(frozenset(range(n)), {})
    wires = tuple(range(n))
    return Cospan(g, wires, wires)


def symmetry_cospan(m: int, n: int) -> Cospan:
    g = Hypergraph(frozenset(range(m + n)), {})
    left = tuple(range(m + n))
    right = tuple(range(m, m + n)) + tuple(range(m))
    return Cospan(g, left, right)


def pushout(
    a: Hypergraph, b: Hypergraph, pairs
) -> tuple[Hypergraph, dict[int, int], dict[int, int]]:
    """Glue two carriers, identifying the a node and b node of each pair.

    Each glued class is numbered densely in the order of its first node,
    a's nodes in order before b's; glued edges are a's in id order, then
    b's. Returns the glued carrier and the renaming of a's and of b's
    nodes onto it."""
    # b's node v is shift + v in the union-find, after every node of a
    shift = max(a.nodes, default=0) - min(b.nodes, default=0) + 1
    uf = UnionFind()
    for u, v in pairs:
        uf.union(u, shift + v)
    number: dict[int, int] = {}
    renames: tuple[dict[int, int], dict[int, int]] = ({}, {})
    edges: list[Edge] = []
    for rename, g, offset in zip(renames, (a, b), (0, shift)):
        for v in sorted(g.nodes):
            rename[v] = number.setdefault(uf.find(offset + v), len(number))
        edges += renamed_edges(
            (e for _, e in sorted(g.edges.items())), rename
        )
    carrier = Hypergraph(frozenset(range(len(number))), dict(enumerate(edges)))
    return carrier, *renames


def compose(a: Cospan, b: Cospan) -> Cospan:
    """Glue a's output boundary to b's input boundary positionwise."""
    if a.coarity != b.arity:
        raise InterfaceMismatch(
            f"cannot compose: coarity {a.coarity} != arity {b.arity}"
        )
    g, ra, rb = pushout(a.carrier, b.carrier, zip(a.right, b.left))
    return Cospan(
        g,
        tuple(map(ra.__getitem__, a.left)),
        tuple(map(rb.__getitem__, b.right)),
    )


def tensor(a: Cospan, b: Cospan) -> Cospan:
    """Place b beside a, disjointly: the pushout that glues nothing."""
    g, ra, rb = pushout(a.carrier, b.carrier, ())
    ra, rb = ra.__getitem__, rb.__getitem__
    return Cospan(
        g,
        (*map(ra, a.left), *map(rb, b.left)),
        (*map(ra, a.right), *map(rb, b.right)),
    )


def function_to_cospan(f: FinFunction) -> Cospan:
    """A discrete cospan whose left leg is f and right leg the identity."""
    g = Hypergraph(frozenset(range(f.cod)), {})
    return Cospan(g, f.table, tuple(range(f.cod)))


def cospan_to_function(c: Cospan) -> FinFunction:
    """Inverse of function_to_cospan, when the shape allows it."""
    if c.carrier.edges:
        raise NotDiscrete(
            f"carrier has {len(c.carrier.edges)} edges; expected none"
        )
    if len(set(c.right)) != len(c.right) or set(c.right) != c.carrier.nodes:
        raise NotRightMonogamous(
            "output boundary must list each carrier node exactly once"
        )
    pos = {v: j for j, v in enumerate(c.right)}
    return FinFunction(
        len(c.left), len(c.right), tuple(pos[v] for v in c.left)
    )


def is_right_monogamous(c: Cospan) -> bool:
    """Every node has exactly one consumer, an edge source or a right
    position, and the right leg lists no node twice: out-degrees read
    from the carrier's incidence index."""
    right = set(c.right)
    return len(right) == len(c.right) and all(
        len(uses) + (v in right) == 1
        for v, uses in c.carrier.index.outs.items()
    )


def is_monogamous(c: Cospan) -> bool:
    """Right-monogamous, and every node has exactly one producer, an edge
    target slot or a left position: in-degrees read from the carrier's
    incidence index, and the left leg lists no node twice."""
    left = set(c.left)
    return c.right_monogamous and len(left) == len(c.left) and all(
        len(ps) + (v in left) == 1 for v, ps in c.carrier.index.ins.items()
    )


def cospan_order_key(c: Cospan) -> tuple:
    """The canonical-form key: equal for two cospans iff they are
    isomorphic, and the key that sorts whose order reaches output use."""
    return (
        len(c.left),
        len(c.right),
        canonical_form(c.carrier, pins=c.left + c.right),
    )


def _structural_key(c: Cospan) -> tuple | None:
    """A key of c from AHU certificates of its upstream cones, or None
    when c is not right-monogamous, is cyclic or has a real tie.

    In a right-monogamous cospan every node has exactly one consumer, an
    edge source or a right position. The roots are the right positions in
    order and the edges with no target, unordered. A node carries its left
    positions, and its producers (its target slots in the incidence index)
    are unordered; an edge's sources are ordered.

    Node shapes are numbered level by level from the leaves, each level's
    distinct signatures in sorted order: Aho, Hopcroft and Ullman's tree
    certificates. Acyclicity and each node's level, its height, come from
    one pass over the carrier's ranks. A signature holds the node's left
    positions and the sorted cones of its producers, a cone being an
    edge's label and source shapes, plus the slot it is reached through
    when the edge has several targets.

    When every edge has at most one target the carrier is a forest, and
    the table and root shapes are the key: equal iff c is isomorphic.
    Otherwise an edge with several targets is shared by their cones, so
    the key is c encoded under a numbering of nodes and edges in a
    backward breadth-first walk from the roots, producers and target-less
    edges taken in cone order, each edge numbered on its first visit.
    Tied cones that hold no edge with several targets are disjoint
    isomorphic trees, which an automorphism swaps, so their order leaves
    the encoding unchanged. Any other tie gives None; whether one exists
    depends on the shapes alone, so isomorphic cospans agree on it."""
    g = c.carrier
    if not c.right_monogamous or g.ranks is None:
        return None
    edges, ins = g.edges, g.index.ins
    height = dict.fromkeys(g.nodes, 0)
    free: list[int] = []
    several: set[int] = set()  # the edges with several targets
    for eid in g.ranks:
        e = edges[eid]
        h = max(map(height.__getitem__, e.sources), default=-1) + 1
        for t in e.targets:
            if height[t] < h:
                height[t] = h
        if len(e.targets) > 1:
            several.add(eid)
        elif not e.targets:
            free.append(eid)
    levels = [[] for _ in range(max(height.values(), default=-1) + 1)]
    for v, h in height.items():
        levels[h].append(v)
    lefts: dict[int, tuple[int, ...]] = {}
    for i, v in enumerate(c.left):
        lefts[v] = lefts.get(v, ()) + (i,)
    shape: dict[int, int] = {}
    at = shape.__getitem__

    def cone(eid: int, slot: int) -> tuple:
        """The cone of edge eid at target slot slot, which only an edge
        with several targets records."""
        e = edges[eid]
        k = (e.label, tuple(map(at, e.sources)))
        return k + (slot,) if eid in several else k

    table: list[tuple] = []
    for level in levels:
        sigs = []
        for v in level:
            ks = []
            for eid, i in ins[v]:
                ks.append(cone(eid, i))
            ks.sort()
            sigs.append((lefts.get(v, ()), tuple(ks)))
        if len(level) == 1:
            shape[level[0]] = len(table)
            table += sigs
            continue
        distinct = sorted(set(sigs))
        rank = {sig: len(table) + i for i, sig in enumerate(distinct)}
        table += distinct
        for v, sig in zip(level, sigs):
            shape[v] = rank[sig]
    free_cones = sorted((cone(eid, 0), eid) for eid in free)
    roots = tuple(k for k, _ in free_cones)
    if not several:
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
    # (an edge at several slots of a node by its least cone there)
    nodes = list(c.right)
    edge_no: dict[int, int] = {}
    for _, eid in free_cones:
        edge_no[eid] = len(edge_no)
        nodes += edges[eid].sources
    for v in nodes:
        producers = ins[v]
        if len(producers) > 1:
            producers = sorted(producers, key=lambda p: (cone(*p), p[0]))
        for eid, _ in producers:
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


def cospan_key(c: Cospan) -> tuple:
    """Hashable key equal for two cospans iff they are isomorphic as
    cospans (same arities, carrier iso fixing both boundaries in order).

    Its values may change between versions and their order means
    nothing; sorts whose order reaches output use cospan_order_key."""
    return _structural_key(c) or ("graph",) + cospan_order_key(c)


def iso_equal(a: Cospan, b: Cospan) -> bool:
    return cospan_key(a) == cospan_key(b)


def validate_right_monogamous_acyclic(c: Cospan) -> None:
    if not c.right_monogamous:
        raise NotRightMonogamous("cospan is not right-monogamous")
    if not is_acyclic(c.carrier):
        raise Cyclic("carrier has a directed cycle")


def cospan_to_document(c: Cospan) -> dict:
    """JSON-ready description of a cospan."""
    return {
        "nodes": sorted(c.carrier.nodes),
        "edges": [
            {
                "id": eid,
                "label": e.label,
                "sources": list(e.sources),
                "targets": list(e.targets),
            }
            for eid, e in sorted(c.carrier.edges.items())
        ],
        "left": list(c.left),
        "right": list(c.right),
    }


def _expect(ok: bool, path: str, what: str) -> None:
    if not ok:
        raise DocumentError(f"{path} must be {what}", location=path)


def _int_list(value, path: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), path, "a list")
    for i, v in enumerate(value):
        _expect(type(v) is int, f"{path}[{i}]", "an integer")
    return tuple(value)


def _object(value, keys, path: str) -> None:
    _expect(isinstance(value, dict), path, "an object")
    for key in keys:
        _expect(key in value, f"{path}.{key}", "present")


def cospan_from_document(doc) -> Cospan:
    """Inverse of cospan_to_document. A document of the wrong shape raises
    DocumentError located at the offending JSON path."""
    _object(doc, ("nodes", "edges", "left", "right"), "$")
    _expect(isinstance(doc["edges"], list), "$.edges", "a list")
    edges: dict[int, Edge] = {}
    for i, e in enumerate(doc["edges"]):
        path = f"$.edges[{i}]"
        _object(e, ("id", "label", "sources", "targets"), path)
        eid = e["id"]
        _expect(type(eid) is int, f"{path}.id", "an integer")
        _expect(eid not in edges, f"{path}.id", "unique")
        _expect(isinstance(e["label"], str), f"{path}.label", "a string")
        edges[eid] = Edge(
            e["label"],
            _int_list(e["sources"], f"{path}.sources"),
            _int_list(e["targets"], f"{path}.targets"),
        )
    g = Hypergraph(frozenset(_int_list(doc["nodes"], "$.nodes")), edges)
    return Cospan(
        g, _int_list(doc["left"], "$.left"), _int_list(doc["right"], "$.right")
    )


def cospan_to_dot(c: Cospan) -> str:
    """DOT rendering with the two interfaces drawn as labelled rails."""
    lines = ["digraph cospan {", "  rankdir=LR;"]
    for side, rail in (("left", c.left), ("right", c.right)):
        lines.append(f"  subgraph cluster_{side} {{")
        lines.append(f'    label="{side}"; color=blue;')
        for i in range(len(rail)):
            lines.append(f'    {side[0]}{i} [shape=plaintext, label="{i}"];')
        if len(rail) > 1:
            chain = " -> ".join(f"{side[0]}{i}" for i in range(len(rail)))
            lines.append(f"    {chain} [style=invis];")
        lines.append("  }")
    lines.extend(graph_dot_lines(c.carrier))
    for i, v in enumerate(c.left):
        lines.append(f"  l{i} -> n{v} [style=dashed, arrowhead=none];")
    for i, v in enumerate(c.right):
        lines.append(f"  n{v} -> r{i} [style=dashed, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
