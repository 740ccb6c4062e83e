"""Structural decomposition of right-monogamous acyclic cospans.

Covers node orders and edge levels, terminal-node cuts with their merge-back
maps, extraction of a convex sub-diagram between two contexts, the finer
three-way split obtained by cutting boundary nodes, peeling off the level-0
slice, full factorisation into levels, and term readback.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

from .cospan import (
    EDGE,
    IFACE,
    Connection,
    Cospan,
    FinFunction,
    compose,
    cospan_to_function,
    edge_conn,
    function_to_cospan,
    iface_conn,
    identity_cospan,
    is_monogamous,
    reattach,
    tensor,
    validate_right_monogamous_acyclic,
)
from .errors import (
    BadInterfaceOrder,
    IncompatibleGluing,
    InvalidInOutSignature,
    InvalidSignature,
    MissingCut,
    NotConvex,
    NotRightMonogamous,
    NotTerminal,
    PartitionMismatch,
)
from .hypergraph import (
    Hypergraph,
    SubHypergraph,
    is_convex,
    reachable,
    terminal_nodes,
)
from .sigterm import Gen, Id, Mu, Eta, Par, Seq, Signature, Sym, Term


def in_connections(c: Cospan) -> dict[int, tuple[Connection, ...]]:
    """Every node's input connections in sorted order: the edge target
    slots pointing at it, then the input-boundary positions holding it."""
    conns = {
        v: [edge_conn(eid, i) for eid, i in slots]
        for v, slots in c.carrier.index.ins.items()
    }
    for p, u in enumerate(c.left):
        conns[u].append(iface_conn(p))
    return {v: tuple(cs) for v, cs in conns.items()}


def node_orders(c: Cospan) -> dict[int, int]:
    """Max count of merge-witnessing nodes on any path into each node,
    counting the node itself."""
    validate_right_monogamous_acyclic(c)
    return _orders(c, in_connections(c))


def _orders(
    c: Cospan, conns: dict[int, tuple[Connection, ...]]
) -> dict[int, int]:
    # node_orders of a validated c whose in_connections are conns
    la = {v for v, cs in conns.items() if len(cs) != 1}
    order = {v: (1 if v in la else 0) for v in c.carrier.nodes}
    for eid in c.carrier.ranks:
        e = c.carrier.edges[eid]
        lvl = max((order[u] for u in e.sources), default=0)
        for t in e.targets:
            base = 1 if t in la else 0
            order[t] = max(order[t], base + lvl)
    return order


def edge_levels(c: Cospan) -> dict[int, int]:
    """Max count of merge-witnessing nodes on any path ending in each edge."""
    orders = node_orders(c)
    return {
        eid: max((orders[u] for u in e.sources), default=0)
        for eid, e in c.carrier.edges.items()
    }


@dataclass(frozen=True)
class Cut:
    """Ordered partition of a terminal node's input connections."""

    node: int
    partition: tuple[frozenset[Connection], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "partition", tuple(frozenset(b) for b in self.partition)
        )


def _split_terminals(
    c: Cospan, cuts: dict[int, Cut]
) -> tuple[Cospan, FinFunction]:
    """Split each cut node of c.right into one fresh copy per block.

    Copies are numbered upward from past the largest node, in right order;
    the connections in block i move to copy i and the copies take the
    node's place in right. Returns the split cospan and the reconnect map
    sending new output positions to old ones (composing with its merge
    undoes the split)."""
    base = max(c.carrier.nodes, default=-1) + 1
    copies_of: dict[int, tuple[int, ...]] = {}
    conn_copy: dict[Connection, int] = {}
    right: list[int] = []
    table: list[int] = []
    for j, v in enumerate(c.right):
        cut = cuts.get(v)
        copies = (v,)
        if cut is not None:
            copies = tuple(range(base, base + len(cut.partition)))
            base += len(copies)
            copies_of[v] = copies
            for copy, block in zip(copies, cut.partition):
                conn_copy.update(dict.fromkeys(block, copy))
        right += copies
        table += [j] * len(copies)
    edges, left = reattach(c.carrier.edges, c.left, conn_copy)
    nodes = c.carrier.nodes - copies_of.keys()
    nodes |= {w for copies in copies_of.values() for w in copies}
    recon = FinFunction(len(right), len(c.right), tuple(table))
    return Cospan(Hypergraph(nodes, edges), left, right), recon


def complete_cut(
    c: Cospan, cuts: list[Cut]
) -> tuple[Cospan, FinFunction]:
    """Apply one cut per terminal node; reconnect maps compose blockwise.

    Each cut's blocks must be disjoint, at least one, and cover exactly
    the node's input connections."""
    if not c.right_monogamous:
        raise NotRightMonogamous("cospan is not right-monogamous")
    by_node: dict[int, Cut] = {}
    for cut in cuts:
        if cut.node in by_node:
            raise PartitionMismatch(f"multiple cuts for node {cut.node}")
        by_node[cut.node] = cut
    terms = terminal_nodes(c.carrier)
    missing = terms - by_node.keys()
    if missing:
        raise MissingCut(f"no cut supplied for nodes {sorted(missing)}")
    extra = by_node.keys() - terms
    if extra:
        raise NotTerminal(f"cut names non-terminal nodes {sorted(extra)}")
    conns = in_connections(c)
    for v in c.right:
        if not by_node[v].partition:
            raise PartitionMismatch("cut needs at least one block")
        seen: set[Connection] = set()
        for block in by_node[v].partition:
            if block & seen:
                raise PartitionMismatch("partition blocks overlap")
            seen |= block
        if seen != set(conns[v]):
            raise PartitionMismatch(
                f"blocks cover {sorted(seen)} but node {v} has "
                f"{sorted(conns[v])}"
            )
    return _split_terminals(c, by_node)


class WeakDecomposition(NamedTuple):
    """g cut into an upstream context, k passthrough wires beside the
    extracted inner cospan, and a downstream context."""

    upstream: Cospan
    passthrough: int
    extracted: Cospan
    downstream: Cospan


def _endpoints(g: Hypergraph, eids) -> set[int]:
    out: set[int] = set()
    for eid in eids:
        e = g.edges[eid]
        out.update(e.sources)
        out.update(e.targets)
    return out


class UpDown(NamedTuple):
    """The sides around a sub-hypergraph: edges outside it with a path into
    it are up, the rest down. Its boundary nodes are shared (touched by
    both sides), inner (up only) or outer (down only); bypass nodes touch
    both sides without belonging to it. ``external`` holds the input
    connections from outside it of each shared and inner node."""

    up_edges: frozenset[int]
    up_nodes: frozenset[int]
    down_edges: frozenset[int]
    down_nodes: frozenset[int]
    shared: list[int]
    inner: list[int]
    outer: list[int]
    bypass: list[int]
    external: dict[int, frozenset[Connection]]


def updown_sides(g: Cospan, sub: SubHypergraph) -> UpDown:
    """Classify the edges and nodes around sub; see UpDown."""
    carrier = g.carrier
    into_sub = reachable(carrier, sub.nodes, forward=False)
    up_edges = frozenset(
        eid
        for eid, e in carrier.edges.items()
        if eid not in sub.edges and into_sub.intersection(e.targets)
    )
    up_nodes = frozenset(g.left) | _endpoints(carrier, up_edges)
    down_edges = frozenset(carrier.edges.keys() - sub.edges - up_edges)
    down_nodes = frozenset(g.right) | _endpoints(carrier, down_edges)
    shared = sorted(up_nodes & down_nodes & sub.nodes)
    inner = sorted((up_nodes & sub.nodes) - down_nodes)
    conns = in_connections(g)
    external = {
        v: frozenset(
            conn
            for conn in conns[v]
            if not (conn.kind == EDGE and conn.index in sub.edges)
        )
        for v in sorted(shared + inner)
    }
    return UpDown(
        up_edges,
        up_nodes,
        down_edges,
        down_nodes,
        shared,
        inner,
        sorted((down_nodes & sub.nodes) - up_nodes),
        sorted((up_nodes & down_nodes) - sub.nodes),
        external,
    )


def weak_decompose(
    g: Cospan, sub: SubHypergraph, updown: dict | None = None
) -> WeakDecomposition:
    """Extract a convex sub-hypergraph between two contexts.

    ``updown`` optionally splits each shared boundary node's external input
    connections into an upper set (re-attached after the extracted part) and
    a lower set (fed into it); default sends everything into the lower set.
    """
    validate_right_monogamous_acyclic(g)
    sub.validate_in(g.carrier)
    if not is_convex(g.carrier, sub.nodes, sub.edges):
        raise NotConvex("sub-hypergraph is not convex in the carrier")
    carrier = g.carrier
    (
        up_edges, up_nodes, down_edges, down_nodes,
        t_shared, i_inner, j_outer, k_bypass, external,
    ) = updown_sides(g, sub)
    shared = set(t_shared) | set(i_inner)

    upper: dict[int, frozenset[Connection]] = {}
    lower: dict[int, frozenset[Connection]] = {}
    updown = dict(updown or {})
    for v in updown:
        if v not in shared:
            raise InvalidSignature(
                f"node {v} is not a shared boundary node"
            )
    for v in sorted(shared):
        if v in updown:
            up, low = updown[v]
            up, low = frozenset(up), frozenset(low)
        else:
            up, low = frozenset(), external[v]
        if up & low:
            raise InvalidSignature(f"upper and lower sets overlap at node {v}")
        if (up | low) != external[v]:
            raise InvalidSignature(
                f"upper and lower sets at node {v} must cover exactly its "
                "external input connections"
            )
        if v in i_inner and up:
            raise InvalidSignature(
                f"node {v} is consumed inside the extracted part; all its "
                "external inputs must be in the lower set"
            )
        upper[v], lower[v] = up, low

    base = max(carrier.nodes, default=-1) + 1
    upper_copy: dict[int, int] = {}
    for v in t_shared:
        upper_copy[v] = base
        base += 1
    lower_copy: dict[int, int] = {}
    for v in t_shared:
        if lower[v]:
            lower_copy[v] = base
            base += 1
    redirect: dict[Connection, int] = {}
    for v in t_shared:
        for conn in upper[v]:
            redirect[conn] = upper_copy[v]
        for conn in lower[v]:
            redirect[conn] = lower_copy[v]

    up_carrier_nodes = (
        (up_nodes - set(t_shared))
        | set(upper_copy.values())
        | set(lower_copy.values())
    )
    up_carrier_edges, up_left = reattach(
        {eid: carrier.edges[eid] for eid in sorted(up_edges)}, g.left, redirect
    )
    k_block = list(k_bypass) + [upper_copy[v] for v in t_shared]
    low_block = list(i_inner) + [
        lower_copy[v] for v in t_shared if v in lower_copy
    ]
    upstream = Cospan(
        Hypergraph(up_carrier_nodes, up_carrier_edges),
        up_left,
        tuple(k_block + low_block),
    )

    extracted = Cospan(
        carrier.restrict(sub),
        tuple(i_inner) + tuple(v for v in t_shared if v in lower_copy),
        tuple(j_outer) + tuple(t_shared),
    )

    down_sub = SubHypergraph(frozenset(down_nodes), frozenset(down_edges))
    downstream = Cospan(
        carrier.restrict(down_sub),
        tuple(k_bypass) + tuple(t_shared) + tuple(j_outer) + tuple(t_shared),
        g.right,
    )
    return WeakDecomposition(
        upstream, len(k_block), extracted, downstream
    )


def recompose_weak(w: WeakDecomposition) -> Cospan:
    mid = tensor(identity_cospan(w.passthrough), w.extracted)
    return compose(compose(w.upstream, mid), w.downstream)


def _cut_with_one_blocks(c: Cospan, cuts) -> tuple[Cospan, FinFunction]:
    """complete_cut of c, with a one-block cut at each terminal node that
    cuts leaves out."""
    conns = in_connections(c)
    named = {cut.node for cut in cuts}
    return complete_cut(
        c,
        list(cuts)
        + [
            Cut(v, (frozenset(conns[v]),))
            for v in sorted(terminal_nodes(c.carrier) - named)
        ],
    )


def _strong_parts(weak, inout):
    """Both sides cut, and for each input position of the middle factor
    the copies it can attach to."""
    up, k, ext, down = weak
    omega_in, omega_out = inout
    for cut in omega_in:
        if cut.node in up.right[:k] and len(cut.partition) != 1:
            raise InvalidInOutSignature(
                f"node {cut.node} feeds a passthrough wire and cannot be "
                "split"
            )
    # a passthrough node keeps its one copy at its own position, so the
    # wires stay in the leading k positions
    up_cut, recon_in = _cut_with_one_blocks(up, omega_in)
    # without its left leg each node's connections are its edge
    # connections; the gluing attaches the input positions afterwards
    ext_cut, recon_out = _cut_with_one_blocks(
        Cospan(ext.carrier, (), ext.right), omega_out
    )
    copies: dict[int, list[int]] = {}
    for w, j in zip(ext_cut.right, recon_out.table):
        copies.setdefault(ext.right[j], []).append(w)
    # an input node that is not an output is consumed inside, never cut
    choices = [
        copies.get(ext.left[j - k], [ext.left[j - k]])
        for j in recon_in.table[k:]
    ]
    return up_cut, ext_cut, recon_out, choices


def gluing_choice_points(weak, inout) -> dict[int, int]:
    """Positions in the middle factor's input boundary that need a gluing
    choice, mapped to how many copies they can attach to."""
    choices = _strong_parts(weak, inout)[3]
    return {
        pos: len(copies)
        for pos, copies in enumerate(choices)
        if len(copies) > 1
    }


def strong_decompose(
    weak, inout, gluing: dict | None = None
) -> tuple[Cospan, Cospan, Cospan]:
    """Refine a weak decomposition by cutting both boundary sides.

    ``inout`` is a pair (input-side cuts on the upstream cospan, output-side
    cuts on the extracted cospan's edge connections); omitted terminals get
    one-block cuts. ``gluing`` picks, per choice position, which copy of a
    cut node each input-boundary attachment of the middle factor uses.
    """
    up, k, ext, down = weak
    gluing = dict(gluing or {})
    up_cut, ext_cut, recon_out, choices = _strong_parts(weak, inout)
    for key in gluing:
        if not 0 <= key < len(choices):
            raise IncompatibleGluing(f"gluing position {key} out of range")
    wire_base = max(ext_cut.carrier.nodes, default=-1) + 1
    wires = tuple(wire_base + i for i in range(k))
    mid_left = list(wires)
    for pos, copies in enumerate(choices):
        if len(copies) == 1 and gluing.get(pos, 0) != 0:
            raise IncompatibleGluing(
                f"position {pos} has a single node to attach to"
            )
        if len(copies) > 1 and pos not in gluing:
            raise IncompatibleGluing(
                f"position {pos} needs a gluing choice among "
                f"{len(copies)} copies"
            )
        idx = gluing.get(pos, 0)
        if not 0 <= idx < len(copies):
            raise IncompatibleGluing(
                f"gluing index {idx} at position {pos} out of range"
            )
        mid_left.append(copies[idx])
    middle = Cospan(
        Hypergraph(ext_cut.carrier.nodes | set(wires), ext_cut.carrier.edges),
        tuple(mid_left),
        wires + ext_cut.right,
    )
    down_left = tuple(down.left[p] for p in range(k)) + tuple(
        down.left[k + j] for j in recon_out.table
    )
    return up_cut, middle, Cospan(down.carrier, down_left, down.right)


def recompose_strong(parts: tuple[Cospan, Cospan, Cospan]) -> Cospan:
    a, b, c = parts
    return compose(compose(a, b), c)


class LevelSplit(NamedTuple):
    """One peeled level: a monogamous slice, k passthrough wires, a discrete
    merge layer, and the remainder."""

    slice: Cospan
    passthrough: int
    merges: Cospan
    remainder: Cospan


def level0_decompose(g: Cospan) -> LevelSplit:
    """Peel off the level-0 edges and order-1 merge nodes."""
    validate_right_monogamous_acyclic(g)
    conns = in_connections(g)
    return _peel(g, _orders(g, conns), conns)


def _peel(
    g: Cospan, orders: dict[int, int], conns: dict[int, tuple[Connection, ...]]
) -> LevelSplit:
    # level0_decompose of a validated g with the given node_orders and
    # in_connections
    k = sum(1 for v in g.right if orders[v] == 0)
    if any(orders[v] != 0 for v in g.right[:k]) or any(
        orders[v] == 0 for v in g.right[k:]
    ):
        raise BadInterfaceOrder(
            "order-0 output nodes must occupy the leading positions"
        )
    e0 = {
        eid
        for eid, e in g.carrier.edges.items()
        if all(orders[u] == 0 for u in e.sources)
    }
    la = sorted(v for v, cs in conns.items() if len(cs) != 1)
    # one fresh wire per merge input that level 0 produces, in node order
    base = max(g.carrier.nodes, default=-1) + 1
    wire_of: dict[Connection, int] = {}
    fed: list[int] = []
    for v in la:
        for conn in conns[v]:
            if conn.kind == IFACE or conn.index in e0:
                wire_of[conn] = base + len(fed)
                fed.append(v)
    m_edges, m_left = reattach(
        {eid: g.carrier.edges[eid] for eid in sorted(e0)}, g.left, wire_of
    )
    order0 = {v for v in g.carrier.nodes if orders[v] == 0}
    read_later = {
        u
        for eid, e in g.carrier.edges.items()
        if eid not in e0
        for u in e.sources
    }
    passed = sorted(order0 & read_later)
    m_right = g.right[:k] + tuple(wire_of.values()) + tuple(passed)
    m_nodes = order0 | set(wire_of.values())
    slice_ = Cospan(Hypergraph(m_nodes, m_edges), m_left, m_right)

    order1 = [v for v in la if orders[v] == 1]
    merge_id = {v: i for i, v in enumerate(order1)}
    nid = len(order1)
    d_left: list[int] = []
    d_right_passes: list[int] = []
    gp_left_passes: list[int] = []
    for v in fed:
        if orders[v] == 1:
            d_left.append(merge_id[v])
        else:
            d_left.append(nid)
            d_right_passes.append(nid)
            gp_left_passes.append(v)
            nid += 1
    for u in passed:
        d_left.append(nid)
        d_right_passes.append(nid)
        gp_left_passes.append(u)
        nid += 1
    d_nodes = frozenset(range(nid))
    merges = Cospan(
        Hypergraph(d_nodes, {}),
        tuple(d_left),
        tuple(merge_id[v] for v in order1) + tuple(d_right_passes),
    )

    gp_nodes = {v for v in g.carrier.nodes if orders[v] >= 1} | set(passed)
    gp_edges = {
        eid: g.carrier.edges[eid]
        for eid in g.carrier.edges
        if eid not in e0
    }
    gp_left = tuple(order1) + tuple(gp_left_passes)
    remainder = Cospan(
        Hypergraph(gp_nodes, gp_edges), gp_left, g.right[k:]
    )
    return LevelSplit(slice_, k, merges, remainder)


@dataclass(frozen=True)
class LevelFactor:
    """One monogamous slice plus its passthrough width and merge layer."""

    slice: Cospan
    passthrough: int
    merges: Cospan


@dataclass(frozen=True)
class LevelFactorisation:
    """Alternating slice/merge factors plus the output permutation that
    restores the original boundary order."""

    factors: tuple[LevelFactor, ...]
    perm: FinFunction


# peel_levels(g) for each live cospan g; a Cospan hashes by identity
_LEVELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def factorise_into_levels(g: Cospan) -> LevelFactorisation:
    """Stratify a cospan into levels of increasing merge depth, worked out
    once per cospan, so readback_term(g) after this call reads the same
    factorisation."""
    if g not in _LEVELS:
        _LEVELS[g] = peel_levels(g)
    return _LEVELS[g]


def peel_levels(g: Cospan) -> LevelFactorisation:
    """factorise_into_levels, worked out afresh: one _peel per level."""
    orders = node_orders(g)
    n = len(g.right)
    sorted_pos = sorted(range(n), key=lambda p: (orders[g.right[p]], p))
    perm = FinFunction(n, n, tuple(sorted_pos))
    cur = Cospan(g.carrier, g.left, tuple(g.right[p] for p in sorted_pos))
    max_order = max(orders.values(), default=0)
    factors: list[LevelFactor] = []
    for _ in range(max_order + 2):
        split = _peel(cur, orders, in_connections(cur))
        factors.append(
            LevelFactor(split.slice, split.passthrough, split.merges)
        )
        cur = split.remainder
        if not cur.carrier.nodes:
            return LevelFactorisation(tuple(factors), perm)
        # peeling one level lowers every remaining order by one, and the
        # order-0 nodes passed on stay at 0
        orders = {v: max(orders[v] - 1, 0) for v in cur.carrier.nodes}
    raise RuntimeError("level factorisation did not terminate")


def recompose_levels(lf: LevelFactorisation) -> Cospan:
    t = identity_cospan(0)
    for f in reversed(lf.factors):
        t = compose(
            f.slice,
            tensor(identity_cospan(f.passthrough), compose(f.merges, t)),
        )
    return compose(t, function_to_cospan(lf.perm))


def _par2(a: Term, b: Term) -> Term:
    if a.__class__ is Id and not a.n:
        return b
    if b.__class__ is Id and not b.n:
        return a
    return Par(a, b)


def _seq2(a: Term, b: Term) -> Term:
    if isinstance(a, Id):
        return b
    if isinstance(b, Id):
        return a
    return Seq(a, b)


class _SwapLayers(dict):
    """Swap layers by (width, position), each built on first use.
    readback_term keeps one table for all its slices, perm_term one per
    call: terms are immutable, so the terms built from a table share its
    layers, and the table goes with them."""

    def __missing__(self, key: tuple[int, int]) -> Term:
        width, pos = key
        layer = _par2(_par2(Id(pos), Sym(1, 1)), Id(width - pos - 2))
        self[key] = layer
        return layer


def perm_term(perm: FinFunction) -> Term:
    """A generator-free term denoting the given permutation."""
    swaps = _SwapLayers()
    n = perm.dom
    if perm.cod != n or len(set(perm.table)) != n:
        raise PartitionMismatch("not a permutation")
    inverse = [0] * n
    for i, j in enumerate(perm.table):
        inverse[j] = i
    occupants = list(range(n))
    layers: list[Term] = []
    for pos in range(n - 1, -1, -1):
        idx = occupants.index(inverse[pos])
        while idx < pos:
            layers.append(swaps[n, idx])
            occupants[idx], occupants[idx + 1] = (
                occupants[idx + 1],
                occupants[idx],
            )
            idx += 1
    term: Term = Id(n)
    for layer in layers:
        term = _seq2(term, layer)
    return term


def _merge_tree(count: int) -> Term:
    """count wires merged into one: eta, id_1, mu, then
    (id_1 + <tree of count - 1>) ; mu."""
    if count < 2:
        return Id(1) if count else Eta()
    tree: Term = Mu()
    for _ in range(count - 2):
        tree = Seq(Par(Id(1), tree), Mu())
    return tree


def fn_to_cmon_term(f: FinFunction) -> Term:
    """A generator-free term denoting the given function."""
    order = sorted(range(f.dom), key=lambda i: (f.table[i], i))
    rank = [0] * f.dom
    for r, i in enumerate(order):
        rank[i] = r
    sorter = perm_term(FinFunction(f.dom, f.dom, tuple(rank)))
    fibers = [0] * f.cod
    for j in f.table:
        fibers[j] += 1
    blocks: Term = Id(0)
    for count in fibers:
        blocks = _par2(blocks, _merge_tree(count))
    return _seq2(sorter, blocks)


def _monogamous_readback(
    m: Cospan, sig: Signature, swaps: _SwapLayers
) -> Term:
    """The slice m as layers: each edge in m.carrier.ranks order, after
    bubbling its sources to the front, then the wires bubbled into
    m.right's order. m is monogamous: a node not in m.left has one
    producer and comes onto the wires when that producer is placed, so
    ranks takes each edge once all its sources are on the wires."""
    if not is_monogamous(m):
        raise NotRightMonogamous("level slice is not monogamous")
    edges = m.carrier.edges
    wires = list(m.left)
    layers: list[Term] = []

    def bubble_to(node: int, target_pos: int) -> None:
        idx = wires.index(node)
        while idx > target_pos:
            layers.append(swaps[len(wires), idx - 1])
            wires[idx - 1], wires[idx] = wires[idx], wires[idx - 1]
            idx -= 1

    for eid in m.carrier.ranks:
        e = edges[eid]
        a, b = len(e.sources), len(e.targets)
        sig.check(e.label, a, b)
        for i, s in enumerate(e.sources):
            bubble_to(s, i)
        layers.append(_par2(Gen(e.label, a, b), Id(len(wires) - a)))
        wires[:a] = []
        wires[:0] = list(e.targets)
    for i, v in enumerate(m.right):
        bubble_to(v, i)
    term: Term = Id(len(m.left))
    for layer in layers:
        term = _seq2(term, layer)
    return term


def readback_term(g: Cospan, sig: Signature) -> Term:
    """A term that evaluates back to g up to isomorphism, read from g's
    level factorisation (the one factorise_into_levels(g) returns)."""
    lf = factorise_into_levels(g)
    swaps = _SwapLayers()
    term: Term = Id(0)
    for f in reversed(lf.factors):
        d_term = fn_to_cmon_term(cospan_to_function(f.merges))
        inner = _seq2(d_term, term)
        term = _seq2(
            _monogamous_readback(f.slice, sig, swaps),
            _par2(Id(f.passthrough), inner),
        )
    return _seq2(term, perm_term(lf.perm))
