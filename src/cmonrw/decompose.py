"""Structural decomposition of right-monogamous acyclic cospans.

Covers node orders and edge levels, terminal-node cuts with their merge-back
maps, extraction of a convex sub-diagram between two contexts, the finer
three-way split obtained by cutting boundary nodes, peeling off the level-0
slice, full factorisation into levels, and term readback.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cospan import (
    Cospan,
    FinFunction,
    compose,
    cospan_to_function,
    function_to_cospan,
    identity_cospan,
    is_monogamous,
    is_right_monogamous,
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
    UnknownGenerator,
    UnknownNode,
)
from .hypergraph import (
    Edge,
    Hypergraph,
    SubHypergraph,
    _is_convex_image,
    edge_topological_order,
    reachable,
    terminal_nodes,
)
from .sigterm import Gen, Id, Mu, Eta, Par, Seq, Signature, Sym, Term

EDGE = "edge"
IFACE = "interface"


@dataclass(frozen=True, order=True)
class Connection:
    """One attachment point of a node.

    kind "edge": index is the edge id, slot the endpoint position.
    kind "interface": index is the leg position, slot always 0.
    """

    kind: str
    index: int
    slot: int = 0


def edge_conn(eid: int, slot: int) -> Connection:
    return Connection(EDGE, eid, slot)


def iface_conn(pos: int) -> Connection:
    return Connection(IFACE, pos, 0)


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


def left_amonogamous_nodes(c: Cospan) -> frozenset[int]:
    """Nodes whose input connection count differs from exactly one."""
    if not is_right_monogamous(c):
        raise NotRightMonogamous("cospan is not right-monogamous")
    return frozenset(
        v for v in c.carrier.nodes if len(in_connections(c, v)) != 1
    )


def node_orders(c: Cospan) -> dict[int, int]:
    """Max count of merge-witnessing nodes on any path into each node,
    counting the node itself."""
    validate_right_monogamous_acyclic(c)
    la = left_amonogamous_nodes(c)
    topo = edge_topological_order(c.carrier)
    order = {v: (1 if v in la else 0) for v in c.carrier.nodes}
    for eid in topo:
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


def apply_cut(c: Cospan, cut: Cut) -> tuple[Cospan, FinFunction]:
    """Split a terminal node into one copy per partition block.

    Returns the new cospan and the map sending new output positions back to
    the old ones (composing with its merge undoes the cut).
    """
    v = cut.node
    if v not in c.carrier.nodes:
        raise UnknownNode(f"node {v} not in carrier")
    if v not in terminal_nodes(c.carrier):
        raise NotTerminal(f"node {v} has outgoing connections")
    k = len(cut.partition)
    if k < 1:
        raise PartitionMismatch("cut needs at least one block")
    expected = set(in_connections(c, v))
    seen: set[Connection] = set()
    for block in cut.partition:
        if block & seen:
            raise PartitionMismatch("partition blocks overlap")
        seen |= block
    if seen != expected:
        raise PartitionMismatch(
            f"blocks cover {sorted(seen)} but node {v} has {sorted(expected)}"
        )
    positions = [j for j, u in enumerate(c.right) if u == v]
    if len(positions) != 1:
        raise NotRightMonogamous(
            f"node {v} must appear exactly once in the output boundary"
        )
    pos = positions[0]
    base = max(c.carrier.nodes) + 1
    copies = tuple(base + i for i in range(k))
    conn_copy: dict[Connection, int] = {}
    for i, block in enumerate(cut.partition):
        for conn in block:
            conn_copy[conn] = copies[i]
    edges = {
        eid: Edge(
            e.label,
            e.sources,
            tuple(
                conn_copy.get(edge_conn(eid, i), t)
                for i, t in enumerate(e.targets)
            ),
        )
        for eid, e in c.carrier.edges.items()
    }
    left = tuple(
        conn_copy.get(iface_conn(p), u) for p, u in enumerate(c.left)
    )
    right = c.right[:pos] + copies + c.right[pos + 1 :]
    nodes = (c.carrier.nodes - {v}) | set(copies)
    n_old = len(c.right)
    table = tuple(
        j if j < pos else pos if j < pos + k else j - k + 1
        for j in range(n_old + k - 1)
    )
    recon = FinFunction(n_old + k - 1, n_old, table)
    return Cospan(Hypergraph(nodes, edges), left, right), recon


def complete_cut(
    c: Cospan, cuts: list[Cut]
) -> tuple[Cospan, FinFunction]:
    """Apply one cut per terminal node; reconnect maps compose blockwise."""
    if not is_right_monogamous(c):
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
    cur = c
    recon = FinFunction.identity(len(c.right))
    for v in c.right:
        if v in by_node:
            cur, r = apply_cut(cur, by_node[v])
            recon = r.compose(recon)
    return cur, recon


def one_cut(c: Cospan, v: int) -> Cut:
    """The trivial cut keeping all of v's input connections together."""
    return Cut(v, (frozenset(in_connections(c, v)),))


@dataclass(frozen=True)
class WeakDecomposition:
    """g cut into an upstream context, k passthrough wires beside the
    extracted inner cospan, and a downstream context."""

    upstream: Cospan
    passthrough: int
    extracted: Cospan
    downstream: Cospan

    def __iter__(self):
        yield self.upstream
        yield self.passthrough
        yield self.extracted
        yield self.downstream


def _endpoints(g: Hypergraph, eids) -> set[int]:
    out: set[int] = set()
    for eid in eids:
        e = g.edges[eid]
        out.update(e.sources)
        out.update(e.targets)
    return out


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
    if not _is_convex_image(g.carrier, sub.nodes, sub.edges):
        raise NotConvex("sub-hypergraph is not convex in the carrier")
    carrier = g.carrier
    l_nodes, l_edges = sub.nodes, sub.edges
    in_nodes = set(g.left)
    up_edges = {
        eid
        for eid in carrier.edges
        if eid not in l_edges
        and reachable(carrier, carrier.edges[eid].targets) & l_nodes
    }
    up_nodes = in_nodes | _endpoints(carrier, up_edges)
    down_edges = set(carrier.edges) - l_edges - up_edges
    down_nodes = set(g.right) | _endpoints(carrier, down_edges)

    t_shared = sorted(up_nodes & down_nodes & l_nodes)
    i_inner = sorted((up_nodes & l_nodes) - down_nodes)
    j_outer = sorted((down_nodes & l_nodes) - up_nodes)
    k_bypass = sorted((up_nodes & down_nodes) - l_nodes)
    shared = set(t_shared) | set(i_inner)

    external: dict[int, frozenset[Connection]] = {}
    for v in sorted(shared):
        external[v] = frozenset(
            conn
            for conn in in_connections(g, v)
            if not (conn.kind == EDGE and conn.index in l_edges)
        )
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
    up_carrier_edges = {}
    for eid in sorted(up_edges):
        e = carrier.edges[eid]
        up_carrier_edges[eid] = Edge(
            e.label,
            e.sources,
            tuple(
                redirect.get(edge_conn(eid, i), t)
                for i, t in enumerate(e.targets)
            ),
        )
    up_left = tuple(
        redirect.get(iface_conn(p), u) for p, u in enumerate(g.left)
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


def _fill_one_cuts(c: Cospan, cuts: list[Cut]) -> list[Cut]:
    by_node: dict[int, Cut] = {}
    for cut in cuts:
        if cut.node in by_node:
            raise InvalidInOutSignature(
                f"multiple cuts for node {cut.node}"
            )
        by_node[cut.node] = cut
    filled = []
    for v in sorted(terminal_nodes(c.carrier)):
        filled.append(by_node.pop(v, None) or one_cut(c, v))
    if by_node:
        raise InvalidInOutSignature(
            f"cuts name non-terminal nodes {sorted(by_node)}"
        )
    return filled


def _apply_edge_cuts(
    ext: Cospan, cuts: list[Cut]
) -> tuple[Hypergraph, tuple[int, ...], dict[int, tuple[int, ...]], FinFunction]:
    """Split extracted-part terminals along edge connections only.

    Input-boundary attachments are resolved later by the gluing map, so the
    returned pieces are a carrier, the expanded output boundary, the copies
    of each cut node, and the output reconnect map.
    """
    by_node: dict[int, Cut] = {}
    for cut in cuts:
        if cut.node in by_node:
            raise InvalidInOutSignature(f"multiple cuts for node {cut.node}")
        by_node[cut.node] = cut
    terms = terminal_nodes(ext.carrier)
    for v, cut in by_node.items():
        if v not in terms:
            raise InvalidInOutSignature(f"node {v} is not terminal")
        edge_conns = {
            conn for conn in in_connections(ext, v) if conn.kind == EDGE
        }
        seen: set[Connection] = set()
        for block in cut.partition:
            for conn in block:
                if conn.kind != EDGE:
                    raise InvalidInOutSignature(
                        "output-side cuts partition edge connections only"
                    )
            if block & seen:
                raise InvalidInOutSignature("partition blocks overlap")
            seen |= set(block)
        if seen != edge_conns:
            raise InvalidInOutSignature(
                f"blocks cover {sorted(seen)} but node {v} has edge "
                f"connections {sorted(edge_conns)}"
            )
    carrier = ext.carrier
    right = ext.right
    base = max(carrier.nodes, default=-1) + 1
    copies_of: dict[int, tuple[int, ...]] = {}
    recon = FinFunction.identity(len(right))
    for v in ext.right:
        cut = by_node.get(v)
        if cut is None:
            edge_conns = frozenset(
                conn for conn in in_connections(ext, v) if conn.kind == EDGE
            )
            cut = Cut(v, (edge_conns,))
        k = len(cut.partition)
        copies = tuple(base + i for i in range(k))
        base += k
        conn_copy = {
            conn: copies[i]
            for i, block in enumerate(cut.partition)
            for conn in block
        }
        edges = {
            eid: Edge(
                e.label,
                e.sources,
                tuple(
                    conn_copy.get(edge_conn(eid, i), t)
                    for i, t in enumerate(e.targets)
                ),
            )
            for eid, e in carrier.edges.items()
        }
        nodes = (carrier.nodes - {v}) | set(copies)
        carrier = Hypergraph(nodes, edges)
        pos = right.index(v)
        n_old = len(right)
        right = right[:pos] + copies + right[pos + 1 :]
        table = tuple(
            j if j < pos else pos if j < pos + k else j - k + 1
            for j in range(n_old + k - 1)
        )
        recon = FinFunction(n_old + k - 1, n_old, table).compose(recon)
        copies_of[v] = copies
    return carrier, right, copies_of, recon


def _strong_parts(weak, inout):
    up, k, ext, down = weak
    omega_in, omega_out = inout
    k_nodes = set(up.right[:k])
    for cut in omega_in:
        if cut.node in k_nodes and len(cut.partition) != 1:
            raise InvalidInOutSignature(
                f"node {cut.node} feeds a passthrough wire and cannot be "
                "split"
            )
    up_cut, recon_in = complete_cut(up, _fill_one_cuts(up, omega_in))
    cut_carrier, cut_right, copies_of, recon_out = _apply_edge_cuts(
        ext, omega_out
    )
    for q in range(len(up_cut.right)):
        if (recon_in.table[q] < k) != (q < k):
            raise InvalidInOutSignature(
                "passthrough wires must stay in the leading positions"
            )
    return up_cut, recon_in, cut_carrier, cut_right, copies_of, recon_out


def gluing_choice_points(weak, inout) -> dict[int, int]:
    """Positions in the middle factor's input boundary that need a gluing
    choice, mapped to how many copies they can attach to."""
    up, k, ext, down = weak
    up_cut, recon_in, _, _, copies_of, _ = _strong_parts(weak, inout)
    out = {}
    for q in range(k, len(up_cut.right)):
        lnode = ext.left[recon_in.table[q] - k]
        copies = copies_of.get(lnode)
        if copies is not None and len(copies) > 1:
            out[q - k] = len(copies)
    return out


def strong_decompose(
    weak, inout, gluing: dict | None = None
) -> tuple[Cospan, Cospan, Cospan]:
    """Refine a weak decomposition by cutting both boundary sides.

    ``inout`` is a pair (input-side cuts on the upstream cospan, output-side
    cuts on the extracted cospan); omitted terminals get trivial cuts.
    ``gluing`` picks, per choice position, which copy of a cut node each
    input-boundary attachment of the middle factor uses.
    """
    up, k, ext, down = weak
    gluing = dict(gluing or {})
    up_cut, recon_in, cut_carrier, cut_right, copies_of, recon_out = (
        _strong_parts(weak, inout)
    )
    n_mid = len(up_cut.right)
    for key in gluing:
        if not 0 <= key < n_mid - k:
            raise IncompatibleGluing(f"gluing position {key} out of range")
    wire_base = max(cut_carrier.nodes, default=-1) + 1
    wires = tuple(wire_base + i for i in range(k))
    mid_left = list(wires)
    for q in range(k, n_mid):
        lnode = ext.left[recon_in.table[q] - k]
        copies = copies_of.get(lnode)
        pos = q - k
        if copies is None:
            if gluing.get(pos, 0) != 0:
                raise IncompatibleGluing(
                    f"position {pos} attaches to an uncut node"
                )
            mid_left.append(lnode)
        elif len(copies) == 1:
            if gluing.get(pos, 0) != 0:
                raise IncompatibleGluing(
                    f"position {pos} has a single copy to attach to"
                )
            mid_left.append(copies[0])
        else:
            if pos not in gluing:
                raise IncompatibleGluing(
                    f"position {pos} needs a gluing choice among "
                    f"{len(copies)} copies"
                )
            idx = gluing[pos]
            if not 0 <= idx < len(copies):
                raise IncompatibleGluing(
                    f"gluing index {idx} at position {pos} out of range"
                )
            mid_left.append(copies[idx])
    mid_nodes = cut_carrier.nodes | set(wires)
    middle = Cospan(
        Hypergraph(mid_nodes, cut_carrier.edges),
        tuple(mid_left),
        wires + cut_right,
    )
    down_left = tuple(down.left[p] for p in range(k)) + tuple(
        down.left[k + recon_out.table[j]] for j in range(len(cut_right))
    )
    third = Cospan(down.carrier, down_left, down.right)
    return up_cut, middle, third


def recompose_strong(parts: tuple[Cospan, Cospan, Cospan]) -> Cospan:
    a, b, c = parts
    return compose(compose(a, b), c)


@dataclass(frozen=True)
class LevelSplit:
    """One peeled level: a monogamous slice, k passthrough wires, a discrete
    merge layer, and the remainder."""

    slice: Cospan
    passthrough: int
    merges: Cospan
    remainder: Cospan

    def __iter__(self):
        yield self.slice
        yield self.passthrough
        yield self.merges
        yield self.remainder


def level0_decompose(g: Cospan) -> LevelSplit:
    """Peel off the level-0 edges and order-1 merge nodes."""
    validate_right_monogamous_acyclic(g)
    orders = node_orders(g)
    la = left_amonogamous_nodes(g)
    levels = edge_levels(g)
    k = sum(1 for v in g.right if orders[v] == 0)
    if any(orders[v] != 0 for v in g.right[:k]) or any(
        orders[v] == 0 for v in g.right[k:]
    ):
        raise BadInterfaceOrder(
            "order-0 output nodes must occupy the leading positions"
        )
    e0 = {eid for eid, lvl in levels.items() if lvl == 0}
    visible: dict[int, tuple[Connection, ...]] = {}
    for v in sorted(la):
        visible[v] = tuple(
            conn
            for conn in in_connections(g, v)
            if conn.kind == IFACE or conn.index in e0
        )
    base = max(g.carrier.nodes, default=-1) + 1
    wire_of: dict[tuple[int, Connection], int] = {}
    wires_in_order: list[tuple[int, Connection]] = []
    for v in sorted(la):
        for conn in visible[v]:
            wire_of[(v, conn)] = base
            wires_in_order.append((v, conn))
            base += 1
    order0 = {v for v in g.carrier.nodes if orders[v] == 0}
    m_edges = {}
    for eid in sorted(e0):
        e = g.carrier.edges[eid]
        m_edges[eid] = Edge(
            e.label,
            e.sources,
            tuple(
                wire_of.get((t, edge_conn(eid, i)), t)
                for i, t in enumerate(e.targets)
            ),
        )
    m_left = tuple(
        wire_of.get((u, iface_conn(p)), u) for p, u in enumerate(g.left)
    )
    passed = sorted(
        u
        for u in order0
        if any(
            u in g.carrier.edges[eid].sources
            for eid in g.carrier.edges
            if eid not in e0
        )
    )
    m_right = (
        g.right[:k]
        + tuple(wire_of[key] for key in wires_in_order)
        + tuple(passed)
    )
    m_nodes = order0 | set(wire_of.values())
    slice_ = Cospan(Hypergraph(m_nodes, m_edges), m_left, m_right)

    order1 = [v for v in sorted(la) if orders[v] == 1]
    merge_id = {v: i for i, v in enumerate(order1)}
    nid = len(order1)
    d_left: list[int] = []
    d_right_passes: list[int] = []
    gp_left_passes: list[int] = []
    for v, conn in wires_in_order:
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


def factorise_into_levels(g: Cospan) -> LevelFactorisation:
    """Stratify a cospan into levels of increasing merge depth."""
    validate_right_monogamous_acyclic(g)
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


def recompose_levels(lf: LevelFactorisation) -> Cospan:
    t = identity_cospan(0)
    for f in reversed(lf.factors):
        t = compose(
            f.slice,
            tensor(identity_cospan(f.passthrough), compose(f.merges, t)),
        )
    return compose(t, function_to_cospan(lf.perm))


def alternating_factors(lf: LevelFactorisation) -> tuple[Cospan, ...]:
    """Flatten into a strict slice/merge alternation whose sequential
    composite equals the original cospan."""
    out: list[Cospan] = []
    offset = 0
    for f in lf.factors:
        out.append(tensor(identity_cospan(offset), f.slice))
        offset += f.passthrough
        out.append(tensor(identity_cospan(offset), f.merges))
    out[-1] = compose(out[-1], function_to_cospan(lf.perm))
    return tuple(out)


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


def perm_term(perm: FinFunction) -> Term:
    """A generator-free term denoting the given permutation."""
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
            layers.append(_swap_layer(n, idx))
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
    if count == 0:
        return Eta()
    if count == 1:
        return Id(1)
    if count == 2:
        return Mu()
    return Seq(_par2(Id(1), _merge_tree(count - 1)), Mu())


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


def _monogamous_readback(m: Cospan, sig: Signature) -> Term:
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
        ready = [
            eid
            for eid in sorted(remaining)
            if all(s in wires for s in m.carrier.edges[eid].sources)
        ]
        eid = ready[0]
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
    """A term that evaluates back to g up to isomorphism."""
    lf = factorise_into_levels(g)
    term: Term = Id(0)
    for f in reversed(lf.factors):
        d_term = fn_to_cmon_term(cospan_to_function(f.merges))
        inner = _seq2(d_term, term)
        term = _seq2(
            _monogamous_readback(f.slice, sig),
            _par2(Id(f.passthrough), inner),
        )
    return _seq2(term, perm_term(lf.perm))
