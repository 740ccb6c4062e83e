"""Weakly convex double-pushout rewriting: rules over cospan pairs, convex
match enumeration, boundary complement search, and rewrite strategies."""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .cospan import (
    Connection,
    Cospan,
    cospan_key,
    cospan_order_key,
    edge_conn,
    iface_conn,
    is_right_monogamous,
    iso_equal,
    pushout,
    reattach,
    validate_right_monogamous_acyclic,
)
from .errors import (
    Cyclic,
    DanglingEdge,
    InterfaceMismatch,
    ResultNotRightMonogamous,
    StepBudgetExhausted,
    TermSyntaxError,
    TypeMismatch,
    UnknownNode,
)
from .hypergraph import (
    Edge,
    Homomorphism,
    Hypergraph,
    is_acyclic,
    is_convex,
    iter_homomorphisms,
)
from .sigterm import Signature, parse_term, term_type
from .translate import eval_term


@dataclass(frozen=True)
class RewriteRule:
    """A pair of right-monogamous acyclic cospans over shared interfaces."""

    lhs: Cospan
    rhs: Cospan
    name: str = "rule"

    def __post_init__(self):
        if (self.lhs.arity, self.lhs.coarity) != (
            self.rhs.arity,
            self.rhs.coarity,
        ):
            raise InterfaceMismatch(
                f"rule {self.name!r}: lhs is "
                f"{self.lhs.arity}->{self.lhs.coarity} but rhs is "
                f"{self.rhs.arity}->{self.rhs.coarity}"
            )
        validate_right_monogamous_acyclic(self.lhs)
        validate_right_monogamous_acyclic(self.rhs)


@dataclass(frozen=True)
class Match:
    """A homomorphism from a rule's lhs carrier with convex image, merging
    nodes only inside the lhs output interface."""

    rule: RewriteRule
    hom: Homomorphism


@dataclass(frozen=True)
class Complement:
    """The host minus a match image, with fresh gluing nodes per interface.

    c1/c2 receive the rule's input/output interfaces when a side is glued
    back in; d1/d2 carry the host's own interfaces."""

    carrier: Hypergraph
    c1: tuple[int, ...]
    c2: tuple[int, ...]
    d1: tuple[int, ...]
    d2: tuple[int, ...]


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite: rule, where it matched, what remained, result."""

    rule: RewriteRule
    match: Match
    complement: Complement
    result: Cospan
    key: tuple  # cospan_key(result), the key steps are deduplicated by


def enumerate_convex_matches(rule: RewriteRule, host: Cospan) -> list[Match]:
    """All lhs homomorphisms whose image is convex; node identifications are
    permitted only between lhs output-interface nodes."""
    validate_right_monogamous_acyclic(host)
    return list(_convex_matches(rule, host))


def _convex_matches(rule: RewriteRule, host: Cospan) -> Iterator[Match]:
    """enumerate_convex_matches' matches into a validated host, lazily."""
    g, merge_allowed = host.carrier, frozenset(rule.lhs.right)
    for hom in iter_homomorphisms(rule.lhs.carrier, g, merge_allowed):
        img_nodes = set(hom.node_map.values())
        img_edges = set(hom.edge_map.values())
        if is_convex(g, img_nodes, img_edges):
            yield Match(rule, hom)


def complement_is_valid(
    match: Match, host: Cospan, comp: Complement
) -> bool:
    """Injective c1, disjoint c1/c2 images, right-monogamous rearrangement,
    and gluing the lhs back must give a cospan isomorphic to the host.

    This is the definition, checked as written: boundary_complement builds
    its candidates valid by construction and does not call it, so it
    serves complements built some other way, such as hand-made or mutated
    ones."""
    rule = match.rule
    if len(comp.c1) != rule.lhs.arity or len(comp.c2) != rule.lhs.coarity:
        return False
    if len(comp.d1) != host.arity or len(comp.d2) != host.coarity:
        return False
    if len(set(comp.c1)) != len(comp.c1):
        return False
    if set(comp.c1) & set(comp.c2):
        return False
    try:
        rearranged = Cospan(
            comp.carrier, comp.d1 + comp.c2, comp.d2 + comp.c1
        )
    except UnknownNode:
        return False
    if not is_right_monogamous(rearranged):
        return False
    return iso_equal(_glue_into_complement(rule.lhs, comp), host)


def boundary_complement(match: Match, host: Cospan) -> list[Complement]:
    """Every valid complement for the match, deterministically ordered.

    The match image is cut out; each boundary node is replaced by fresh
    copies (one c1 copy per lhs input position, one shared c2 copy per
    output-image node). Surviving out-connections must land on the c2 copy;
    each surviving in-connection picks any copy, and every combination is
    a complement.

    Combinations are built once per symmetry class of twin producers:
    remaining edges with equal label, sources and targets. Swapping two
    twins fixes every node, so it is an automorphism of the host that
    fixes both interfaces and the match, and candidates that differ only
    by permuting the twins' per-edge picks are isomorphic and equally
    keyed. Each class contributes one candidate per multiset of per-edge
    picks, laid out in non-decreasing order along the twins' edge ids:
    the lexicographically first pick vector of its orbit. The candidates
    are taken in lexicographic order of their pick vectors, so each key
    keeps the representative the full product of picks would keep: n+1
    candidates instead of 2^n where n twins feed a node with two copies.

    Every candidate is valid by construction. c1 and c2 are fresh,
    distinct and disjoint, and match.hom plus the identity maps the
    re-glued lhs onto the host. Right-monogamy of (d1 + c2, d2 + c1)
    reads only edge sources and d2 + c1, which no pick moves, so it is
    checked once per match. Several candidates are deduplicated and sorted
    by cospan_order_key with c1 + c2 as left and d1 + d2 as right, which
    pins all four node lists, as the match fixes every length."""
    rule = match.rule
    g = host.carrier
    a1_img = [match.hom.node_map[v] for v in rule.lhs.left]
    a2_img = [match.hom.node_map[v] for v in rule.lhs.right]
    boundary = set(a1_img) | set(a2_img)
    img_nodes = set(match.hom.node_map.values())
    img_edges = set(match.hom.edge_map.values())
    deleted = img_nodes - boundary

    base = max(g.nodes) + 1 if g.nodes else 0
    c1 = tuple(range(base, base + len(a1_img)))
    c2_of: dict[int, int] = {}
    for w in sorted(set(a2_img)):
        c2_of[w] = base + len(a1_img) + len(c2_of)
    c2 = tuple(c2_of[w] for w in a2_img)

    def copies(v: int) -> list[int]:
        opts = [c1[z] for z, w in enumerate(a1_img) if w == v]
        if v in c2_of:
            opts.append(c2_of[v])
        return opts

    # One pass over the surviving edges in id order. None may touch a
    # deleted node. An out-connection at a boundary node moves to its c2
    # copy, and blocks the match when there is none; an edge with no such
    # source keeps its Edge object. Each in-connection at a boundary node
    # is an in-slot, grouped in per-producer blocks: twins share one
    # entry, and each left-interface slot is an entry of its own.
    in_slots: dict[Connection, int] = {}
    producers: dict[Edge | Connection, list[list[Connection]]] = {}
    out_edges: dict[int, Edge] = {}
    blocked = False
    for eid, e in sorted(g.edges.items()):
        if eid in img_edges:
            continue
        for v in e.sources + e.targets:
            if v in deleted:
                raise DanglingEdge(f"edge {eid} touches deleted node {v}")
        sources = tuple(c2_of.get(v, v) for v in e.sources)
        blocked = blocked or not boundary.isdisjoint(sources)
        out_edges[eid] = (
            e if sources == e.sources else Edge(e.label, sources, e.targets)
        )
        block = [
            edge_conn(eid, si)
            for si, v in enumerate(e.targets)
            if v in boundary
        ]
        for conn in block:
            in_slots[conn] = e.targets[conn.slot]
        if block:
            producers.setdefault(e, []).append(block)
    for v in host.left + host.right:
        if v in deleted:
            raise DanglingEdge(f"host interface touches deleted node {v}")
    d2 = tuple(c2_of.get(v, v) for v in host.right)
    if blocked or not boundary.isdisjoint(d2):
        return []
    for p, v in enumerate(host.left):
        if v in boundary:
            in_slots[iface_conn(p)] = v
            producers[iface_conn(p)] = [[iface_conn(p)]]

    def orbit_picks(blocks: list[list[Connection]]) -> list[list[tuple]]:
        """One list of (in-slot, copy) pairs per multiset of per-block
        picks, the picks in non-decreasing order along the blocks."""
        nodes = [in_slots[c] for c in blocks[0]]
        options = itertools.product(*map(copies, nodes))
        return [
            [pair for b, pick in zip(blocks, ms) for pair in zip(b, pick)]
            for ms in itertools.combinations_with_replacement(
                options, len(blocks)
            )
        ]

    classes = map(orbit_picks, producers.values())
    assignments = sorted(
        (
            dict(itertools.chain.from_iterable(parts))
            for parts in itertools.product(*classes)
        ),
        key=lambda to: [to[c] for c in in_slots],
    )

    carrier_nodes = (
        frozenset(g.nodes - img_nodes)
        | frozenset(c1)
        | frozenset(c2_of.values())
    )
    comps: list[Complement] = []
    for to in assignments:
        edges, d1 = reattach(out_edges, host.left, to)
        comps.append(
            Complement(Hypergraph(carrier_nodes, edges), c1, c2, d1, d2)
        )
    if not is_right_monogamous(Cospan(comps[0].carrier, (), d2 + c1)):
        return []
    if len(comps) == 1:
        return comps
    found: dict[tuple, Complement] = {}
    for comp in comps:
        pinned = Cospan(comp.carrier, comp.c1 + comp.c2, comp.d1 + comp.d2)
        found.setdefault(cospan_order_key(pinned), comp)
    return [found[k] for k in sorted(found)]


def _glue_into_complement(cos: Cospan, comp: Complement) -> Cospan:
    """The pushout of one rule side into a complement: cos's interfaces are
    glued onto c1/c2 positionwise and the result keeps d1/d2 as its own."""
    pairs = itertools.chain(
        zip(cos.left, comp.c1, strict=True),
        zip(cos.right, comp.c2, strict=True),
    )
    g, _, rename = pushout(cos.carrier, comp.carrier, pairs)
    return Cospan(
        g,
        tuple(map(rename.__getitem__, comp.d1)),
        tuple(map(rename.__getitem__, comp.d2)),
    )


def apply_rewrite(
    rule: RewriteRule, match: Match, complement: Complement
) -> Cospan:
    """Glue the rhs into a validated complement; the result keeps its
    checks, so steps from it do not repeat them."""
    result = _glue_into_complement(rule.rhs, complement)
    if not result.right_monogamous:
        raise ResultNotRightMonogamous(
            f"rule {rule.name!r} produced a non-right-monogamous result"
        )
    if not is_acyclic(result.carrier):
        raise Cyclic(f"rule {rule.name!r} produced a cyclic result")
    return result


def _results(rules: list[RewriteRule], host: Cospan) -> Iterator:
    """(rule, match, complement, result) for each complement of each convex
    match into a validated host, rule by rule, built only when asked for."""
    for rule in rules:
        for match in _convex_matches(rule, host):
            try:
                comps = boundary_complement(match, host)
            except DanglingEdge:
                continue
            for comp in comps:
                yield rule, match, comp, apply_rewrite(rule, match, comp)


def iter_rewrites(
    rules: list[RewriteRule], host: Cospan
) -> Iterator[RewriteStep]:
    """Every one-step rewrite from every rule, iso-deduplicated by result,
    yielded lazily in rewrite_all's order: each step is built only when it
    is asked for, and the host is validated when iteration starts."""
    validate_right_monogamous_acyclic(host)
    seen: set[tuple] = set()
    for rule, match, comp, result in _results(rules, host):
        key = cospan_key(result)
        if key not in seen:
            seen.add(key)
            yield RewriteStep(rule, match, comp, result, key)


def rewrite_all(
    rules: list[RewriteRule], host: Cospan
) -> list[RewriteStep]:
    """Every one-step rewrite from every rule, iso-deduplicated by result."""
    return list(iter_rewrites(rules, host))


def _in_output_order(normals: dict[tuple, Cospan]) -> list[Cospan]:
    """The normal forms sorted by cospan_order_key, which is computed only
    when there are several."""
    forms = list(normals.values())
    if len(forms) > 1:
        forms.sort(key=cospan_order_key)
    return forms


def normalize(
    rules: list[RewriteRule],
    host: Cospan,
    strategy: str = "bfs",
    max_steps: int = 100,
) -> list[Cospan]:
    """Rewrite to normal forms within a step budget (max_steps >= 0).

    leftmost follows the first available step, found lazily and never
    keyed, and returns one endpoint; bfs returns all iso-distinct normal
    forms reachable in at most max_steps steps, in cospan_order_key order.
    StepBudgetExhausted reports leftover work."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    validate_right_monogamous_acyclic(host)
    if strategy == "leftmost":
        trace = [host]
        while True:
            step = next(_results(rules, trace[-1]), None)
            if step is None:
                return [trace[-1]]
            if len(trace) - 1 == max_steps:
                raise StepBudgetExhausted(
                    f"leftmost rewriting still reducible after "
                    f"{max_steps} steps",
                    trace=trace,
                )
            trace.append(step[-1])
    if strategy == "bfs":
        host_key = cospan_key(host)
        seen = {host_key}
        layer = [(host_key, host)]
        normals: dict[tuple, Cospan] = {}
        for depth in range(max_steps + 1):
            nxt: list[tuple[tuple, Cospan]] = []
            overflow: list[Cospan] = []
            for key, c in layer:
                steps = rewrite_all(rules, c)
                if not steps:
                    normals.setdefault(key, c)
                elif depth == max_steps:
                    overflow.append(c)
                else:
                    for s in steps:
                        if s.key not in seen:
                            seen.add(s.key)
                            nxt.append((s.key, s.result))
            if overflow:
                raise StepBudgetExhausted(
                    f"{len(overflow)} reducible cospans left at depth "
                    f"{max_steps}",
                    frontier=overflow,
                    normal_forms=_in_output_order(normals),
                )
            layer = nxt
            if not layer:
                break
        return _in_output_order(normals)
    raise ValueError(f"unknown strategy {strategy!r}")


_RULE_RE = re.compile(
    r"^rule\s+([A-Za-z_][\w-]*)\s*:\s*(.+?)\s*=>\s*(.+?)\s*$"
)


def parse_rule_terms(text: str, sig: Signature) -> list[tuple]:
    """Parse `rule <name> : <term> => <term>` lines into (name, lhs, rhs)
    term triples; # starts a comment."""
    triples: list[tuple] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RULE_RE.match(line)
        if m is None:
            raise TermSyntaxError(
                f"bad rule line {lineno}: {raw!r}", location=lineno
            )
        name, lhs_src, rhs_src = m.groups()
        if name in names:
            raise TermSyntaxError(
                f"duplicate rule name {name!r}", location=lineno
            )
        names.add(name)
        lhs_term = parse_term(lhs_src, sig)
        rhs_term = parse_term(rhs_src, sig)
        if term_type(lhs_term) != term_type(rhs_term):
            raise TypeMismatch(
                f"rule {name!r}: sides have types "
                f"{term_type(lhs_term)} and {term_type(rhs_term)}"
            )
        triples.append((name, lhs_term, rhs_term))
    return triples


def parse_rules(text: str, sig: Signature) -> list[RewriteRule]:
    """Parse a rule file and translate both sides to cospans."""
    return [
        RewriteRule(eval_term(lhs, sig), eval_term(rhs, sig), name)
        for name, lhs, rhs in parse_rule_terms(text, sig)
    ]
