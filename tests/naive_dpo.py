"""The full product of in-slot picks that boundary_complement replaced,
kept as the reference it is tested against: every surviving in-connection
at a boundary node picks any copy of that node, independently, so n twin
producers feeding a node with two copies give 2^n candidates, each one
built, validated and keyed. Also the validity check by isomorphism alone,
which every complement boundary_complement returns must pass, leftmost
normalisation by the first step of rewrite_all, and rewrite results glued
into each complement by a pushout, as they were built before they came
straight from the match's cut."""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from cmonrw import dpo
from cmonrw.cospan import (
    Connection,
    Cospan,
    edge_conn,
    iface_conn,
    is_right_monogamous,
    iso_equal,
    reattach,
)
from cmonrw.dpo import (
    Complement,
    Match,
    RewriteRule,
    apply_rewrite,
    boundary_complement,
    enumerate_convex_matches,
    rewrite_all,
)
from cmonrw.errors import (
    Cyclic,
    DanglingEdge,
    ResultNotRightMonogamous,
    UnknownNode,
)
from cmonrw.hypergraph import Edge, Hypergraph, canonical_form


def complement_key(comp: Complement) -> tuple:
    """Canonical identity of a complement with all four node lists pinned:
    the order boundary_complement kept before it sorted by
    cospan_order_key."""
    return (
        len(comp.c1),
        len(comp.c2),
        len(comp.d1),
        len(comp.d2),
        canonical_form(
            comp.carrier, comp.c1 + comp.c2 + comp.d1 + comp.d2
        ),
    )


def full_product_complements(match: Match, host: Cospan) -> list[Complement]:
    """boundary_complement as it was before twin producers were grouped.
    Validity goes through dpo.complement_is_valid, so a test that wraps
    that name counts the calls made here too."""
    rule = match.rule
    g = host.carrier
    a1_img = [match.hom.node_map[v] for v in rule.lhs.left]
    a2_img = [match.hom.node_map[v] for v in rule.lhs.right]
    boundary = set(a1_img) | set(a2_img)
    img_nodes = set(match.hom.node_map.values())
    img_edges = set(match.hom.edge_map.values())
    deleted = img_nodes - boundary

    remaining = {
        eid: e for eid, e in g.edges.items() if eid not in img_edges
    }
    for eid in sorted(remaining):
        e = remaining[eid]
        for v in e.sources + e.targets:
            if v in deleted:
                raise DanglingEdge(
                    f"edge {eid} touches deleted node {v}"
                )
    for v in host.left + host.right:
        if v in deleted:
            raise DanglingEdge(f"host interface touches deleted node {v}")

    base = max(g.nodes) + 1 if g.nodes else 0
    c1 = tuple(range(base, base + len(a1_img)))
    c2_of: dict[int, int] = {}
    for w in sorted(set(a2_img)):
        c2_of[w] = base + len(a1_img) + len(c2_of)
    c2 = tuple(c2_of[w] for w in a2_img)

    for eid in sorted(remaining):
        for v in remaining[eid].sources:
            if v in boundary and v not in c2_of:
                return []
    for v in host.right:
        if v in boundary and v not in c2_of:
            return []

    def copies(v: int) -> list[int]:
        opts = [c1[z] for z, w in enumerate(a1_img) if w == v]
        if v in c2_of:
            opts.append(c2_of[v])
        return opts

    in_slots: dict[Connection, int] = {}
    for eid in sorted(remaining):
        for si, v in enumerate(remaining[eid].targets):
            if v in boundary:
                in_slots[edge_conn(eid, si)] = v
    for p, v in enumerate(host.left):
        if v in boundary:
            in_slots[iface_conn(p)] = v

    carrier_nodes = (
        frozenset(g.nodes - img_nodes)
        | frozenset(c1)
        | frozenset(c2_of.values())
    )
    out_edges = {
        eid: Edge(
            e.label,
            tuple(c2_of[v] if v in boundary else v for v in e.sources),
            e.targets,
        )
        for eid, e in sorted(remaining.items())
    }
    d2 = tuple(c2_of[v] if v in boundary else v for v in host.right)
    valid: list[Complement] = []
    for picks in itertools.product(*map(copies, in_slots.values())):
        edges, d1 = reattach(out_edges, host.left, dict(zip(in_slots, picks)))
        comp = Complement(
            Hypergraph(carrier_nodes, edges), c1, c2, d1, d2
        )
        if dpo.complement_is_valid(match, host, comp):
            valid.append(comp)
    if len(valid) <= 1:
        return valid
    found: dict[tuple, Complement] = {}
    for comp in valid:
        found.setdefault(complement_key(comp), comp)
    return [found[k] for k in sorted(found)]


def reference_complement_is_valid(match, host, comp) -> bool:
    """The validity check by isomorphism alone: the same structural checks,
    then a canonical-form comparison of the re-glued lhs with the host."""
    rule = match.rule
    if len(comp.c1) != rule.lhs.arity or len(comp.c2) != rule.lhs.coarity:
        return False
    if len(comp.d1) != host.arity or len(comp.d2) != host.coarity:
        return False
    if len(set(comp.c1)) != len(comp.c1) or set(comp.c1) & set(comp.c2):
        return False
    try:
        rearranged = Cospan(
            comp.carrier, comp.d1 + comp.c2, comp.d2 + comp.c1
        )
    except UnknownNode:
        return False
    if not is_right_monogamous(rearranged):
        return False
    # gluing a rule's rhs is the same pushout; a malformed result cannot
    # be isomorphic to the well-formed host
    try:
        glued = apply_rewrite(RewriteRule(rule.lhs, rule.lhs), match, comp)
    except (ResultNotRightMonogamous, Cyclic):
        return False
    return iso_equal(glued, host)


def leftmost_trace(
    rules: list[RewriteRule], host: Cospan, max_steps: int
) -> tuple[list[Cospan], bool]:
    """Leftmost normalisation as it was before matches were pulled lazily:
    every step enumerates and keys all rewrites and follows the first.
    Returns the trace of at most max_steps steps, and whether its last
    cospan is still reducible."""
    trace = [host]
    while True:
        steps = rewrite_all(rules, trace[-1])
        if not steps or len(trace) - 1 == max_steps:
            return trace, bool(steps)
        trace.append(steps[0].result)


def glued_results(
    rules: list[RewriteRule], host: Cospan
) -> Iterator[tuple[RewriteRule, Match, int, Complement, Cospan]]:
    """(rule, match, index, complement, result) for every complement of
    every convex match, rule by rule, in rewriting's order: index is the
    complement's place in boundary_complement's list, and the result is
    the rhs glued into it by a pushout and checked (apply_rewrite)."""
    for rule in rules:
        for match in enumerate_convex_matches(rule, host):
            try:
                comps = boundary_complement(match, host)
            except DanglingEdge:
                continue
            for index, comp in enumerate(comps):
                yield rule, match, index, comp, apply_rewrite(
                    rule, match, comp
                )
