"""Weakly convex double-pushout rewriting: rules over cospan pairs, convex
match enumeration, boundary complement search, and rewrite strategies."""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    renamed_edges,
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
    """One applied rewrite: rule, where it matched, result. complement,
    built when first read, is the one the result was glued into: element
    index of boundary_complement(match, host)."""

    rule: RewriteRule
    match: Match
    result: Cospan
    key: tuple  # cospan_key(result), the key steps are deduplicated by
    host: Cospan
    index: int

    @cached_property
    def complement(self) -> Complement:
        return boundary_complement(self.match, self.host)[self.index]


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


class _Cut(NamedTuple):
    """A match cut out of its host: what every complement of the match
    shares, and the in-slot picks that tell them apart.

    survivors are the host nodes outside the match image, sorted; edges
    are the surviving host edges in id order, each out-connection at a
    boundary node moved to its c2 copy and each in-connection there not
    yet picked; picks are the candidates' assignments of in-slots to
    copies, in boundary_complement's order before deduplication."""

    survivors: tuple[int, ...]
    edges: dict[int, Edge]
    left: tuple[int, ...]
    c1: tuple[int, ...]
    c2: tuple[int, ...]
    d2: tuple[int, ...]
    picks: list[dict[Connection, int]]

    def complement(self, to: dict[Connection, int]) -> Complement:
        """The complement that the assignment picks."""
        edges, d1 = reattach(self.edges, self.left, to)
        nodes = frozenset(self.survivors).union(self.c1, self.c2)
        return Complement(
            Hypergraph(nodes, edges), self.c1, self.c2, d1, self.d2
        )


def _cut(match: Match, host: Cospan) -> _Cut | None:
    """The match cut out of the host, or None when it has no complement.

    The match image is cut out; each boundary node is replaced by fresh
    copies (one c1 copy per lhs input position, one shared c2 copy per
    output-image node). Surviving out-connections must land on the c2 copy;
    each surviving in-connection picks any copy, and every combination is
    a complement. Only the edges at image nodes change, so they are read
    from the host's incidence index.

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

    A match has complements only in a right-monogamous host, and there
    every candidate's rearrangement (d1 + c2, d2 + c1) is right-monogamous,
    so the cut reads the host's flag once. The check counts each node's
    consumers, edge sources and right positions, which no pick moves. The
    lhs is right-monogamous and a match merges only lhs outputs, so no
    image edge consumes an output image node, and an image edge consumes
    every other input image node. A surviving node keeps its consumers, a
    c1 copy has one (its c1 position), and a c2 copy has its node's. So a
    host that fails the check makes every candidate fail it, or has an
    out-connection at a node without a c2 copy, which no candidate can
    take."""
    rule = match.rule
    g = host.carrier
    ins, outs = g.index
    a1_img = [match.hom.node_map[v] for v in rule.lhs.left]
    a2_img = [match.hom.node_map[v] for v in rule.lhs.right]
    boundary = set(a1_img) | set(a2_img)
    img_nodes = set(match.hom.node_map.values())
    img_edges = set(match.hom.edge_map.values())
    deleted = img_nodes - boundary

    stranded = [
        eid
        for v in deleted
        for eid, _ in ins[v] + outs[v]
        if eid not in img_edges
    ]
    if stranded:
        eid = min(stranded)
        e = g.edges[eid]
        v = next(v for v in e.sources + e.targets if v in deleted)
        raise DanglingEdge(f"edge {eid} touches deleted node {v}")
    for v in host.left + host.right:
        if v in deleted:
            raise DanglingEdge(f"host interface touches deleted node {v}")
    if not host.right_monogamous:
        return None

    base = max(g.nodes) + 1 if g.nodes else 0
    c1 = tuple(range(base, base + len(a1_img)))
    c2_of: dict[int, int] = {}
    for w in sorted(set(a2_img)):
        c2_of[w] = base + len(a1_img) + len(c2_of)
    c2 = tuple(c2_of[w] for w in a2_img)
    d2 = tuple(c2_of.get(v, v) for v in host.right)

    edges = dict(sorted(g.edges.items()))
    for eid in img_edges:
        del edges[eid]
    for w in c2_of:
        for eid, _ in outs[w]:
            if eid not in img_edges:
                e = edges[eid]
                sources = tuple(c2_of.get(v, v) for v in e.sources)
                edges[eid] = Edge(e.label, sources, e.targets)

    def copies(v: int) -> list[int]:
        opts = [c1[z] for z, w in enumerate(a1_img) if w == v]
        if v in c2_of:
            opts.append(c2_of[v])
        return opts

    # Each in-connection at a boundary node is an in-slot, grouped in
    # per-producer blocks: twins share one entry, and each left-interface
    # slot is an entry of its own.
    in_slots: dict[Connection, int] = {}
    producers: dict[Edge | Connection, list[list[Connection]]] = {}
    slots = sorted(
        (eid, slot, w)
        for w in boundary
        for eid, slot in ins[w]
        if eid not in img_edges
    )
    for eid, group in itertools.groupby(slots, key=lambda s: s[0]):
        block = []
        for _, slot, w in group:
            block.append(edge_conn(eid, slot))
            in_slots[block[-1]] = w
        producers.setdefault(g.edges[eid], []).append(block)
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
    picks = sorted(
        (
            dict(itertools.chain.from_iterable(parts))
            for parts in itertools.product(*classes)
        ),
        key=lambda to: [to[c] for c in in_slots],
    )
    survivors = tuple(sorted(g.nodes - img_nodes))
    return _Cut(survivors, edges, host.left, c1, c2, d2, picks)


def _candidates(
    cut: _Cut,
) -> list[tuple[dict[Connection, int], Complement | None]]:
    """The cut's picks, one per complement up to isomorphism, each with
    its complement when one was built. A single pick is taken as it is,
    with none. Several are built, deduplicated and sorted by
    cospan_order_key of their complements with c1 + c2 as left and
    d1 + d2 as right, which pins all four node lists, as the match fixes
    every length."""
    if len(cut.picks) == 1:
        return [(cut.picks[0], None)]
    found: dict[tuple, tuple[dict[Connection, int], Complement]] = {}
    for to in cut.picks:
        comp = cut.complement(to)
        pinned = Cospan(comp.carrier, comp.c1 + comp.c2, comp.d1 + comp.d2)
        found.setdefault(cospan_order_key(pinned), (to, comp))
    return [found[k] for k in sorted(found)]


def boundary_complement(match: Match, host: Cospan) -> list[Complement]:
    """Every valid complement for the match, deterministically ordered: one
    per candidate of the match's cut (see _cut and _candidates).

    Every candidate is valid by construction. c1 and c2 are fresh,
    distinct and disjoint, and match.hom plus the identity maps the
    re-glued lhs onto the host."""
    cut = _cut(match, host)
    if cut is None:
        return []
    return [comp or cut.complement(to) for to, comp in _candidates(cut)]


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


def _glue_into_cut(
    rhs: Cospan, cut: _Cut, to: dict[Connection, int]
) -> Cospan:
    """_glue_into_complement(rhs, cut.complement(to)), written straight from
    the cut: no complement carrier and one renaming of each edge.

    The numbering is pushout's. rhs output positions that share a c2 copy
    are one node, and each c1 copy glues one rhs input, so the classes are
    rhs's nodes up to the c2 copies; they are numbered in the order of
    their first rhs node, and every copy lies in one. The surviving host
    nodes follow in sorted order, then rhs edges in id order and the
    surviving edges in id order."""
    first: dict[int, int] = {}  # c2 copy -> first rhs node glued to it
    cls = {v: first.setdefault(w, v) for v, w in zip(rhs.right, cut.c2)}
    number: dict[int, int] = {}
    of_rhs = {
        v: number.setdefault(cls.get(v, v), len(number))
        for v in sorted(rhs.carrier.nodes)
    }
    of_cut = dict(zip(cut.survivors, itertools.count(len(number))))
    of_cut.update(zip(cut.c1, map(of_rhs.__getitem__, rhs.left)))
    of_cut.update(zip(cut.c2, map(of_rhs.__getitem__, rhs.right)))
    edges, d1 = reattach(cut.edges, cut.left, to)
    rhs_edges = (e for _, e in sorted(rhs.carrier.edges.items()))
    glued = renamed_edges(rhs_edges, of_rhs)
    glued += renamed_edges(edges.values(), of_cut)
    carrier = Hypergraph(
        frozenset(range(len(number) + len(cut.survivors))),
        dict(enumerate(glued)),
    )
    at = of_cut.__getitem__
    return Cospan(carrier, tuple(map(at, d1)), tuple(map(at, cut.d2)))


def _checked(rule: RewriteRule, result: Cospan) -> Cospan:
    """The result, once it is right-monogamous and acyclic; it keeps its
    checks, so steps from it do not repeat them."""
    if not result.right_monogamous:
        raise ResultNotRightMonogamous(
            f"rule {rule.name!r} produced a non-right-monogamous result"
        )
    if not is_acyclic(result.carrier):
        raise Cyclic(f"rule {rule.name!r} produced a cyclic result")
    return result


def apply_rewrite(
    rule: RewriteRule, match: Match, complement: Complement
) -> Cospan:
    """Glue the rhs into a given complement and check the result:
    InterfaceMismatch when c1 or c2 does not fit the rule, UnknownNode when
    an interface node is not in the complement's carrier."""
    comp = complement
    if (len(comp.c1), len(comp.c2)) != (rule.rhs.arity, rule.rhs.coarity):
        raise InterfaceMismatch(f"complement does not fit rule {rule.name!r}")
    # the interface cospan checks that each of its nodes is in the carrier
    Cospan(comp.carrier, comp.c1 + comp.d1, comp.c2 + comp.d2)
    return _checked(rule, _glue_into_complement(rule.rhs, comp))


def _results(rules: list[RewriteRule], host: Cospan) -> Iterator:
    """(rule, match, index, result) for each complement of each convex
    match into a validated host, rule by rule, built only when asked for:
    index is the complement's place in boundary_complement's list. Each
    result is glued straight from the match's cut; a complement is built
    only where a match has several candidates to deduplicate."""
    for rule in rules:
        for match in _convex_matches(rule, host):
            try:
                cut = _cut(match, host)
            except DanglingEdge:
                continue
            for index, (to, _) in enumerate(_candidates(cut)):
                result = _glue_into_cut(rule.rhs, cut, to)
                yield rule, match, index, _checked(rule, result)


def iter_rewrites(
    rules: list[RewriteRule], host: Cospan
) -> Iterator[RewriteStep]:
    """Every one-step rewrite from every rule, iso-deduplicated by result,
    yielded lazily in rewrite_all's order: each step is built only when it
    is asked for, and the host is validated when iteration starts."""
    validate_right_monogamous_acyclic(host)
    seen: set[tuple] = set()
    for rule, match, index, result in _results(rules, host):
        key = cospan_key(result)
        if key not in seen:
            seen.add(key)
            yield RewriteStep(rule, match, result, key, host, index)


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
