"""Weakly convex double-pushout rewriting: rules over cospan pairs, convex
match enumeration, boundary complement search, and rewrite strategies."""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .cospan import (
    Cospan,
    cospan_key,
    is_right_monogamous,
    iso_equal,
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
    UnionFind,
    _is_convex_image,
    canonical_form,
    find_homomorphisms,
    is_acyclic,
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
    merge_allowed = frozenset(rule.lhs.right)
    out: list[Match] = []
    for hom in find_homomorphisms(
        rule.lhs.carrier, host.carrier, merge_allowed
    ):
        img_nodes = set(hom.node_map.values())
        img_edges = set(hom.edge_map.values())
        if _is_convex_image(host.carrier, img_nodes, img_edges):
            out.append(Match(rule, hom))
    return out


def complement_key(comp: Complement) -> tuple:
    """Canonical identity of a complement with all four node lists pinned."""
    return (
        len(comp.c1),
        len(comp.c2),
        len(comp.d1),
        len(comp.d2),
        canonical_form(
            comp.carrier, comp.c1 + comp.c2 + comp.d1 + comp.d2
        ),
    )


def complement_is_valid(
    match: Match, host: Cospan, comp: Complement
) -> bool:
    """Injective c1, disjoint c1/c2 images, right-monogamous rearrangement,
    and gluing the lhs back must recompose the host.

    The last condition is first tried on the match's own map from the
    glued cospan back to the host (see _glue_witnesses_host); for every
    candidate that boundary_complement builds that map is an isomorphism,
    so the general isomorphism test only runs on complements built some
    other way, such as hand-made or mutated ones."""
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
    glued, rename = _glue_cospan_into_complement(rule.lhs, comp)
    if _glue_witnesses_host(match, host, comp, glued, rename):
        return True
    return iso_equal(glued, host)


def _glue_witnesses_host(
    match: Match, host: Cospan, comp: Complement, glued: Cospan, rename: dict
) -> bool:
    """Is the match's own map an isomorphism from glued onto host?

    lhs nodes and edges go where match.hom sends them; complement nodes
    and edges that exist in the host go to themselves; a fresh c1/c2 copy
    goes wherever the lhs node glued onto it goes. True only when that map
    is well defined, bijective on nodes and edges, preserves labels and
    endpoint positions and sends d1/d2 onto host.left/host.right, so a
    True answer proves iso_equal(glued, host); False proves nothing."""
    hom = match.hom
    g = host.carrier
    phi: dict[int, int] = {}
    for (side, v), w in rename.items():
        if side == 0:
            img = hom.node_map[v]
        elif v in g.nodes:
            img = v
        else:
            continue
        if phi.setdefault(w, img) != img:
            return False
    n = len(glued.carrier.nodes)
    if len(phi) != n or n != len(g.nodes) or len(set(phi.values())) != n:
        return False
    lhs_edges = sorted(match.rule.lhs.carrier.edges)
    images = [hom.edge_map[eid] for eid in lhs_edges]
    images += sorted(comp.carrier.edges)
    if len(images) != len(g.edges) or len(set(images)) != len(images):
        return False
    for gid, hid in enumerate(images):
        he = g.edges.get(hid)
        e = glued.carrier.edges[gid]
        if (
            he is None
            or he.label != e.label
            or tuple(phi[u] for u in e.sources) != he.sources
            or tuple(phi[u] for u in e.targets) != he.targets
        ):
            return False
    return (
        tuple(phi[u] for u in glued.left) == host.left
        and tuple(phi[u] for u in glued.right) == host.right
    )


def boundary_complement(match: Match, host: Cospan) -> list[Complement]:
    """Every valid complement for the match, deterministically ordered.

    The match image is cut out; each boundary node is replaced by fresh
    copies (one c1 copy per lhs input position, one shared c2 copy per
    output-image node). Surviving out-connections must land on the c2 copy;
    each surviving in-connection picks any copy, and every combination that
    passes validation is kept.

    Each candidate glues back onto the host by the match's own map (lhs
    nodes through match.hom, copies onto the node they copy, every other
    node to itself), a bijection on edges that fixes both interfaces, so
    complement_is_valid accepts or rejects it on the cheap structural
    checks and never needs a general isomorphism test. Candidates are
    keyed by complement_key and sorted only when more than one is valid."""
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

    # out-connections at a boundary node need its c2 copy
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

    in_slots: list[tuple] = []
    for eid in sorted(remaining):
        for si, v in enumerate(remaining[eid].targets):
            if v in boundary:
                in_slots.append(("edge", eid, si, v))
    for p, v in enumerate(host.left):
        if v in boundary:
            in_slots.append(("left", p, None, v))

    carrier_nodes = (
        frozenset(g.nodes - img_nodes)
        | frozenset(c1)
        | frozenset(c2_of.values())
    )
    valid: list[Complement] = []
    for picks in itertools.product(*(copies(s[3]) for s in in_slots)):
        slot_to: dict[tuple, int] = {
            (kind, i, si): node
            for (kind, i, si, _), node in zip(in_slots, picks)
        }
        edges: dict[int, Edge] = {}
        for eid in sorted(remaining):
            e = remaining[eid]
            sources = tuple(
                c2_of[v] if v in boundary else v for v in e.sources
            )
            targets = tuple(
                slot_to.get(("edge", eid, si), v)
                for si, v in enumerate(e.targets)
            )
            edges[eid] = Edge(e.label, sources, targets)
        d1 = tuple(
            slot_to.get(("left", p, None), v)
            for p, v in enumerate(host.left)
        )
        d2 = tuple(c2_of[v] if v in boundary else v for v in host.right)
        comp = Complement(
            Hypergraph(carrier_nodes, edges), c1, c2, d1, d2
        )
        if complement_is_valid(match, host, comp):
            valid.append(comp)
    if len(valid) <= 1:
        return valid
    found: dict[tuple, Complement] = {}
    for comp in valid:
        found.setdefault(complement_key(comp), comp)
    return [found[k] for k in sorted(found)]


def _glue_cospan_into_complement(
    cos: Cospan, comp: Complement
) -> tuple[Cospan, dict]:
    """Pushout gluing of one rule side into a complement: cos's interfaces
    are merged onto c1/c2 positionwise; the result keeps d1/d2 as its own.

    Also returns the renaming of (0, cos node) and (1, complement node)
    onto the glued nodes. Glued edges are cos's edges in id order, then the
    complement's."""
    uf = UnionFind()
    for z, v in enumerate(cos.left):
        uf.union((0, v), (1, comp.c1[z]))
    for z, v in enumerate(cos.right):
        uf.union((0, v), (1, comp.c2[z]))
    keys = [(0, v) for v in sorted(cos.carrier.nodes)] + [
        (1, v) for v in sorted(comp.carrier.nodes)
    ]
    rep_rank: dict = {}
    rename: dict = {}
    for key in keys:
        r = uf.find(key)
        if r not in rep_rank:
            rep_rank[r] = len(rep_rank)
        rename[key] = rep_rank[r]
    edges: dict[int, Edge] = {}
    for eid in sorted(cos.carrier.edges):
        e = cos.carrier.edges[eid]
        edges[len(edges)] = Edge(
            e.label,
            tuple(rename[(0, v)] for v in e.sources),
            tuple(rename[(0, v)] for v in e.targets),
        )
    for eid in sorted(comp.carrier.edges):
        e = comp.carrier.edges[eid]
        edges[len(edges)] = Edge(
            e.label,
            tuple(rename[(1, v)] for v in e.sources),
            tuple(rename[(1, v)] for v in e.targets),
        )
    g = Hypergraph(frozenset(range(len(rep_rank))), edges)
    glued = Cospan(
        g,
        tuple(rename[(1, v)] for v in comp.d1),
        tuple(rename[(1, v)] for v in comp.d2),
    )
    return glued, rename


def apply_rewrite(
    rule: RewriteRule, match: Match, complement: Complement
) -> Cospan:
    """Glue the rhs into a validated complement."""
    result, _ = _glue_cospan_into_complement(rule.rhs, complement)
    if not is_right_monogamous(result):
        raise ResultNotRightMonogamous(
            f"rule {rule.name!r} produced a non-right-monogamous result"
        )
    if not is_acyclic(result.carrier):
        raise Cyclic(f"rule {rule.name!r} produced a cyclic result")
    return result


def iter_rewrites(
    rules: list[RewriteRule], host: Cospan
) -> Iterator[RewriteStep]:
    """Every one-step rewrite from every rule, iso-deduplicated by result,
    yielded lazily in rewrite_all's order: each step is built only when it
    is asked for, and the host is validated when iteration starts."""
    validate_right_monogamous_acyclic(host)
    seen: set[tuple] = set()
    for rule in rules:
        for match in enumerate_convex_matches(rule, host):
            try:
                comps = boundary_complement(match, host)
            except DanglingEdge:
                continue
            for comp in comps:
                result = apply_rewrite(rule, match, comp)
                key = cospan_key(result)
                if key not in seen:
                    seen.add(key)
                    yield RewriteStep(rule, match, comp, result, key)


def rewrite_all(
    rules: list[RewriteRule], host: Cospan
) -> list[RewriteStep]:
    """Every one-step rewrite from every rule, iso-deduplicated by result."""
    return list(iter_rewrites(rules, host))


def normalize(
    rules: list[RewriteRule],
    host: Cospan,
    strategy: str = "exhaustive-bfs",
    max_steps: int = 100,
) -> list[Cospan]:
    """Rewrite to normal forms within a step budget (max_steps >= 0).

    leftmost follows the first available step and returns one endpoint;
    bfs/exhaustive-bfs returns all iso-distinct normal forms reachable in at
    most max_steps steps. StepBudgetExhausted reports leftover work."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    validate_right_monogamous_acyclic(host)
    if strategy == "leftmost":
        trace = [host]
        cur = host
        while True:
            step = next(iter_rewrites(rules, cur), None)
            if step is None:
                return [cur]
            if len(trace) - 1 == max_steps:
                raise StepBudgetExhausted(
                    f"leftmost rewriting still reducible after "
                    f"{max_steps} steps",
                    trace=trace,
                )
            cur = step.result
            trace.append(cur)
    if strategy in ("bfs", "exhaustive-bfs"):
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
                    normal_forms=[normals[k] for k in sorted(normals)],
                )
            layer = nxt
            if not layer:
                break
        return [normals[k] for k in sorted(normals)]
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
