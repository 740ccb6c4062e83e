"""Seeded random instance generators backing the property and acceptance
tests: terms, right-monogamous acyclic cospans, convex sub-hypergraphs,
decomposition signatures, law instantiations, and validator mutations."""

from __future__ import annotations

import os
import random

from cmonrw.cospan import EDGE, Cospan, FinFunction, is_right_monogamous
from cmonrw.decompose import (
    Cut,
    WeakDecomposition,
    fn_to_cmon_term,
    gluing_choice_points,
    in_connections,
    updown_sides,
)
from cmonrw.dpo import Complement
from cmonrw.hypergraph import (
    Edge,
    Hypergraph,
    SubHypergraph,
    is_acyclic,
    terminal_nodes,
)
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Signature,
    Sym,
    Term,
    parse_signature,
    term_type,
)
from naive_scans import bridging_edges

DEFAULT_SEED = 20250817

SIG3 = parse_signature(
    "gen a : 1 -> 1\ngen b : 2 -> 1\ngen c : 1 -> 2\n"
)


def rng_from_env(default: int = DEFAULT_SEED) -> random.Random:
    """Deterministic RNG, overridable through CMONRW_SEED."""
    return random.Random(int(os.environ.get("CMONRW_SEED", default)))


def _random_layer(
    rng: random.Random,
    sig: Signature,
    dom: int,
    max_width: int,
    gen_budget: int,
) -> tuple[Term, int]:
    """One parallel layer consuming dom wires, keeping the output width and
    any intermediate growth within max_width."""
    atoms: list[Term] = []
    remaining = dom
    out_width = 0
    used = 0
    while remaining > 0:
        slack = max_width - (out_width + remaining)
        choices = ["id", "id"]
        if remaining >= 2:
            choices += ["sym", "mu"]
        fitting = [
            (name, m, n)
            for name, m, n in sig.generators
            if 1 <= m <= remaining and n - m <= slack
        ]
        if used < gen_budget and fitting:
            choices += ["gen", "gen", "gen"]
        pick = rng.choice(choices)
        if pick == "id":
            d = rng.randint(1, remaining)
            atoms.append(Id(d))
            remaining -= d
            out_width += d
        elif pick == "sym":
            a = rng.randint(1, remaining - 1)
            b = rng.randint(1, remaining - a)
            atoms.append(Sym(a, b))
            remaining -= a + b
            out_width += a + b
        elif pick == "mu":
            atoms.append(Mu())
            remaining -= 2
            out_width += 1
        else:
            name, m, n = rng.choice(fitting)
            atoms.append(Gen(name, m, n))
            remaining -= m
            out_width += n
            used += 1
    if out_width < max_width and rng.random() < 0.2:
        atoms.append(Eta())
        out_width += 1
    if not atoms:
        atoms.append(Id(0))
    layer = atoms[0]
    for a in atoms[1:]:
        layer = Par(layer, a)
    return layer, used


def random_term(
    rng: random.Random,
    sig: Signature = SIG3,
    max_generators: int = 6,
    max_width: int = 4,
) -> Term:
    """A random well-typed term with bounded wire widths everywhere."""
    width = rng.randint(0, max_width)
    t: Term = Id(width)
    used = 0
    for _ in range(rng.randint(1, 4)):
        layer, k = _random_layer(
            rng, sig, width, max_width, max_generators - used
        )
        used += k
        t = Seq(t, layer)
        width = term_type(layer)[1]
    term_type(t)
    return t


def random_typed_term(
    rng: random.Random, sig: Signature, dom: int, cod: int
) -> Term:
    """A random term of exactly the requested type (cod must be positive
    unless the running width already reaches zero)."""
    width = dom
    t: Term = Id(dom)
    used = 0
    for _ in range(rng.randint(0, 2)):
        layer, k = _random_layer(rng, sig, width, 4, 2 - used)
        used += k
        t = Seq(t, layer)
        width = term_type(layer)[1]
    if width == cod:
        return t
    table = tuple(rng.randrange(cod) for _ in range(width))
    return Seq(t, fn_to_cmon_term(FinFunction(width, cod, table)))


def random_rm_cospan(
    rng: random.Random,
    max_nodes: int = 8,
    labels: tuple[tuple[str, int, int], ...] = (
        ("p", 1, 1),
        ("q", 2, 1),
        ("r", 1, 2),
        ("s", 0, 1),
    ),
) -> Cospan:
    """A random right-monogamous acyclic cospan, edges directed id-upward."""
    n = rng.randint(1, max_nodes)
    nodes = frozenset(range(n))
    unused_sources = set(range(n))
    edges: dict[int, Edge] = {}
    for _ in range(rng.randint(0, n)):
        name, m, k = rng.choice(labels)
        if k == 0 or k > n:
            continue
        lo = 1 if m > 0 else 0
        if n - lo < k:
            continue
        targets = tuple(sorted(rng.sample(range(lo, n), k)))
        pool = sorted(v for v in unused_sources if v < targets[0])
        if len(pool) < m:
            continue
        sources = tuple(rng.sample(pool, m))
        unused_sources.difference_update(sources)
        edges[len(edges)] = Edge(name, sources, targets)
    g = Hypergraph(nodes, edges)
    terms = sorted(terminal_nodes(g))
    rng.shuffle(terms)
    left = tuple(rng.randrange(n) for _ in range(rng.randint(0, n + 1)))
    c = Cospan(g, left, tuple(terms))
    assert is_right_monogamous(c) and is_acyclic(g)
    return c


def random_convex_sub(
    rng: random.Random, g: Hypergraph
) -> SubHypergraph:
    """A random edge subset closed up to convexity, with its endpoints."""
    chosen = {e for e in sorted(g.edges) if rng.random() < 0.5}
    while True:
        nodes = set()
        for e in chosen:
            nodes.update(g.edges[e].sources)
            nodes.update(g.edges[e].targets)
        bridges = bridging_edges(g, nodes, chosen)
        if not bridges:
            return SubHypergraph(frozenset(nodes), frozenset(chosen))
        chosen.add(bridges[0])


def random_partition(
    rng: random.Random, items, max_blocks: int = 3
) -> tuple[frozenset, ...]:
    """Ordered partition into 1..max_blocks blocks, empties allowed."""
    k = rng.randint(1, max_blocks)
    blocks: list[set] = [set() for _ in range(k)]
    for it in items:
        blocks[rng.randrange(k)].add(it)
    return tuple(frozenset(b) for b in blocks)


def random_updown_signature(
    rng: random.Random, g: Cospan, sub: SubHypergraph
) -> dict[int, tuple[frozenset, frozenset]]:
    """Random upper/lower split of each shared node's external inputs."""
    sides = updown_sides(g, sub)
    out: dict[int, tuple[frozenset, frozenset]] = {}
    for v, external in sides.external.items():
        if rng.random() < 0.5:
            continue
        if v in sides.inner:
            out[v] = (frozenset(), external)
        else:
            # sorted, so the draws do not depend on the hash seed
            upper = frozenset(
                c for c in sorted(external) if rng.random() < 0.5
            )
            out[v] = (upper, external - upper)
    return out


def random_in_cuts(
    rng: random.Random, upstream: Cospan, passthrough: int
) -> list[Cut]:
    """Random input-side cuts; the passthrough outputs stay single-block."""
    protected = set(upstream.right[:passthrough])
    conns = in_connections(upstream)
    cuts = []
    for v in sorted(terminal_nodes(upstream.carrier)):
        if v in protected or rng.random() < 0.4:
            continue
        cuts.append(Cut(v, random_partition(rng, conns[v])))
    return cuts


def random_out_cuts(
    rng: random.Random, extracted: Cospan
) -> list[Cut]:
    """Random output-side cuts over edge connections only."""
    conns = in_connections(extracted)
    cuts = []
    for v in sorted(terminal_nodes(extracted.carrier)):
        if rng.random() < 0.4:
            continue
        edge_conns = [c for c in conns[v] if c.kind == EDGE]
        cuts.append(Cut(v, random_partition(rng, edge_conns)))
    return cuts


def random_gluing(
    rng: random.Random, weak: WeakDecomposition, inout
) -> dict[int, int]:
    """One random copy choice per gluing position."""
    return {
        pos: rng.randrange(n)
        for pos, n in gluing_choice_points(weak, inout).items()
    }


def _random_context(
    rng: random.Random, sig: Signature, pair: tuple[Term, Term]
) -> tuple[Term, Term]:
    """Wrap both sides of a law instance in one shared random context."""
    lhs, rhs = pair
    m, n = term_type(lhs)
    if rng.random() < 0.5:
        side = random_typed_term(rng, sig, 1, rng.randint(1, 2))
        if rng.random() < 0.5:
            lhs, rhs = Par(side, lhs), Par(side, rhs)
        else:
            lhs, rhs = Par(lhs, side), Par(rhs, side)
        m, n = term_type(lhs)
    if m > 0 and rng.random() < 0.5:
        pre = random_typed_term(rng, sig, rng.randint(1, 3), m)
        lhs, rhs = Seq(pre, lhs), Seq(pre, rhs)
    if n > 0 and rng.random() < 0.5:
        post = random_typed_term(rng, sig, n, rng.randint(1, 3))
        lhs, rhs = Seq(lhs, post), Seq(rhs, post)
    return lhs, rhs


def _small(rng: random.Random, sig: Signature) -> Term:
    return random_typed_term(
        rng, sig, rng.randint(1, 2), rng.randint(1, 2)
    )


def _sample_seq_assoc(rng, sig):
    s = _small(rng, sig)
    t = random_typed_term(rng, sig, term_type(s)[1], rng.randint(1, 2))
    u = random_typed_term(rng, sig, term_type(t)[1], rng.randint(1, 2))
    return Seq(Seq(s, t), u), Seq(s, Seq(t, u))


def _sample_seq_unit(rng, sig):
    s = _small(rng, sig)
    m, n = term_type(s)
    return (Seq(Id(m), s), s) if rng.random() < 0.5 else (Seq(s, Id(n)), s)


def _sample_par_assoc(rng, sig):
    s, t, u = _small(rng, sig), _small(rng, sig), _small(rng, sig)
    return Par(Par(s, t), u), Par(s, Par(t, u))


def _sample_par_unit(rng, sig):
    s = _small(rng, sig)
    return (Par(Id(0), s), s) if rng.random() < 0.5 else (Par(s, Id(0)), s)


def _sample_id_fusion(rng, sig):
    i, j = rng.randint(0, 2), rng.randint(0, 2)
    return Par(Id(i), Id(j)), Id(i + j)


def _sample_interchange(rng, sig):
    s = _small(rng, sig)
    s2 = random_typed_term(rng, sig, term_type(s)[1], rng.randint(1, 2))
    u = _small(rng, sig)
    u2 = random_typed_term(rng, sig, term_type(u)[1], rng.randint(1, 2))
    return (
        Seq(Par(s, u), Par(s2, u2)),
        Par(Seq(s, s2), Seq(u, u2)),
    )


def _sample_sym_involution(rng, sig):
    m, n = rng.randint(0, 2), rng.randint(0, 2)
    return Seq(Sym(m, n), Sym(n, m)), Id(m + n)


def _sample_sym_naturality(rng, sig):
    s = _small(rng, sig)
    o, n = term_type(s)
    m = rng.randint(1, 2)
    return (
        Seq(Par(s, Id(m)), Sym(n, m)),
        Seq(Sym(o, m), Par(Id(m), s)),
    )


def _sample_sym_decomposition(rng, sig):
    m, n, o = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
    return (
        Sym(m, n + o),
        Seq(Par(Sym(m, n), Id(o)), Par(Id(n), Sym(m, o))),
    )


def _sample_merge_commutativity(rng, sig):
    return Mu(), Seq(Sym(1, 1), Mu())


def _sample_merge_associativity(rng, sig):
    return (
        Seq(Par(Mu(), Id(1)), Mu()),
        Seq(Par(Id(1), Mu()), Mu()),
    )


def _sample_merge_unit_left(rng, sig):
    return Seq(Par(Eta(), Id(1)), Mu()), Id(1)


def _sample_merge_unit_right(rng, sig):
    return Seq(Par(Id(1), Eta()), Mu()), Id(1)


def _sample_sym_unit(rng, sig):
    m = rng.randint(0, 3)
    return (Sym(m, 0), Id(m)) if rng.random() < 0.5 else (Sym(0, m), Id(m))


LAW_SAMPLERS = {
    "sequential-associativity": _sample_seq_assoc,
    "sequential-unit": _sample_seq_unit,
    "parallel-associativity": _sample_par_assoc,
    "parallel-unit": _sample_par_unit,
    "identity-fusion": _sample_id_fusion,
    "interchange": _sample_interchange,
    "symmetry-involution": _sample_sym_involution,
    "symmetry-naturality": _sample_sym_naturality,
    "symmetry-decomposition": _sample_sym_decomposition,
    "merge-commutativity": _sample_merge_commutativity,
    "merge-associativity": _sample_merge_associativity,
    "merge-unit-left": _sample_merge_unit_left,
    "merge-unit-right": _sample_merge_unit_right,
    "symmetry-unit": _sample_sym_unit,
}


def sample_law_instance(
    rng: random.Random, name: str, sig: Signature = SIG3
) -> tuple[Term, Term]:
    """A random instantiation of the named law inside a random context."""
    return _random_context(rng, sig, LAW_SAMPLERS[name](rng, sig))


def complement_mutations(
    rng: random.Random, comp: Complement
) -> list[tuple[str, Complement]]:
    """Every applicable way to break conditions B, C, or D on a complement."""
    out: list[tuple[str, Complement]] = []
    if len(comp.c1) >= 2:
        i, j = rng.sample(range(len(comp.c1)), 2)
        c1 = list(comp.c1)
        c1[j] = c1[i]
        out.append(
            ("merge-c1-pair", Complement(
                comp.carrier, tuple(c1), comp.c2, comp.d1, comp.d2
            ))
        )
    if comp.c1 and comp.c2:
        c2 = list(comp.c2)
        c2[rng.randrange(len(c2))] = comp.c1[rng.randrange(len(comp.c1))]
        out.append(
            ("overlap-c1-c2", Complement(
                comp.carrier, comp.c1, tuple(c2), comp.d1, comp.d2
            ))
        )
    if comp.c1 and comp.d2:
        d2 = list(comp.d2)
        d2[rng.randrange(len(d2))] = comp.c1[rng.randrange(len(comp.c1))]
        out.append(
            ("duplicate-right-leg", Complement(
                comp.carrier, comp.c1, comp.c2, comp.d1, tuple(d2)
            ))
        )
    busy = sorted(comp.carrier.nodes - terminal_nodes(comp.carrier))
    if busy and comp.d2:
        d2 = list(comp.d2)
        d2[rng.randrange(len(d2))] = rng.choice(busy)
        out.append(
            ("right-leg-not-terminal", Complement(
                comp.carrier, comp.c1, comp.c2, comp.d1, tuple(d2)
            ))
        )
    if comp.c1:
        v = comp.c1[rng.randrange(len(comp.c1))]
        edges = dict(comp.carrier.edges)
        edges[max(edges) + 1 if edges else 0] = Edge("zz", (v,), ())
        out.append(
            ("c1-grows-outputs", Complement(
                Hypergraph(comp.carrier.nodes, edges),
                comp.c1, comp.c2, comp.d1, comp.d2,
            ))
        )
    return out
