"""The pairwise fold that eval_term replaced, kept as the reference it is
tested against: every Seq glues two whole carriers with compose's pushout,
every Par places them side by side with tensor. Also the pushout over
side-tagged node keys that cospan.pushout replaced, and the tensor by id
shifting that tensor's no-pairs pushout replaced."""

from __future__ import annotations

from cmonrw.cospan import (
    Cospan,
    FinFunction,
    compose,
    function_to_cospan,
    identity_cospan,
    symmetry_cospan,
    tensor,
)
from cmonrw.errors import TypeMismatch, UnknownGenerator
from cmonrw.hypergraph import Edge, Hypergraph, UnionFind
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
    term_type,
)

def tagged_pushout(
    a: Hypergraph, b: Hypergraph, pairs
) -> tuple[Hypergraph, dict[tuple[int, int], int]]:
    """Glue two carriers, identifying each (a node, b node) pair in pairs.

    Nodes are tagged (0, v) for a and (1, v) for b. Each glued class is
    numbered densely in the order of its smallest tagged key; glued edges
    are a's in id order, then b's. Returns the glued carrier and the
    renaming of every tagged node onto it."""
    uf = UnionFind()
    for u, v in pairs:
        uf.union((0, u), (1, v))
    keys = [(0, v) for v in sorted(a.nodes)]
    keys += [(1, v) for v in sorted(b.nodes)]
    rep_rank: dict = {}
    rename: dict[tuple[int, int], int] = {}
    for key in keys:
        rename[key] = rep_rank.setdefault(uf.find(key), len(rep_rank))
    edges: dict[int, Edge] = {}
    for side, g in enumerate((a, b)):
        for eid in sorted(g.edges):
            e = g.edges[eid]
            edges[len(edges)] = Edge(
                e.label,
                tuple(rename[(side, v)] for v in e.sources),
                tuple(rename[(side, v)] for v in e.targets),
            )
    return Hypergraph(frozenset(range(len(rep_rank))), edges), rename


def shifted_tensor(a: Cospan, b: Cospan) -> Cospan:
    """Place b beside a, b's node ids shifted past a's largest: for
    operands numbered densely from 0, the carrier tensor builds. Where b
    has ids below a's, a shifted node can land on one of a's."""
    shift = (max(a.carrier.nodes) + 1) if a.carrier.nodes else 0
    nodes = frozenset(a.carrier.nodes) | frozenset(
        v + shift for v in b.carrier.nodes
    )
    edges: dict[int, Edge] = {}
    for eid in sorted(a.carrier.edges):
        edges[len(edges)] = a.carrier.edges[eid]
    for eid in sorted(b.carrier.edges):
        e = b.carrier.edges[eid]
        edges[len(edges)] = Edge(
            e.label,
            tuple(v + shift for v in e.sources),
            tuple(v + shift for v in e.targets),
        )
    g = Hypergraph(nodes, edges)
    return Cospan(
        g,
        a.left + tuple(v + shift for v in b.left),
        a.right + tuple(v + shift for v in b.right),
    )


MERGE = FinFunction(2, 1, (0, 0))
EMPTY = FinFunction(0, 1, ())


def generator_cospan(name: str, sig: Signature) -> Cospan:
    """One hyperedge wired straight from fresh inputs to fresh outputs."""
    m, n = sig.arity(name)
    g = Hypergraph(
        frozenset(range(m + n)),
        {0: Edge(name, tuple(range(m)), tuple(range(m, m + n)))},
    )
    return Cospan(g, tuple(range(m)), tuple(range(m, m + n)))


def eval_term(t: Term, sig: Signature) -> Cospan:
    """Interpret a term as a cospan, bottom-up."""
    term_type(t)  # reject ill-typed input before building anything
    return _eval(t, sig)


def _eval(t: Term, sig: Signature) -> Cospan:
    if isinstance(t, Gen):
        if t.name not in sig:
            raise UnknownGenerator(f"generator '{t.name}' not declared")
        if sig.arity(t.name) != (t.dom, t.cod):
            raise TypeMismatch(
                f"generator '{t.name}' used at {t.dom}->{t.cod} but declared "
                f"{sig.arity(t.name)[0]}->{sig.arity(t.name)[1]}"
            )
        return generator_cospan(t.name, sig)
    if isinstance(t, Id):
        return identity_cospan(t.n)
    if isinstance(t, Sym):
        return symmetry_cospan(t.m, t.n)
    if isinstance(t, Mu):
        return function_to_cospan(MERGE)
    if isinstance(t, Eta):
        return function_to_cospan(EMPTY)
    if isinstance(t, Seq):
        return compose(_eval(t.fst, sig), _eval(t.snd, sig))
    if isinstance(t, Par):
        return tensor(_eval(t.fst, sig), _eval(t.snd, sig))
    raise TypeError(f"not a term: {t!r}")
