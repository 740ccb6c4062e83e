"""The pairwise fold that eval_term replaced, kept as the reference it is
tested against: every Seq glues two whole carriers with compose's pushout,
every Par places them side by side with tensor."""

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
from cmonrw.hypergraph import Edge, Hypergraph
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
