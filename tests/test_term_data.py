"""Type, size, hash and equality of Terms against the recursive reference
in naive_terms, and on terms far deeper than the recursion limit."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import naive_terms
from corpus import SIG3, random_term
from cmonrw.errors import BoundTooSmall, TypeMismatch
from cmonrw.oracle import axiom_closure
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Sym,
    Term,
    pretty_print,
    term_size,
    term_type,
)
from test_translate import EVAL_ERROR_CASES

A, B = Gen("a", 1, 1), Gen("b", 2, 1)


def subterms(t) -> list:
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if isinstance(u, (Seq, Par)):
            stack += (u.snd, u.fst)
    return out


def rebuilt(t):
    """A copy of t that shares no Seq or Par node with it."""
    if isinstance(t, (Seq, Par)):
        return type(t)(rebuilt(t.fst), rebuilt(t.snd))
    return t


def outcome(type_of, t):
    try:
        return type_of(t)
    except TypeMismatch as exc:
        return type(exc), str(exc)


def assert_matches_reference(t) -> None:
    assert outcome(term_type, t) == outcome(naive_terms.term_type, t), t
    assert hash(t) == hash(naive_terms.mirror(t)), t
    # term_size reads an attribute, so it takes Terms only
    if isinstance(t, Term):
        assert term_size(t) == naive_terms.term_size(t), t


def assert_equality_matches_reference(terms) -> None:
    terms = terms[:40]
    mirrors = [naive_terms.mirror(t) for t in terms]
    for t, mt in zip(terms, mirrors):
        for u, mu in zip(terms, mirrors):
            assert (t == u) == (mt == mu), (t, u)
            assert (t != u) == (mt != mu), (t, u)
        assert t == rebuilt(t) and not t != rebuilt(t), t


def joined(rng: random.Random, parts: list):
    """parts joined by ; and + in a random bracketing: a ; between parts
    whose widths differ is ill-typed."""
    if len(parts) == 1:
        return parts[0]
    k = rng.randint(1, len(parts) - 1)
    op = rng.choice((Seq, Par))
    return op(joined(rng, parts[:k]), joined(rng, parts[k:]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_well_typed_terms_match_reference(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3, max_generators=4, max_width=3)
    for s in subterms(t):
        assert_matches_reference(s)
    assert_equality_matches_reference(subterms(t))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_randomly_joined_terms_match_reference(seed):
    rng = random.Random(seed)
    parts = [
        random_term(rng, SIG3, max_generators=2, max_width=3)
        for _ in range(rng.randint(2, 5))
    ]
    t = joined(rng, parts)
    for s in subterms(t):
        assert_matches_reference(s)
    assert_equality_matches_reference(subterms(t))


@pytest.mark.parametrize("t", EVAL_ERROR_CASES, ids=repr)
def test_eval_error_cases_match_reference(t):
    for s in subterms(t):
        assert_matches_reference(s)
    assert_equality_matches_reference(subterms(t))


def test_equality_is_class_sensitive():
    atoms = [A, Gen("a", 1, 2), Id(0), Id(1), Sym(0, 1), Sym(1, 0), Mu(),
             Eta()]
    pairs = [cls(x, y) for cls in (Seq, Par) for x in atoms for y in atoms]
    assert_equality_matches_reference(atoms + pairs)
    assert Seq(A, A) != Par(A, A) and Mu() != Eta() and Id(0) != Sym(0, 0)
    assert Seq(Mu(), "x") == Seq(Mu(), "x") != Seq(Mu(), "y")
    assert (Id(1) == 1) is False and Seq(A, A) != (A, A)


def test_repr_reads_like_the_dataclasses():
    t = Seq(Par(A, Id(2)), Seq(Sym(1, 2), Par(Mu(), Eta())))
    assert repr(t) == (
        "Seq(fst=Par(fst=Gen(name='a', dom=1, cod=1), snd=Id(n=2)), "
        "snd=Seq(fst=Sym(m=1, n=2), snd=Par(fst=Mu(), snd=Eta())))"
    )
    assert repr(naive_terms.mirror(t)) == repr(t)
    assert repr(Seq(Mu(), "not a term")) == "Seq(fst=Mu(), snd='not a term')"


def chain(n: int, last=A):
    """a ; a ; ... ; a ; last, n factors, bracketed to the left."""
    t = A if n > 1 else last
    for i in range(2, n + 1):
        t = Seq(t, last if i == n else A)
    return t


def test_data_of_a_100000_factor_chain():
    n = 100_000
    t, u, v = chain(n), chain(n), chain(n, last=Gen("b", 1, 1))
    assert hash(t) == hash(u)
    assert t == u and not t != u
    assert t != v
    assert term_type(t) == (1, 1)
    assert term_size(t) == 2 * n - 1
    assert pretty_print(t) == "(" * (n - 1) + "a" + " ; a)" * (n - 1)
    assert repr(t).startswith("Seq(fst=" * (n - 1) + "Gen(name='a'")
    # the only ill-typed Seq is the last one built
    bad = chain(n, last=B)
    with pytest.raises(TypeMismatch) as got:
        term_type(bad)
    assert str(got.value).endswith(" : 1->1 with b : 2->1")
    assert term_size(bad) == 2 * n - 1


def test_first_fault_of_a_deep_term_is_the_innermost():
    t = Seq(A, B)
    for _ in range(100_000):
        t = Seq(Par(t, Mu()), Mu())
    with pytest.raises(TypeMismatch) as got:
        term_type(t)
    assert str(got.value) == "cannot chain a : 1->1 with b : 2->1"


def test_bounded_equality_of_a_100000_factor_chain_needs_a_bound():
    t = chain(100_000)
    with pytest.raises(BoundTooSmall):
        axiom_closure(t, 3)
