"""Evaluation of terms into right-monogamous acyclic cospans."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import naive_eval
from cmonrw import cospan, translate
from corpus import SIG3, random_term
from cmonrw.cospan import (
    FinFunction,
    cospan_to_document,
    cospan_to_function,
    function_to_cospan,
    is_right_monogamous,
    iso_equal,
)
from cmonrw.errors import TypeMismatch, UnknownGenerator
from cmonrw.hypergraph import is_acyclic
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Signature,
    Sym,
    parse_term,
    pretty_print,
    term_size,
    term_type,
)
from cmonrw.oracle import axiom_closure
from cmonrw.translate import eval_term
from naive_eval import generator_cospan
from test_oracle import BENCH_HOSTS


def test_generator_cospan_shape(sig):
    c = generator_cospan("f", sig)
    assert c.arity == 2 and c.coarity == 1
    assert len(c.carrier.nodes) == 3
    assert len(c.carrier.edges) == 1
    (edge,) = c.carrier.edges.values()
    assert edge.label == "f"
    assert edge.sources == c.left and edge.targets == c.right


def test_eval_structural_atoms(sig):
    assert iso_equal(
        eval_term(Mu(), sig), function_to_cospan(FinFunction(2, 1, (0, 0)))
    )
    assert iso_equal(
        eval_term(Eta(), sig), function_to_cospan(FinFunction(0, 1, ()))
    )
    assert cospan_to_function(eval_term(Sym(1, 2), sig)).table == (2, 0, 1)


def test_eval_checks_generator_against_signature(sig):
    with pytest.raises(UnknownGenerator):
        eval_term(Gen("zz", 1, 1), sig)
    with pytest.raises(TypeMismatch):
        eval_term(Gen("f", 1, 1), sig)  # declared 2 -> 1


def test_eval_names_the_leftmost_bad_generator(sig):
    zz, f = Gen("zz", 1, 1), Gen("f", 1, 1)  # undeclared; declared 2 -> 1
    with pytest.raises(UnknownGenerator) as exc:
        eval_term(Seq(zz, f), sig)
    assert exc.value.message == "generator 'zz' not declared"
    with pytest.raises(TypeMismatch) as exc:
        eval_term(Seq(f, zz), sig)
    assert exc.value.message == (
        "generator 'f' used at 1->1 but declared 2->1"
    )


@given(st.integers(0, 2**32 - 1))
def test_eval_output_is_right_monogamous_acyclic(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3)
    c = eval_term(t, SIG3)
    assert is_right_monogamous(c)
    assert is_acyclic(c.carrier)
    assert (c.arity, c.coarity) == term_type(t)


def test_merge_commutativity_holds_in_cospans(sig):
    assert iso_equal(
        eval_term(Mu(), sig), eval_term(Seq(Sym(1, 1), Mu()), sig)
    )


def test_merge_unit_holds_in_cospans(sig):
    both = Seq(Par(Eta(), Id(1)), Mu())
    assert iso_equal(eval_term(both, sig), eval_term(Id(1), sig))


def test_interchange_holds_in_cospans(sig):
    lhs = parse_term("(a + b) ; (b + a)", sig)
    rhs = parse_term("(a ; b) + (b ; a)", sig)
    assert iso_equal(eval_term(lhs, sig), eval_term(rhs, sig))


def test_cmon_term_to_function_merge_tree():
    t = Seq(Par(Mu(), Id(1)), Mu())
    assert cospan_to_function(eval_term(t, Signature(()))) == FinFunction(
        3, 1, (0, 0, 0)
    )


def assert_same_as_reference(t, sig):
    assert cospan_to_document(eval_term(t, sig)) == cospan_to_document(
        naive_eval.eval_term(t, sig)
    )


@given(st.integers(0, 2**32 - 1))
def test_eval_matches_pairwise_fold_on_random_terms(seed):
    assert_same_as_reference(random_term(random.Random(seed), SIG3), SIG3)


ATOMS = [
    Id(0), Id(1), Id(3), Sym(0, 0), Sym(0, 2), Sym(2, 0), Sym(1, 1),
    Sym(2, 3), Mu(), Eta(), Gen("a", 1, 1), Gen("f", 2, 1), Gen("g", 1, 2),
]


@pytest.mark.parametrize("atom", ATOMS, ids=pretty_print)
def test_eval_matches_pairwise_fold_on_atoms(atom, sig):
    assert_same_as_reference(atom, sig)
    m, n = term_type(atom)
    assert_same_as_reference(Par(Par(Id(1), atom), Eta()), sig)
    assert_same_as_reference(Seq(Seq(Id(m), atom), Id(n)), sig)
    assert_same_as_reference(Seq(Sym(0, m), Seq(atom, Sym(n, 0))), sig)


@pytest.mark.parametrize(
    "text",
    [
        "id_0 ; id_0",
        "eta ; (id_1 + id_0)",
        "(eta + eta) ; mu ; (g ; f)",
        "(f + id_0) ; (eta + id_1) ; mu",
        "sym_0_0 ; id_0 ; (id_0 + id_0)",
        "((eta ; a) + id_0) ; (id_0 + id_1)",
        "(mu + mu) ; mu ; g ; (a + b) ; sym_1_1 ; mu",
    ],
)
def test_eval_matches_pairwise_fold_on_zero_width_seams(text, sig):
    assert_same_as_reference(parse_term(text, sig), sig)


@pytest.mark.parametrize("host", sorted(BENCH_HOSTS))
def test_eval_matches_pairwise_fold_on_oracle_closures(host, unary_sig):
    t = parse_term(host, unary_sig)
    for member in axiom_closure(t, term_size(t) + 4).members:
        assert_same_as_reference(member, unary_sig)


A, F = Gen("a", 1, 1), Gen("f", 2, 1)

EVAL_ERROR_CASES = [
    Seq(A, F),  # ill-typed Seq
    # the first in post-order
    Seq(Par(Seq(A, F), Seq(F, F)), Seq(F, Mu())),
    Seq(Seq(Gen("zz", 1, 1), Id(1)), A),  # undeclared generator
    Par(A, Seq(Gen("f", 1, 1), Gen("g", 1, 1))),  # mistyped generators
    Par(Gen("zz", 1, 1), Seq(A, F)),  # both: the type error wins
    Seq(Gen("zz", 1, 1), Seq(Gen("f", 1, 1), Gen("b", 2, 2))),
    Seq(Mu(), "not a term"),
]


@pytest.mark.parametrize("t", EVAL_ERROR_CASES, ids=repr)
def test_eval_errors_match_pairwise_fold(t, sig):
    with pytest.raises(Exception) as expected:
        naive_eval.eval_term(t, sig)
    with pytest.raises(Exception) as got:
        eval_term(t, sig)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def merge_tree(depth: int):
    t = Mu()
    for _ in range(depth):
        t = Seq(Par(t, t), Mu())
    return t


def test_eval_term_makes_no_pairwise_gluing(monkeypatch, sig):
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("compose", "tensor", "pushout"):
        real = getattr(cospan, name)
        for module in (cospan, translate, naive_eval):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    chain = parse_term(" ; ".join(["a"] * 40), sig)
    # the fold's tensors glue through pushout too
    tree = {"compose": 15, "pushout": 30, "tensor": 15}
    for t, folds in ((chain, {"compose": 39, "pushout": 39}),
                     (merge_tree(4), tree)):
        calls.clear()
        eval_term(t, sig)
        assert calls == {}
        naive_eval.eval_term(t, sig)  # the counters do see the fold
        assert calls == folds


def test_long_chain_evaluates_in_one_pass(sig):
    c = eval_term(parse_term(" ; ".join(["a"] * 3000), sig), sig)
    assert len(c.carrier.edges) == 3000
    assert len(c.carrier.nodes) == 3001
    assert c.left == (0,) and c.right == (3000,)
