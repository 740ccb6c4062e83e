"""Terms, signatures, parsing, and pretty printing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from corpus import SIG3, random_term
from cmonrw.errors import TermSyntaxError, TypeMismatch, UnknownGenerator
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Signature,
    Sym,
    parse_signature,
    parse_term,
    pretty_print,
    term_size,
    term_type,
)


def test_parse_signature_reads_arities():
    sig = parse_signature("gen f : 2 -> 1\ngen g : 0 -> 3\n")
    assert sig.arity("f") == (2, 1)
    assert sig.arity("g") == (0, 3)
    assert "f" in sig and "nope" not in sig


def test_signature_rejects_reserved_and_duplicate_names():
    with pytest.raises(TermSyntaxError):
        parse_signature("gen mu : 2 -> 1\n")
    with pytest.raises(TermSyntaxError):
        parse_signature("gen f : 1 -> 1\ngen f : 1 -> 1\n")
    with pytest.raises(TermSyntaxError):
        Signature((("f", -1, 0),))


def test_signature_rejects_a_bad_generator_name():
    with pytest.raises(TermSyntaxError) as raised:
        Signature((("2f", 1, 1),))
    assert raised.value.code == "syntax-error"
    assert raised.value.message == "bad generator name '2f'"


def test_arity_of_an_undeclared_generator():
    with pytest.raises(UnknownGenerator) as raised:
        parse_signature("gen f : 1 -> 1\n").arity("g")
    assert raised.value.code == "unknown-generator"
    assert raised.value.message == "generator 'g' not declared"


def test_signature_bad_line_reports_location():
    with pytest.raises(TermSyntaxError) as err:
        parse_signature("gen f 1 -> 1\n")
    assert err.value.location == 1


def test_term_type_of_structural_atoms():
    assert term_type(Mu()) == (2, 1)
    assert term_type(Eta()) == (0, 1)
    assert term_type(Id(3)) == (3, 3)
    assert term_type(Sym(2, 3)) == (5, 5)
    assert term_type(Gen("f", 2, 1)) == (2, 1)


def test_term_type_composite():
    t = Seq(Par(Gen("g", 1, 2), Id(1)), Par(Id(1), Mu()))
    assert term_type(t) == (2, 2)


def test_sequencing_mismatched_widths_is_rejected():
    # mu ; mu: cod 1 does not meet dom 2
    with pytest.raises(TypeMismatch):
        term_type(Seq(Mu(), Mu()))


def test_term_size_counts_syntax_nodes():
    assert term_size(Mu()) == 1
    assert term_size(Seq(Gen("f", 1, 1), Gen("g", 1, 1))) == 3
    assert term_size(Par(Seq(Id(1), Mu()), Eta())) == 5


def test_parse_term_atoms(sig):
    assert parse_term("mu", sig) == Mu()
    assert parse_term("eta", sig) == Eta()
    assert parse_term("id_3", sig) == Id(3)
    assert parse_term("sym_1_2", sig) == Sym(1, 2)
    assert parse_term("f", sig) == Gen("f", 2, 1)


def test_parse_term_precedence_and_grouping(sig):
    t = parse_term("a ; (id_1 + eta) ; f", sig)
    assert term_type(t) == (1, 1)
    u = parse_term("(a + b) ; f", sig)
    assert u == Seq(Par(Gen("a", 1, 1), Gen("b", 1, 1)), Gen("f", 2, 1))


def test_parse_term_errors(sig):
    with pytest.raises(UnknownGenerator):
        parse_term("zz", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("a ;", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("a ) b", sig)
    with pytest.raises(TypeMismatch):
        parse_term("mu ; mu", sig)


@given(st.integers(0, 2**32 - 1))
def test_pretty_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3)
    assert parse_term(pretty_print(t), SIG3) == t


def test_pretty_print_rejects_an_operand_that_is_not_a_term():
    with pytest.raises(TypeMismatch) as raised:
        pretty_print(Seq(Id(1), "x"))
    assert raised.value.code == "type-mismatch"
    assert raised.value.message == "not a term: 'x'"


def test_pretty_print_examples():
    assert pretty_print(Id(3)) == "id_3"
    assert pretty_print(Sym(1, 1)) == "sym_1_1"
    assert pretty_print(Seq(Mu(), Gen("a", 1, 1))) == "(mu ; a)"


A, F = Gen("a", 1, 1), Gen("f", 2, 1)


@pytest.mark.parametrize(
    "text,built",
    [
        ("a ; f", Seq(A, F)),
        ("(a ; f) ; (f ; a)", Seq(Seq(A, F), Seq(F, A))),
        (
            "((a ; f) + a) ; (mu ; mu)",
            Seq(Par(Seq(A, F), A), Seq(Mu(), Mu())),
        ),
        ("a ; (mu ; mu) ; f", Seq(Seq(A, Seq(Mu(), Mu())), F)),
    ],
)
def test_parse_term_reports_term_types_first_mismatch(text, built, sig):
    with pytest.raises(TypeMismatch) as expected:
        term_type(built)
    with pytest.raises(TypeMismatch) as got:
        parse_term(text, sig)
    assert str(got.value) == str(expected.value)


def test_parse_term_holds_type_errors_until_the_input_parsed(sig):
    with pytest.raises(TermSyntaxError):
        parse_term("a ; f ; )", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("(a ; f) + a ; a", sig)
    with pytest.raises(UnknownGenerator):
        parse_term("a ; f ; zz", sig)


def test_deep_chains_parse_and_print_without_recursion(sig):
    text = " ; ".join(["a"] * 3000)
    t = parse_term(text, sig)
    printed = pretty_print(t)
    assert printed == "(" * 2999 + "a" + " ; a)" * 2999
    with pytest.raises(TypeMismatch) as got:
        parse_term(text + " ; f", sig)
    assert str(got.value) == f"cannot chain {printed} : 1->1 with f : 2->1"


def test_deep_parentheses_parse_without_recursion(sig):
    depth = 100_000
    assert parse_term("(" * depth + "a" + ")" * depth, sig) == A
    t = parse_term("(a ; " * depth + "a" + ")" * depth, sig)
    for _ in range(depth):
        assert type(t) is Seq and t.fst == A
        t = t.snd
    assert t == A
    with pytest.raises(TermSyntaxError) as got:
        parse_term("(" * depth + "a" + ")" * (depth - 1), sig)
    assert got.value.message == "expected ')', got end of input"
    assert got.value.location is None
    # the innermost Seq is the first in post-order
    with pytest.raises(TypeMismatch) as got:
        parse_term("(a ; " * depth + "f" + ")" * depth, sig)
    assert str(got.value) == "cannot chain a : 1->1 with f : 2->1"
