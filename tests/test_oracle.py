"""Term-level brute-force oracle: law variants, closure, bounded equality."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import SIG3, random_term
from cmonrw import cli
from cmonrw.cospan import cospan_key, iso_equal
from cmonrw.errors import BoundTooSmall, TypeMismatch
from cmonrw import oracle
from cmonrw.oracle import (
    LAWS,
    Law,
    axiom_closure,
    enumerate_rewrites_bruteforce,
)
from cmonrw import sigterm
from cmonrw.sigterm import (
    Signature,
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Sym,
    parse_signature,
    parse_term,
    pretty_print,
    term_size,
    term_type,
)
from cmonrw.translate import eval_term
from naive_oracle import (
    MERGE_REDEXES,
    REFERENCE_LAWS,
    bruteforce_rewrites,
    evaluated_classes,
    pool_closure,
)

F = Gen("f", 1, 1)
G = Gen("g", 1, 1)
SIG_FG = Signature((("f", 1, 1), ("g", 1, 1)))


def one_step_variants(t):
    """Every single application of any law at any subterm position, in
    the order of AxiomClosure's pool: at the root, then inside fst, then
    inside snd. t is interned once, into one pool every law runs on."""
    pool = oracle.TermPool()
    for key in _variant_keys(pool, pool.intern(t)):
        yield pool.term(key)


def _variant_keys(pool, key):
    """The pool keys of one_step_variants of the pooled term key."""
    for law in LAWS:
        for shape in law.shapes(pool, key):
            yield pool._keys[shape]
    if pool._shapes[key][0] in (oracle._SEQ, oracle._PAR):
        tag, fst, snd = pool._shapes[key]
        for a in _variant_keys(pool, fst):
            yield pool._keys[(tag, a, snd)]
        for b in _variant_keys(pool, snd):
            yield pool._keys[(tag, fst, b)]


def naive_closure(t, bound):
    """Reference BFS straight over one_step_variants."""
    seen = {t}
    frontier = [t]
    truncated = False
    while frontier:
        nxt = []
        for cur in frontier:
            for v in one_step_variants(cur):
                if term_size(v) > bound:
                    truncated = True
                elif v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen, truncated


def test_every_law_variant_preserves_type():
    probes = [
        Mu(),
        Eta(),
        Id(2),
        Sym(1, 2),
        Seq(F, G),
        Par(F, Mu()),
        Seq(Par(Eta(), Id(1)), Mu()),
    ]
    for t in probes:
        for v in one_step_variants(t):
            assert term_type(v) == term_type(t), (t, v)


def test_law_variants_are_bidirectional():
    # every variant can step back to its origin
    probes = [Mu(), Seq(F, G), Par(F, G), Seq(Par(Eta(), Id(1)), Mu())]
    for t in probes:
        for v in one_step_variants(t):
            assert t in set(one_step_variants(v)), (t, v)


def test_variants_are_sound_in_the_cospan_model():
    probes = [Mu(), Seq(F, G), Sym(2, 1), Seq(Par(F, Eta()), Mu())]
    for t in probes:
        base = eval_term(t, SIG_FG)
        for v in one_step_variants(t):
            assert iso_equal(eval_term(v, SIG_FG), base)


def test_closure_of_mu_frozen_size_and_commutativity_witness():
    cl = axiom_closure(Mu(), 6)
    assert len(cl.members) == 211
    assert Seq(Sym(1, 1), Mu()) in cl.members
    assert cl.truncated


def test_closure_of_identity_contains_its_self_composition():
    cl = axiom_closure(Id(1), 3)
    assert Seq(Id(1), Id(1)) in cl.members


def test_closure_of_eta_at_its_own_size_is_singleton():
    cl = axiom_closure(Eta(), 1)
    assert cl.members == frozenset([Eta()])
    assert cl.truncated


def test_closure_rejects_bound_below_seed():
    with pytest.raises(BoundTooSmall):
        axiom_closure(Seq(F, G), 2)


@pytest.mark.parametrize(
    "seed,bound,count",
    [
        (Mu(), 6, 211),
        (Eta(), 5, 136),
        (Id(1), 5, 288),
        (Sym(1, 1), 5, 189),
        (F, 7, 2997),
    ],
)
def test_pooled_closure_matches_reference_bfs(seed, bound, count):
    cl = axiom_closure(seed, bound)
    members, truncated = naive_closure(seed, bound)
    assert cl.members == frozenset(members)
    assert cl.truncated == truncated
    assert len(cl.members) == count


def test_closure_symmetry_on_sampled_members():
    cl = axiom_closure(Mu(), 6)
    rng = random.Random(0)
    for m in rng.sample(sorted(cl.members, key=repr), 5):
        assert Mu() in axiom_closure(m, 6).members


def test_equality_mod_axioms_examples():
    assert Seq(Sym(1, 1), Mu()) in axiom_closure(Mu(), 6).members
    assert Id(1) in axiom_closure(Id(1), 3).members
    # same type, disjoint truncated closures: cannot certify
    assert axiom_closure(F, 3).members.isdisjoint(axiom_closure(G, 3).members)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_equal_terms_evaluate_iso(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3, max_generators=2, max_width=2)
    if term_size(t) > 7:
        return
    cl = axiom_closure(t, term_size(t) + 2)
    base = eval_term(t, SIG3)
    for m in sorted(cl.members, key=repr)[:20]:
        assert iso_equal(eval_term(m, SIG3), base)


def test_identity_rule_rewrites_to_closure_equal_terms():
    results = enumerate_rewrites_bruteforce((F, F), Seq(F, G), 9)
    base = eval_term(Seq(F, G), SIG_FG)
    assert results
    for r in results:
        assert iso_equal(eval_term(r, SIG_FG), base)


def test_whole_term_redex_rewrite():
    results = enumerate_rewrites_bruteforce((F, G), F, 7)
    keys = {
        iso_equal(eval_term(r, SIG_FG), eval_term(G, SIG_FG))
        for r in results
    }
    assert keys == {True}


def test_eta_attachment_variant_found_at_widened_bound():
    # the merge-attachment rewrite of `f` by id_1 => g needs a size-9
    # context witness, so bound 7 misses it and bound 9 finds it
    target = eval_term(Seq(Par(F, Seq(Eta(), G)), Mu()), SIG_FG)
    small = enumerate_rewrites_bruteforce((Id(1), G), F, 7)
    assert not any(iso_equal(eval_term(r, SIG_FG), target) for r in small)
    wide = enumerate_rewrites_bruteforce((Id(1), G), F, 9)
    assert any(iso_equal(eval_term(r, SIG_FG), target) for r in wide)


def test_laws_cover_the_expected_names():
    names = [law.name for law in LAWS]
    assert len(names) == len(set(names)) == 14
    assert sum(law.derived for law in LAWS) == 1


# The 16 distinct hosts of the benchmark's oracle-compare pairs, each with
# the rules it is paired with there.
BENCH_HOSTS = {
    "f": ("f => g", "f => f ; f", "f => (s + f) ; mu"),
    "g": ("f => g", "g => f"),
    "s": ("s => s ; f",),
    "h": ("h => mu", "h => (g + g) ; h", "h => sym_1_1 ; h"),
    "f ; f": ("f => g", "f => f ; f", "f => (s + f) ; mu"),
    "f ; g": ("f => g", "f ; g => g ; f", "f => f ; f"),
    "g ; f": ("g => f",),
    "s ; f": ("s => s ; f", "f => (s + f) ; mu"),
    "(f + f) ; mu": ("f => g",),
    "(f + f) ; h": ("h => mu", "h => sym_1_1 ; h", "h => (g + g) ; h"),
    "(g + g) ; h": ("h => mu",),
    "(f ; g) ; f": ("f ; g => g ; f",),
    "(s + s) ; mu": ("(s + s) ; mu => s", "s => s ; f"),
    "(f ; f) ; f": ("f => g",),
    "(f ; g) ; g": ("f => g",),
    "(g ; g) ; g": ("g => f",),
}


def assert_matches_reference(seed, bound, rules):
    cl = axiom_closure(seed, bound)
    members, truncated = pool_closure(seed, bound)
    assert cl.members == members
    assert cl.truncated == truncated
    pool, keys = oracle.enumerate_rewrite_keys(rules, seed, bound)
    found = [frozenset(map(pool.term, ks)) for ks in keys]
    assert found == [bruteforce_rewrites(rule, members) for rule in rules]
    assert enumerate_rewrites_bruteforce(rules[0], seed, bound) == found[0]


@pytest.mark.parametrize("host", sorted(BENCH_HOSTS))
def test_closure_and_rewrites_match_reference_on_benchmark_hosts(
    host, unary_sig
):
    t = parse_term(host, unary_sig)
    rules = [
        tuple(parse_term(side, unary_sig) for side in rule.split("=>"))
        for rule in BENCH_HOSTS[host]
    ]
    assert_matches_reference(t, term_size(t) + 4, rules)


@pytest.mark.parametrize(
    "seed,bound,rules",
    [
        (Mu(), 6, [(Mu(), Seq(Sym(1, 1), Mu()))]),
        (Eta(), 5, [(Eta(), Eta())]),
        (Id(1), 5, [(Id(1), G), (Id(1), Id(1))]),
        (Sym(1, 1), 5, [(Sym(1, 1), Sym(1, 1)), (Id(1), G)]),
        (F, 7, [(F, G), (Id(1), G), (F, Seq(F, F))]),
    ],
)
def test_closure_and_rewrites_match_reference_on_small_seeds(
    seed, bound, rules
):
    assert_matches_reference(seed, bound, rules)


def subterms(t):
    yield t
    if isinstance(t, (Seq, Par)):
        yield from subterms(t.fst)
        yield from subterms(t.snd)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closure_and_rewrites_match_reference_on_random_terms(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3, max_generators=2, max_width=2)
    if term_size(t) > 6:
        return
    parts = list(subterms(t))
    a, b = rng.choice(parts), rng.choice(parts)
    assert_matches_reference(t, term_size(t) + 2, [(a, a), (b, Par(Id(0), b))])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_every_closure_is_truncated(seed, extra):
    # Seq(t, id_n) is two nodes larger than t, so the search reaches a
    # member within one node of the bound whose unit variant exceeds it
    t = random_term(random.Random(seed), SIG3, max_generators=1, max_width=2)
    if term_size(t) > 5:
        return
    bound = term_size(t) + extra
    closure = axiom_closure(t, bound)
    assert closure.truncated
    # so disjoint closures never certify two terms of one type distinct,
    # not even when their generators differ
    u = renamed(t)
    meet = not closure.members.isdisjoint(axiom_closure(u, bound).members)
    assert meet == (u == t)


def renamed(t):
    """t with every generator g replaced by a fresh g2 of the same type."""
    if isinstance(t, Gen):
        return Gen(t.name + "2", t.dom, t.cod)
    if isinstance(t, (Seq, Par)):
        return type(t)(renamed(t.fst), renamed(t.snd))
    return t


@pytest.mark.parametrize("seed", [Id(0), Eta(), Mu(), Sym(0, 0)])
def test_closure_at_the_seeds_own_size_is_truncated(seed):
    assert axiom_closure(seed, term_size(seed)).truncated


def root_of(t):
    pool = oracle.TermPool()
    return pool.root(pool.intern(t))


def test_root_laws_run_once_per_distinct_subterm(monkeypatch):
    applied = {law.name: [] for law in LAWS}

    def counting(law):
        def shapes(pool, key):
            applied[law.name].append(pool.term(key))
            return law.shapes(pool, key)

        return dataclasses.replace(law, shapes=shapes)

    monkeypatch.setattr(oracle, "LAWS", tuple(counting(law) for law in LAWS))
    cl = axiom_closure(Seq(Seq(F, F), F), 9)
    everywhere = {s for m in cl.members for s in subterms(m)}
    for name, terms in applied.items():
        assert len(terms) == len(set(terms)), name
    for law in LAWS:
        # each law runs at exactly the roots it declares, and the raw law
        # yields nothing at a subterm it skipped
        listed = {s for s in everywhere if law.fires_at(root_of(s))}
        assert set(applied[law.name]) == listed, law.name
        for s in everywhere - listed:
            assert list(law.variants(s)) == [], (law.name, s)
    assert any(set(applied[law.name]) != everywhere for law in LAWS)


def full_root_shapes(pool, key):
    """The root shapes of every law of LAWS at key, in LAWS order."""
    return [shape for law in LAWS for shape in law.shapes(pool, key)]


def undispatched_root_variant_keys(pool, key):
    """TermPool._root_variant_keys before laws were dispatched by root:
    every law runs, unit wraps are built at any size, and the variants
    above the bound are dropped afterwards."""
    bound, pool.bound = pool.bound, math.inf
    try:
        shapes = full_root_shapes(pool, key)
    finally:
        pool.bound = bound
    sizes = pool._sizes
    return tuple(
        pool._keys[shape]
        for shape in shapes
        if shape[0] > oracle._PAR
        or 1 + sizes[shape[1]] + sizes[shape[2]] <= bound
    )


def assert_dispatch_matches_full_laws(pool):
    """On every key of the pool, the dispatched laws' root shapes are the
    full list of LAWS, element for element, and the root variants are
    those of the search before dispatch."""
    for key in range(len(pool._shapes)):
        dispatched = pool.laws_at(pool.root(key))
        shapes = [s for law in dispatched for s in law.shapes(pool, key)]
        assert shapes == full_root_shapes(pool, key), key
        expected = undispatched_root_variant_keys(pool, key)
        assert pool._root_variant_keys(key) == expected, key


def test_dispatched_laws_match_full_laws_on_benchmark_closures(unary_sig):
    keys = 0
    for host, rules in BENCH_HOSTS.items():
        t = parse_term(host, unary_sig)
        pairs = [
            tuple(parse_term(side, unary_sig) for side in rule.split("=>"))
            for rule in rules
        ]
        pool, _ = oracle.enumerate_rewrite_keys(pairs, t, term_size(t) + 4)
        keys += len(pool._shapes)
        assert_dispatch_matches_full_laws(pool)
    assert keys > 100000


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_dispatched_laws_match_full_laws_on_random_terms(seed, slack):
    t = random_term(random.Random(seed), SIG3, max_generators=3, max_width=3)
    pool = oracle.TermPool(term_size(t) + slack)
    pool.intern(t)
    assert_dispatch_matches_full_laws(pool)


# terms of this signature have odd sizes, so at an odd bound no key is
# one node short of it
@pytest.mark.parametrize("bound", [9, 10])
def test_closure_wraps_within_the_bound_and_matches_each_chain_once(
    bound, unary_sig, monkeypatch
):
    wraps = {"fit": 0, "above": 0}

    def counting(law):
        def shapes(pool, key):
            for shape in law.shapes(pool, key):
                if shape[0] <= oracle._PAR and key in shape[1:]:
                    fits = pool.size(key) + 2 <= bound
                    wraps["fit" if fits else "above"] += 1
                yield shape

        return dataclasses.replace(law, shapes=shapes)

    units = ("sequential-unit", "parallel-unit")
    monkeypatch.setattr(
        oracle,
        "LAWS",
        tuple(counting(law) if law.name in units else law for law in LAWS),
    )
    host = parse_term("(f ; g) ; f", unary_sig)
    closure = axiom_closure(host, bound)
    assert wraps["above"] == 0 and wraps["fit"] > 0

    # the matcher flattens the ;-chain of each member it matches
    matched = []
    factors = oracle.TermPool.factors

    def counting_factors(pool, key, tag):
        chain = factors(pool, key, tag)
        if tag == oracle._SEQ:
            matched.append(tuple(chain))
        return chain

    rule = tuple(parse_term(side, unary_sig) for side in ("f", "g"))
    monkeypatch.setattr(oracle.TermPool, "factors", counting_factors)
    pool, [found] = oracle.enumerate_rewrite_keys([rule], host, bound)
    monkeypatch.undo()
    # the closures are built alike, so they number their keys alike
    assert pool._shapes[: len(closure.pool._shapes)] == closure.pool._shapes
    chains = {tuple(pool.factors(k, oracle._SEQ)) for k in closure.keys}
    assert len(matched) == len(set(matched)) == len(chains)
    assert len(closure.keys) > len(chains) and found


def assert_laws_match_reference(t):
    for law in LAWS:
        expected = list(REFERENCE_LAWS[law.name](t))
        assert list(law.variants(t)) == expected, (law.name, t)


def test_reference_laws_are_the_laws_in_order():
    assert list(REFERENCE_LAWS) == [law.name for law in LAWS]


def test_law_variants_match_reference_on_benchmark_closures(unary_sig):
    everywhere = set()
    for host in BENCH_HOSTS:
        t = parse_term(host, unary_sig)
        cl = axiom_closure(t, term_size(t) + 4)
        everywhere |= {s for m in cl.members for s in subterms(m)}
    assert len(everywhere) > 30000
    for t in everywhere:
        assert_laws_match_reference(t)


ATOMS = (
    [Id(n) for n in range(4)]
    + [Sym(i, j) for i in range(3) for j in range(3)]
    + [Mu(), Eta()]
)


# (mu + id_1) ; (eta + mu) is well typed, but its halves do not chain
# (mu : 2->1 against eta : 0->1), so interchange must not fire
UNCHAINED_HALVES = Seq(Par(Mu(), Id(1)), Par(Eta(), Mu()))


@pytest.mark.parametrize(
    "t", ATOMS + list(MERGE_REDEXES) + [UNCHAINED_HALVES], ids=repr
)
def test_law_variants_match_reference_on_atoms_and_merge_redexes(t):
    assert_laws_match_reference(t)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
def test_every_law_rejects_an_ill_typed_term(law):
    # interning types the whole term, so every law's Term view raises, not
    # only the laws that read a type
    with pytest.raises(TypeMismatch):
        list(law.variants(Par(Seq(Mu(), Mu()), F)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_law_variants_match_reference_on_random_terms(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3, max_generators=3, max_width=3)
    for s in subterms(t):
        assert_laws_match_reference(s)


@pytest.mark.parametrize("host", ["(f ; f) ; f", "(f + f) ; h"])
def test_closure_types_no_terms_and_builds_none(host, unary_sig, monkeypatch):
    t = parse_term(host, unary_sig)
    calls = []

    def counting_type(u):
        calls.append(u)
        return term_type(u)

    monkeypatch.setattr(sigterm, "term_type", counting_type)
    monkeypatch.setattr(oracle, "term_type", counting_type)
    cl = axiom_closure(t, 9)
    assert calls == []
    assert len(cl.keys) > 1000
    # the pool holds a Term for each of the seed's distinct subterms and
    # for nothing else, and each is one of the seed's own objects
    held = list(cl.pool._terms.values())
    assert len(held) == len(set(subterms(t)))
    assert {id(u) for u in held} <= {id(s) for s in subterms(t)}


def printed(reps):
    return {key: pretty_print(t) for key, t in reps.items()}


def assert_classes_match_reference(host, rules, bound, sig):
    """oracle-compare's classes of each rule's rewrites, and of all the
    rules' together, equal those of the reference that evaluates every
    rewrite: the same keys, represented by the same text."""
    pairs = [
        tuple(parse_term(side, sig) for side in rule.split("=>"))
        for rule in rules
    ]
    pool, found = oracle.enumerate_rewrite_keys(
        pairs, parse_term(host, sig), bound
    )
    together: dict = {}
    for keys in found:
        expected = evaluated_classes([frozenset(map(pool.term, keys))], sig)
        reps, cospans = cli._oracle_classes(pool, [keys], sig)
        assert printed(reps) == printed(expected)
        assert all(cospan_key(c) == key for key, c in cospans.items())
        # the old loop sorted each rule on its own: the first rule to
        # reach a class represents it
        for key, t in expected.items():
            together.setdefault(key, t)
    reps, _ = cli._oracle_classes(pool, found, sig)
    assert printed(reps) == printed(together)


@pytest.mark.parametrize("slack", [4, 6])
@pytest.mark.parametrize("host", sorted(BENCH_HOSTS))
def test_oracle_classes_match_reference_on_benchmark_hosts(
    host, slack, unary_sig
):
    bound = term_size(parse_term(host, unary_sig)) + slack
    assert_classes_match_reference(host, BENCH_HOSTS[host], bound, unary_sig)


@pytest.mark.parametrize(
    "host, rule",
    [("((f + f) ; h) ; g", "h => mu"), ("((f + f) ; mu) ; f", "f => g")],
)
def test_oracle_classes_match_reference_on_criterion_4_extra_hosts(
    host, rule, unary_sig
):
    # size + 4 keeps each within a second; size + 6 takes about 10 s
    bound = term_size(parse_term(host, unary_sig)) + 4
    assert_classes_match_reference(host, [rule], bound, unary_sig)


SIG_FGHS = parse_signature(
    "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([SIG3, SIG_FGHS]))
def test_class_walk_gives_each_term_its_cospans_class(seed, sig):
    # the terms share one pool, so they share the walk's values and its
    # glued joins; each term is one rule's only rewrite, so the first
    # term of each class represents it
    rng = random.Random(seed)
    terms = [random_term(rng, sig, max_generators=4) for _ in range(4)]
    pool = oracle.TermPool()
    found = [frozenset({pool.intern(t)}) for t in terms]
    reps, cospans = cli._oracle_classes(pool, found, sig)
    first: dict = {}
    for t in terms:
        first.setdefault(cospan_key(eval_term(t, sig)), t)
    assert reps == first
    assert all(cospan_key(c) == key for key, c in cospans.items())


@pytest.mark.parametrize("op", [Seq, Par])
def test_fold_walks_a_1200_deep_term(op):
    t = F
    for i in range(1200):
        t = op(t, F) if i % 2 else op(F, t)
    pool = oracle.TermPool()
    key = pool.intern(t)
    values = pool.fold(
        [key], lambda atom: 1, lambda _, a, b: 1 + a + b
    )
    assert values[key] == pool.size(key) == term_size(t) == 2401
