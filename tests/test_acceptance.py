"""Acceptance gate: the seven headline guarantees, one test per criterion.

Each test appends a single PASS/FAIL line to the terminal summary and
enforces its stated time budget.
"""

from __future__ import annotations

import time
from itertools import product

import pytest
from _acceptance_registry import record

from corpus import (
    SIG3,
    complement_mutations,
    random_rm_cospan,
    random_convex_sub,
    random_gluing,
    random_in_cuts,
    random_out_cuts,
    random_term,
    random_updown_signature,
    rng_from_env,
    sample_law_instance,
)
from cmonrw.cospan import (
    Cospan,
    FinFunction,
    compose,
    cospan_key,
    cospan_to_document,
    cospan_to_function,
    function_to_cospan,
    identity_cospan,
    iso_equal,
    tensor,
)
from cmonrw.decompose import (
    edge_levels,
    factorise_into_levels,
    level0_decompose,
    node_orders,
    readback_term,
    recompose_levels,
    recompose_strong,
    recompose_weak,
    strong_decompose,
    weak_decompose,
)
from cmonrw.dpo import (
    RewriteRule,
    boundary_complement,
    complement_is_valid,
    enumerate_convex_matches,
    normalize,
    rewrite_all,
)
from cmonrw.errors import StepBudgetExhausted
from cmonrw.hypergraph import find_homomorphisms, is_convex
from cmonrw.oracle import LAWS, enumerate_rewrites_bruteforce
from cmonrw.sigterm import (
    Mu,
    Seq,
    Sym,
    parse_signature,
    parse_term,
    term_size,
)
from cmonrw.translate import eval_term

RULE_SIG = parse_signature(
    "gen f : 1 -> 1\ngen g : 1 -> 1\ngen h : 2 -> 1\ngen s : 0 -> 1\n"
)


def _all_fns(m: int, n: int):
    if m == 0:
        yield FinFunction(0, n, ())
        return
    for table in product(range(n), repeat=m):
        yield FinFunction(m, n, table)


def test_criterion_1_monoidal_functor_matches_finite_functions():
    start = time.perf_counter()
    pairs = 0
    failures = 0
    for n in range(0, 5):
        fs = [f for m in range(0, 5) for f in _all_fns(m, n)]
        gs = [g for p in range(0, 5) for g in _all_fns(n, p)]
        for f in fs:
            cf = function_to_cospan(f)
            for g in gs:
                cg = function_to_cospan(g)
                if cospan_to_function(compose(cf, cg)) != f.compose(g):
                    failures += 1
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    record(
        1,
        ok,
        f"composition agrees on {pairs - failures}/{pairs} function pairs "
        f"(m,n,p <= 4), {elapsed:.2f}s of 10s",
    )
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_2_readback_roundtrip_on_random_terms():
    start = time.perf_counter()
    rng = rng_from_env()
    checked = 0
    failures = 0
    for _ in range(300):
        t = random_term(rng, SIG3, max_generators=6, max_width=4)
        c = eval_term(t, SIG3)
        rb = readback_term(c, SIG3)
        if not iso_equal(eval_term(rb, SIG3), c):
            failures += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    record(
        2,
        ok,
        f"readback roundtrip holds on {checked - failures}/{checked} "
        f"random terms, {elapsed:.2f}s of 60s",
    )
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_3_all_laws_preserved_in_the_cospan_model():
    rng = rng_from_env()
    total = 0
    failures = []
    for law in LAWS:
        for _ in range(100):
            lhs, rhs = sample_law_instance(rng, law.name, SIG3)
            if not iso_equal(eval_term(lhs, SIG3), eval_term(rhs, SIG3)):
                failures.append(law.name)
            total += 1
    ok = not failures
    record(
        3,
        ok,
        f"{total - len(failures)}/{total} instantiations across "
        f"{len(LAWS)} laws evaluate to isomorphic cospans",
    )
    assert failures == []


# Every lhs contains a generator: identity-only patterns need closure
# detours above the size+6 bound, see the idg cases in test_oracle.py.
CURATED_PAIRS = [
    ("fg", "f => g", "f"),
    ("fg", "f => g", "g"),
    ("gf", "g => f", "g"),
    ("sf", "s => s ; f", "s"),
    ("hm", "h => mu", "h"),
    ("fdup", "f => f ; f", "f"),
    ("feta", "f => (s + f) ; mu", "f"),
    ("hsplit", "h => (g + g) ; h", "h"),
    ("hcomm", "h => sym_1_1 ; h", "h"),
    ("fg", "f => g", "f ; f"),
    ("fg", "f => g", "f ; g"),
    ("gf", "g => f", "g ; f"),
    ("fswap", "f ; g => g ; f", "f ; g"),
    ("sf", "s => s ; f", "s ; f"),
    ("fdup", "f => f ; f", "f ; f"),
    ("fdup", "f => f ; f", "f ; g"),
    ("feta", "f => (s + f) ; mu", "f ; f"),
    ("feta", "f => (s + f) ; mu", "s ; f"),
    ("fg", "f => g", "(f + f) ; mu"),
    ("hm", "h => mu", "(f + f) ; h"),
    ("hm", "h => mu", "(g + g) ; h"),
    ("hcomm", "h => sym_1_1 ; h", "(f + f) ; h"),
    ("hsplit", "h => (g + g) ; h", "(f + f) ; h"),
    ("fswap", "f ; g => g ; f", "(f ; g) ; f"),
    ("smerge", "(s + s) ; mu => s", "(s + s) ; mu"),
    ("sf", "s => s ; f", "(s + s) ; mu"),
    ("fg", "f => g", "(f ; f) ; f"),
    ("fg", "f => g", "(f ; g) ; g"),
    ("gf", "g => f", "(g ; g) ; g"),
    ("hm", "h => mu", "((f + f) ; h) ; g"),
    ("fg", "f => g", "((f + f) ; mu) ; f"),
]


def test_criterion_4_dpo_agrees_with_bruteforce_oracle():
    start = time.perf_counter()
    sig = RULE_SIG
    mismatches = []
    for name, rule_text, host_text in CURATED_PAIRS:
        lhs_text, rhs_text = (s.strip() for s in rule_text.split("=>"))
        lhs, rhs = parse_term(lhs_text, sig), parse_term(rhs_text, sig)
        host_term = parse_term(host_text, sig)
        bound = term_size(host_term) + 6
        rule = RewriteRule(eval_term(lhs, sig), eval_term(rhs, sig), name)
        host = eval_term(host_term, sig)
        dpo = {cospan_key(s.result): s.result for s in rewrite_all([rule], host)}
        oracle = {}
        for t in enumerate_rewrites_bruteforce((lhs, rhs), host_term, bound):
            oracle.setdefault(cospan_key(eval_term(t, sig)), t)
        diff = set(dpo) ^ set(oracle)
        if diff:
            mismatches.append((name, host_text, bound, dpo, oracle, diff))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 900.0
    record(
        4,
        ok,
        f"{len(CURATED_PAIRS) - len(mismatches)}/{len(CURATED_PAIRS)} "
        f"curated rule/host pairs have identical rewrite classes, "
        f"{elapsed:.1f}s of 900s",
    )
    for name, host_text, bound, dpo, oracle, diff in mismatches:
        print(f"witnesses for {name} on {host_text} (bound {bound}):")
        for key in sorted(diff):
            if key in dpo:
                side, doc = "dpo-only", cospan_to_document(dpo[key])
            else:
                side, doc = "oracle-only", cospan_to_document(
                    eval_term(oracle[key], RULE_SIG)
                )
            print(f"  {side}: {doc}")
    assert mismatches == []
    assert elapsed < 900.0


def test_criterion_5_decompositions_recompose():
    rng = rng_from_env()
    checked = 0
    failures = 0
    audit_failures = 0
    for _ in range(200):
        c = random_rm_cospan(rng, max_nodes=8)
        sub = random_convex_sub(rng, c.carrier)
        wd = weak_decompose(c, sub, random_updown_signature(rng, c, sub))
        if not iso_equal(recompose_weak(wd), c):
            failures += 1
        inout = (
            random_in_cuts(rng, wd.upstream, wd.passthrough),
            random_out_cuts(rng, wd.extracted),
        )
        parts = strong_decompose(wd, inout, random_gluing(rng, wd, inout))
        if not iso_equal(recompose_strong(parts), c):
            failures += 1

        orders = node_orders(c)
        n = len(c.right)
        sorted_pos = sorted(range(n), key=lambda p: (orders[c.right[p]], p))
        perm = FinFunction(n, n, tuple(sorted_pos))
        sorted_c = Cospan(
            c.carrier, c.left, tuple(c.right[p] for p in sorted_pos)
        )
        split = level0_decompose(sorted_c)
        rebuilt = compose(
            split.slice,
            tensor(
                identity_cospan(split.passthrough),
                compose(split.merges, split.remainder),
            ),
        )
        if not iso_equal(compose(rebuilt, function_to_cospan(perm)), c):
            failures += 1

        lf = factorise_into_levels(c)
        if not iso_equal(recompose_levels(lf), c):
            failures += 1
        levels = edge_levels(c)
        for i, factor in enumerate(lf.factors):
            if set(factor.slice.carrier.edges) != {
                e for e, lvl in levels.items() if lvl == i
            }:
                audit_failures += 1
        checked += 1
    ok = failures == 0 and audit_failures == 0
    record(
        5,
        ok,
        f"weak/strong/level0/full-level decompositions recompose on "
        f"{checked} random cospans; {failures} recompose and "
        f"{audit_failures} level-audit failures",
    )
    assert failures == 0
    assert audit_failures == 0


def test_criterion_6_commutativity_absorbed_by_cospans():
    host = eval_term(Mu(), SIG3)
    swapped = eval_term(Seq(Sym(1, 1), Mu()), SIG3)
    absorbed = iso_equal(host, swapped)

    comm = RewriteRule(host, swapped, "comm")
    steps = rewrite_all([comm], host)
    zero_new = all(iso_equal(s.result, host) for s in steps)

    exhausted = False
    try:
        normalize([comm], host, strategy="leftmost", max_steps=25)
    except StepBudgetExhausted:
        exhausted = True
    ok = absorbed and zero_new and exhausted
    record(
        6,
        ok,
        "merge commutativity holds up to iso, every rewrite lands on the "
        "host class, and term-level normalization exhausts its budget",
    )
    assert absorbed
    assert zero_new
    assert exhausted


def test_criterion_7_invalid_complements_and_nonconvex_candidates_rejected():
    rng = rng_from_env()
    sig = SIG3
    rule = RewriteRule(
        eval_term(parse_term("b", sig), sig),
        eval_term(parse_term("mu", sig), sig),
        "bm",
    )
    hosts = [
        "(a + a) ; b",
        "((a + a) ; b) ; a",
        "(c ; b) ; a",
        "((a + a) ; b) ; c",
        "(b + a) ; b",
    ]
    mutants = 0
    false_accepts = 0
    while mutants < 100:
        for host_text in hosts:
            host = eval_term(parse_term(host_text, sig), sig)
            for match in enumerate_convex_matches(rule, host):
                for comp in boundary_complement(match, host):
                    for _kind, bad in complement_mutations(rng, comp):
                        if complement_is_valid(match, host, bad):
                            false_accepts += 1
                        mutants += 1

    pattern = eval_term(parse_term("a + a", sig), sig)
    chain_rule = RewriteRule(
        pattern, eval_term(parse_term("b ; c", sig), sig), "aa"
    )
    nonconvex = 0
    for length in range(3, 8):
        host_term = parse_term(" ; ".join(["a"] * length), sig)
        host = eval_term(host_term, sig)
        matched = {
            tuple(sorted(m.hom.edge_map.items()))
            for m in enumerate_convex_matches(chain_rule, host)
        }
        for hom in find_homomorphisms(pattern.carrier, host.carrier):
            image_nodes = frozenset(hom.node_map.values())
            image_edges = frozenset(hom.edge_map.values())
            if is_convex(host.carrier, image_nodes, image_edges):
                continue
            nonconvex += 1
            if tuple(sorted(hom.edge_map.items())) in matched:
                false_accepts += 1
    ok = false_accepts == 0 and mutants >= 100 and nonconvex >= 50
    record(
        7,
        ok,
        f"{mutants} mutated complements and {nonconvex} non-convex "
        f"candidates rejected with {false_accepts} false accepts",
    )
    assert mutants >= 100
    assert nonconvex >= 50
    assert false_accepts == 0
