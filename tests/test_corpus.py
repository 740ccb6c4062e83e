"""Sanity checks for the seeded random generators used across the suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from corpus import (
    DEFAULT_SEED,
    LAW_SAMPLERS,
    SIG3,
    complement_mutations,
    random_convex_sub,
    random_rm_cospan,
    random_term,
    random_typed_term,
    rng_from_env,
    sample_law_instance,
)
from cmonrw.cospan import is_right_monogamous, iso_equal
from cmonrw.dpo import RewriteRule, boundary_complement, enumerate_convex_matches
from cmonrw.hypergraph import is_acyclic, is_convex
from cmonrw.oracle import LAWS
from cmonrw.sigterm import Gen, Par, Seq, Term, term_type
from cmonrw.translate import eval_term


def count_generators(t: Term) -> int:
    if isinstance(t, (Seq, Par)):
        return count_generators(t.fst) + count_generators(t.snd)
    return 1 if isinstance(t, Gen) else 0


@given(st.integers(0, 2**32 - 1))
def test_random_term_respects_budgets(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG3, max_generators=6, max_width=4)
    m, n = term_type(t)
    assert m <= 4 and n <= 4
    assert count_generators(t) <= 6
    c = eval_term(t, SIG3)
    assert c.arity == m and c.coarity == n


@given(st.integers(0, 2**32 - 1))
def test_random_typed_term_hits_requested_type(seed):
    rng = random.Random(seed)
    # cod 0 is uninhabited from positive width: nothing deletes a wire
    dom, cod = rng.randint(0, 4), rng.randint(1, 4)
    t = random_typed_term(rng, SIG3, dom, cod)
    assert term_type(t) == (dom, cod)


@given(st.integers(0, 2**32 - 1))
def test_random_rm_cospan_is_well_formed(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng, max_nodes=8)
    assert len(c.carrier.nodes) <= 8
    assert is_right_monogamous(c)
    assert is_acyclic(c.carrier)


@given(st.integers(0, 2**32 - 1))
def test_random_convex_sub_is_convex(seed):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    sub = random_convex_sub(rng, c.carrier)
    assert sub.edges <= set(c.carrier.edges)
    assert is_convex(c.carrier, sub.nodes, sub.edges)


def test_law_samplers_cover_all_laws():
    assert set(LAW_SAMPLERS) == {law.name for law in LAWS}


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_law_instances_are_type_correct(seed):
    rng = random.Random(seed)
    name = rng.choice(sorted(LAW_SAMPLERS))
    lhs, rhs = sample_law_instance(rng, name, SIG3)
    assert term_type(lhs) == term_type(rhs)


def test_complement_mutations_are_all_invalid():
    sig = SIG3
    from cmonrw.sigterm import parse_term

    rule = RewriteRule(
        eval_term(parse_term("b", sig), sig),
        eval_term(parse_term("mu", sig), sig),
        "bm",
    )
    host = eval_term(parse_term("((a + a) ; b) ; a", sig), sig)
    rng = random.Random(11)
    known = {
        "merge-c1-pair",
        "overlap-c1-c2",
        "duplicate-right-leg",
        "right-leg-not-terminal",
        "c1-grows-outputs",
    }
    seen = set()
    for match in enumerate_convex_matches(rule, host):
        for comp in boundary_complement(match, host):
            for kind, _bad in complement_mutations(rng, comp):
                assert kind in known
                seen.add(kind)
    assert seen == known


def test_rng_from_env_reads_seed(monkeypatch):
    monkeypatch.setenv("CMONRW_SEED", "123")
    a, b = rng_from_env(), rng_from_env()
    assert a.random() == b.random()
    monkeypatch.delenv("CMONRW_SEED")
    c = rng_from_env()
    assert c.getstate() == random.Random(DEFAULT_SEED).getstate()


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 20250817


UPDOWN_DIGEST = """
import hashlib, random
from corpus import (
    random_convex_sub, random_rm_cospan, random_updown_signature,
)
lines = []
for seed in range(200):
    rng = random.Random(seed)
    c = random_rm_cospan(rng)
    sub = random_convex_sub(rng, c.carrier)
    drawn = random_updown_signature(rng, c, sub)
    lines.append(repr(sorted(
        (v, sorted(up), sorted(low)) for v, (up, low) in drawn.items()
    )))
    lines.append(repr(rng.random()))
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def test_updown_signature_draws_do_not_depend_on_the_hash_seed():
    here = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(here, "..", "src"), here])
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", UPDOWN_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(done.stdout)
    assert len(digests) == 1
