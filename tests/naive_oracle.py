"""The closure search and rewrite matcher that per-slack variant lists and
key-level matching replaced, kept as the reference the oracle is tested
against. Every member rebuilds the variant list of every subterm it
contains, out-of-bound variants included, and matching compares Terms."""

from __future__ import annotations

from cmonrw.errors import BoundTooSmall
from cmonrw.oracle import LAWS
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Sym,
    Term,
    term_size,
    term_type,
)


class NaivePool:
    """Hash-consed term store: integer keys for structurally distinct terms,
    with sizes and per-key root-law variants memoised so the closure search
    never rehashes whole subtrees."""

    def __init__(self) -> None:
        self._key_by_shape: dict[tuple, int] = {}
        self._key_by_id: dict[int, int] = {}
        self._shapes: list[tuple] = []
        self._sizes: list[int] = []
        self._terms: list[Term | None] = []
        self._root_variants: dict[int, tuple[int, ...]] = {}

    def _key_of_shape(self, shape: tuple) -> int:
        key = self._key_by_shape.get(shape)
        if key is None:
            key = len(self._shapes)
            self._key_by_shape[shape] = key
            self._shapes.append(shape)
            if shape[0] < 2:
                self._sizes.append(
                    1 + self._sizes[shape[1]] + self._sizes[shape[2]]
                )
            else:
                self._sizes.append(1)
            self._terms.append(None)
        return key

    def intern(self, t: Term) -> int:
        # only canonical objects enter the id cache, so transient duplicates
        # cannot leave stale entries behind once collected
        key = self._key_by_id.get(id(t))
        if key is not None:
            return key
        if isinstance(t, Seq):
            shape: tuple = (0, self.intern(t.fst), self.intern(t.snd))
        elif isinstance(t, Par):
            shape = (1, self.intern(t.fst), self.intern(t.snd))
        elif isinstance(t, Gen):
            shape = (2, t.name, t.dom, t.cod)
        elif isinstance(t, Id):
            shape = (3, t.n)
        elif isinstance(t, Sym):
            shape = (4, t.m, t.n)
        elif isinstance(t, Mu):
            shape = (5,)
        else:
            shape = (6,)
        key = self._key_of_shape(shape)
        if self._terms[key] is None:
            self._terms[key] = t
            self._key_by_id[id(t)] = key
        return key

    def size(self, key: int) -> int:
        return self._sizes[key]

    def term(self, key: int) -> Term:
        t = self._terms[key]
        if t is None:
            shape = self._shapes[key]
            tag = shape[0]
            if tag == 0:
                t = Seq(self.term(shape[1]), self.term(shape[2]))
            elif tag == 1:
                t = Par(self.term(shape[1]), self.term(shape[2]))
            elif tag == 2:
                t = Gen(shape[1], shape[2], shape[3])
            elif tag == 3:
                t = Id(shape[1])
            elif tag == 4:
                t = Sym(shape[1], shape[2])
            elif tag == 5:
                t = Mu()
            else:
                t = Eta()
            self._terms[key] = t
            self._key_by_id[id(t)] = key
        return t

    def _root_variant_keys(self, key: int) -> tuple[int, ...]:
        got = self._root_variants.get(key)
        if got is None:
            t = self.term(key)
            got = tuple(
                self.intern(v) for law in LAWS for v in law.variants(t)
            )
            self._root_variants[key] = got
        return got

    def variant_keys(self, key: int) -> list[int]:
        """Keys of every one-step variant, mirroring one_step_variants."""
        out = list(self._root_variant_keys(key))
        shape = self._shapes[key]
        tag = shape[0]
        if tag < 2:
            _, fst, snd = shape
            for v in self.variant_keys(fst):
                out.append(self._key_of_shape((tag, v, snd)))
            for v in self.variant_keys(snd):
                out.append(self._key_of_shape((tag, fst, v)))
        return out


def pool_closure(t: Term, bound: int) -> tuple[frozenset[Term], bool]:
    """Members and truncation of the BFS fixpoint over NaivePool."""
    term_type(t)
    if term_size(t) > bound:
        raise BoundTooSmall(
            f"seed has size {term_size(t)}, above bound {bound}"
        )
    pool = NaivePool()
    seed = pool.intern(t)
    seen: set[int] = {seed}
    frontier: list[int] = [seed]
    truncated = False
    while frontier:
        nxt: list[int] = []
        for key in frontier:
            for v in pool.variant_keys(key):
                if pool.size(v) > bound:
                    truncated = True
                elif v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(pool.term(k) for k in seen), truncated


def _flatten_seq(t: Term) -> list[Term]:
    if isinstance(t, Seq):
        return _flatten_seq(t.fst) + _flatten_seq(t.snd)
    return [t]


def _flatten_par(t: Term) -> list[Term]:
    if isinstance(t, Par):
        return _flatten_par(t.fst) + _flatten_par(t.snd)
    return [t]


def _rebuild_seq(factors: list[Term]) -> Term:
    out = factors[0]
    for f in factors[1:]:
        out = Seq(out, f)
    return out


def bruteforce_rewrites(
    rule: tuple[Term, Term], members: frozenset[Term]
) -> frozenset[Term]:
    """Every member whose sequential factor is an identity block beside
    the rule's lhs, with that factor replaced; on pool_closure's members
    this is what enumerate_rewrites_bruteforce must return."""
    lhs, rhs = rule
    term_type(lhs)
    term_type(rhs)
    pattern = _flatten_par(lhs)
    results: set[Term] = set()
    for member in members:
        chain = _flatten_seq(member)
        for i, factor in enumerate(chain):
            atoms = _flatten_par(factor)
            for j in range(len(atoms) + 1):
                head = atoms[:j]
                if head and not isinstance(head[-1], Id):
                    break
                if atoms[j:] != pattern:
                    continue
                k = sum(a.n for a in head)
                replacement = Par(Id(k), rhs) if k > 0 else rhs
                rebuilt = _rebuild_seq(
                    chain[:i] + [replacement] + chain[i + 1 :]
                )
                results.add(rebuilt)
    return frozenset(results)
