"""The oracle as it was before it worked on pool keys, kept as the
reference the oracle is tested against. The laws act on Terms and call
term_type; every member rebuilds the variant list of every subterm it
contains, out-of-bound variants included, and matching compares Terms.
`evaluated_classes` is oracle-compare's classification of the rewrites
before it worked on pool keys. Nothing here runs code from cmonrw.oracle."""

from __future__ import annotations

from typing import Callable, Iterator

from cmonrw.cospan import cospan_key
from cmonrw.errors import BoundTooSmall
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
    pretty_print,
    term_size,
    term_type,
)
from cmonrw.translate import eval_term


# The laws, in the order of cmonrw.oracle.LAWS, each yielding the variants
# of a Term at its root.


def _v_seq_assoc(t: Term) -> Iterator[Term]:
    if isinstance(t, Seq):
        if isinstance(t.fst, Seq):
            yield Seq(t.fst.fst, Seq(t.fst.snd, t.snd))
        if isinstance(t.snd, Seq):
            yield Seq(Seq(t.fst, t.snd.fst), t.snd.snd)


def _v_seq_unit(t: Term) -> Iterator[Term]:
    if isinstance(t, Seq):
        if isinstance(t.fst, Id):
            yield t.snd
        if isinstance(t.snd, Id):
            yield t.fst
    m, n = term_type(t)
    yield Seq(Id(m), t)
    yield Seq(t, Id(n))


def _v_par_assoc(t: Term) -> Iterator[Term]:
    if isinstance(t, Par):
        if isinstance(t.fst, Par):
            yield Par(t.fst.fst, Par(t.fst.snd, t.snd))
        if isinstance(t.snd, Par):
            yield Par(Par(t.fst, t.snd.fst), t.snd.snd)


def _v_par_unit(t: Term) -> Iterator[Term]:
    if isinstance(t, Par):
        if t.fst == Id(0):
            yield t.snd
        if t.snd == Id(0):
            yield t.fst
    yield Par(Id(0), t)
    yield Par(t, Id(0))


def _v_id_fusion(t: Term) -> Iterator[Term]:
    if isinstance(t, Par) and isinstance(t.fst, Id) and isinstance(t.snd, Id):
        yield Id(t.fst.n + t.snd.n)
    if isinstance(t, Id):
        for i in range(t.n + 1):
            yield Par(Id(i), Id(t.n - i))


def _v_interchange(t: Term) -> Iterator[Term]:
    if isinstance(t, Par) and isinstance(t.fst, Seq) and isinstance(t.snd, Seq):
        yield Seq(
            Par(t.fst.fst, t.snd.fst), Par(t.fst.snd, t.snd.snd)
        )
    if isinstance(t, Seq) and isinstance(t.fst, Par) and isinstance(t.snd, Par):
        s, u = t.fst.fst, t.fst.snd
        s2, u2 = t.snd.fst, t.snd.snd
        if (
            term_type(s)[1] == term_type(s2)[0]
            and term_type(u)[1] == term_type(u2)[0]
        ):
            yield Par(Seq(s, s2), Seq(u, u2))


def _v_sym_involution(t: Term) -> Iterator[Term]:
    if (
        isinstance(t, Seq)
        and isinstance(t.fst, Sym)
        and isinstance(t.snd, Sym)
        and t.fst.m == t.snd.n
        and t.fst.n == t.snd.m
    ):
        yield Id(t.fst.m + t.fst.n)
    if isinstance(t, Id):
        for i in range(t.n + 1):
            yield Seq(Sym(i, t.n - i), Sym(t.n - i, i))


def _v_sym_naturality(t: Term) -> Iterator[Term]:
    if isinstance(t, Seq) and isinstance(t.fst, Par) and isinstance(t.snd, Sym):
        s, ident = t.fst.fst, t.fst.snd
        if isinstance(ident, Id):
            o, n = term_type(s)
            if t.snd.m == n and t.snd.n == ident.n:
                yield Seq(Sym(o, ident.n), Par(Id(ident.n), s))
    if isinstance(t, Seq) and isinstance(t.fst, Sym) and isinstance(t.snd, Par):
        ident, s = t.snd.fst, t.snd.snd
        if isinstance(ident, Id):
            o, n = term_type(s)
            if t.fst.m == o and t.fst.n == ident.n:
                yield Seq(Par(s, Id(ident.n)), Sym(n, ident.n))


def _v_sym_decomposition(t: Term) -> Iterator[Term]:
    if isinstance(t, Sym):
        for n in range(t.n + 1):
            yield Seq(
                Par(Sym(t.m, n), Id(t.n - n)),
                Par(Id(n), Sym(t.m, t.n - n)),
            )
    if isinstance(t, Seq) and isinstance(t.fst, Par) and isinstance(t.snd, Par):
        a, b = t.fst.fst, t.fst.snd
        c, d = t.snd.fst, t.snd.snd
        if (
            isinstance(a, Sym)
            and isinstance(b, Id)
            and isinstance(c, Id)
            and isinstance(d, Sym)
            and a.m == d.m
            and a.n == c.n
            and b.n == d.n
        ):
            yield Sym(a.m, a.n + b.n)


# the merge laws' redexes, built once
_MU = Mu()
_ID1 = Id(1)
_MU_SWAPPED = Seq(Sym(1, 1), Mu())
_MU_ASSOC_LEFT = Seq(Par(Mu(), Id(1)), Mu())
_MU_ASSOC_RIGHT = Seq(Par(Id(1), Mu()), Mu())
_MU_UNIT_LEFT = Seq(Par(Eta(), Id(1)), Mu())
_MU_UNIT_RIGHT = Seq(Par(Id(1), Eta()), Mu())
MERGE_REDEXES = (
    _MU,
    _MU_SWAPPED,
    _MU_ASSOC_LEFT,
    _MU_ASSOC_RIGHT,
    _MU_UNIT_LEFT,
    _MU_UNIT_RIGHT,
)


def _v_merge_commutativity(t: Term) -> Iterator[Term]:
    if t == _MU:
        yield _MU_SWAPPED
    if t == _MU_SWAPPED:
        yield _MU


def _v_merge_associativity(t: Term) -> Iterator[Term]:
    if t == _MU_ASSOC_LEFT:
        yield _MU_ASSOC_RIGHT
    if t == _MU_ASSOC_RIGHT:
        yield _MU_ASSOC_LEFT


def _v_merge_unit_left(t: Term) -> Iterator[Term]:
    if t == _MU_UNIT_LEFT:
        yield _ID1
    if t == _ID1:
        yield _MU_UNIT_LEFT


def _v_merge_unit_right(t: Term) -> Iterator[Term]:
    if t == _MU_UNIT_RIGHT:
        yield _ID1
    if t == _ID1:
        yield _MU_UNIT_RIGHT


def _v_sym_unit(t: Term) -> Iterator[Term]:
    if isinstance(t, Sym):
        if t.m == 0:
            yield Id(t.n)
        if t.n == 0:
            yield Id(t.m)
    if isinstance(t, Id):
        yield Sym(t.n, 0)
        yield Sym(0, t.n)


REFERENCE_LAWS: dict[str, Callable[[Term], Iterator[Term]]] = {
    "sequential-associativity": _v_seq_assoc,
    "sequential-unit": _v_seq_unit,
    "parallel-associativity": _v_par_assoc,
    "parallel-unit": _v_par_unit,
    "identity-fusion": _v_id_fusion,
    "interchange": _v_interchange,
    "symmetry-involution": _v_sym_involution,
    "symmetry-naturality": _v_sym_naturality,
    "symmetry-decomposition": _v_sym_decomposition,
    "merge-commutativity": _v_merge_commutativity,
    "merge-associativity": _v_merge_associativity,
    "merge-unit-left": _v_merge_unit_left,
    "merge-unit-right": _v_merge_unit_right,
    "symmetry-unit": _v_sym_unit,
}


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
                self.intern(v)
                for variants in REFERENCE_LAWS.values()
                for v in variants(t)
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


def evaluated_classes(
    found: list[frozenset[Term]], sig: Signature
) -> dict[tuple, Term]:
    """Each rewrite class by cospan_key, with its representative. Each
    rule's rewrites are sorted by (size, pretty_print), then evaluated and
    keyed one by one; the first rewrite of a class that no earlier rule
    reached represents it."""
    reps: dict[tuple, Term] = {}
    for rewrites in found:
        for t in sorted(rewrites, key=lambda t: (t.size, pretty_print(t))):
            reps.setdefault(cospan_key(eval_term(t, sig)), t)
    return reps
