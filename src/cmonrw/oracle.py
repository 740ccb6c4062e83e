"""Term-level ground truth: bounded equality modulo the category laws plus
the merge/unit equations, and brute-force enumeration of term rewrites."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator

from .errors import BoundTooSmall
from .sigterm import Eta, Gen, Id, Mu, Par, Seq, Sym, Term, term_size, term_type


@dataclass(frozen=True)
class Law:
    """One bidirectional axiom, applied at the root of a subterm."""

    name: str
    derived: bool
    variants: Callable[[Term], Iterator[Term]]


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


LAWS: tuple[Law, ...] = (
    Law("sequential-associativity", False, _v_seq_assoc),
    Law("sequential-unit", False, _v_seq_unit),
    Law("parallel-associativity", False, _v_par_assoc),
    Law("parallel-unit", False, _v_par_unit),
    Law("identity-fusion", False, _v_id_fusion),
    Law("interchange", False, _v_interchange),
    Law("symmetry-involution", False, _v_sym_involution),
    Law("symmetry-naturality", False, _v_sym_naturality),
    Law("symmetry-decomposition", False, _v_sym_decomposition),
    Law("merge-commutativity", False, _v_merge_commutativity),
    Law("merge-associativity", False, _v_merge_associativity),
    Law("merge-unit-left", False, _v_merge_unit_left),
    Law("merge-unit-right", False, _v_merge_unit_right),
    Law("symmetry-unit", True, _v_sym_unit),
)


def one_step_variants(t: Term) -> Iterator[Term]:
    """Every single application of any law at any subterm position."""
    for law in LAWS:
        yield from law.variants(t)
    if isinstance(t, Seq):
        for a in one_step_variants(t.fst):
            yield Seq(a, t.snd)
        for b in one_step_variants(t.snd):
            yield Seq(t.fst, b)
    elif isinstance(t, Par):
        for a in one_step_variants(t.fst):
            yield Par(a, t.snd)
        for b in one_step_variants(t.snd):
            yield Par(t.fst, b)


class _TermPool:
    """Hash-consed term store for one closure search: integer keys for
    structurally distinct terms, with sizes, per-key root-law variants and
    per-slack subterm variant lists memoised, so the search never rehashes
    whole subtrees and works out each subterm's variants once. Root
    variants above the bound are never interned."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._key_by_shape: dict[tuple, int] = {}
        self._key_by_id: dict[int, int] = {}
        self._shapes: list[tuple] = []
        self._sizes: list[int] = []
        self._terms: list[Term | None] = []
        self._root_variants: dict[int, tuple[int, ...]] = {}
        self._within: dict[tuple[int, int], tuple[int, ...]] = {}

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

    def _intern_within(self, t: Term) -> int | None:
        """intern(t), or None when t exceeds the bound; t's children are
        interned either way."""
        if isinstance(t, (Seq, Par)) and id(t) not in self._key_by_id:
            sizes = self._sizes
            size = 1 + sizes[self.intern(t.fst)] + sizes[self.intern(t.snd)]
            if size > self.bound:
                return None
        return self.intern(t)

    def _root_variant_keys(self, key: int) -> tuple[int, ...]:
        """Keys of the root-law variants of key that fit the bound, in LAWS
        order."""
        got = self._root_variants.get(key)
        if got is None:
            t = self.term(key)
            keys = []
            for law in LAWS:
                for v in law.variants(t):
                    k = self._intern_within(v)
                    if k is not None:
                        keys.append(k)
            got = tuple(keys)
            # a term within two nodes of the bound is a proper subterm of no
            # member, so only the member itself asks for its variants
            if self._sizes[key] + 2 <= self.bound:
                self._root_variants[key] = got
        return got

    def member_variants(self, key: int) -> list[int]:
        """Keys of the one-step variants of key that fit the bound, in
        one_step_variants order."""
        return self._variants(key, self.bound - self._sizes[key])

    def _variants(self, key: int, slack: int) -> list[int]:
        # the variants of key at most slack nodes larger than key; those
        # that are larger are dropped before they are wrapped into parents
        sizes = self._sizes
        limit = sizes[key] + slack
        out = [v for v in self._root_variant_keys(key) if sizes[v] <= limit]
        shape = self._shapes[key]
        if shape[0] < 2:
            tag, fst, snd = shape
            of_shape = self._key_of_shape
            out += [
                of_shape((tag, v, snd))
                for v in self._subterm_variants(fst, slack)
            ]
            out += [
                of_shape((tag, fst, v))
                for v in self._subterm_variants(snd, slack)
            ]
        return out

    def _subterm_variants(self, key: int, slack: int) -> tuple[int, ...]:
        # memoised for proper subterms only: they recur across members of
        # one size, while the closure expands each member itself once
        got = self._within.get((key, slack))
        if got is None:
            got = self._within[key, slack] = tuple(self._variants(key, slack))
        return got

    def factors(self, key: int, tag: int) -> list[int]:
        """Keys of the maximal subterms that are not Seq (tag 0) or not Par
        (tag 1), left to right: the flattened chain or row."""
        out = []
        stack = [key]
        shapes = self._shapes
        while stack:
            k = stack.pop()
            shape = shapes[k]
            if shape[0] == tag:
                stack.append(shape[2])
                stack.append(shape[1])
            else:
                out.append(k)
        return out


@dataclass(frozen=True)
class AxiomClosure:
    """All terms reachable from the seed within the size bound.

    `keys` are the members' keys in `pool`; `members` builds their Terms on
    first use. `truncated` says that some member has a one-step variant
    above the bound, and it is True for every closure: `Seq(t, id_n)` is
    two nodes larger than t, so from the seed the search reaches a member
    within one node of the bound, and that member's unit variant exceeds
    it. `truncated` therefore cannot show that a bound saturates."""

    seed: Term
    bound: int
    keys: frozenset[int]
    pool: _TermPool = field(repr=False, compare=False)
    truncated = True

    @cached_property
    def members(self) -> frozenset[Term]:
        return frozenset(self.pool.term(k) for k in self.keys)


def axiom_closure(t: Term, bound: int) -> AxiomClosure:
    """BFS fixpoint of bidirectional law application within the bound."""
    term_type(t)
    if term_size(t) > bound:
        raise BoundTooSmall(
            f"seed has size {term_size(t)}, above bound {bound}"
        )
    pool = _TermPool(bound)
    seed = pool.intern(t)
    seen: set[int] = {seed}
    frontier: list[int] = [seed]
    while frontier:
        nxt: list[int] = []
        for key in frontier:
            for v in pool.member_variants(key):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return AxiomClosure(t, bound, frozenset(seen), pool)


class EqResult(Enum):
    EQUAL = "equal"
    DISTINCT_WITHIN_BOUND = "distinct-within-bound"
    UNKNOWN = "unknown"


def terms_equal_mod_axioms(t1: Term, t2: Term, bound: int) -> EqResult:
    """Bounded tri-state equality modulo all laws.

    Terms of different types are DISTINCT_WITHIN_BOUND. Terms of one type
    are EQUAL when their closures meet and UNKNOWN otherwise: distinctness
    would need a closure that is not truncated, and every closure is (see
    AxiomClosure)."""
    if term_type(t1) != term_type(t2):
        return EqResult.DISTINCT_WITHIN_BOUND
    c1 = axiom_closure(t1, bound)
    if t2 in c1.members:
        return EqResult.EQUAL
    c2 = axiom_closure(t2, bound)
    if c1.members & c2.members:
        return EqResult.EQUAL
    return EqResult.UNKNOWN


def enumerate_rewrites_by_rule(
    rules: list[tuple[Term, Term]], d: Term, bound: int
) -> list[frozenset[Term]]:
    """The rewrites enumerate_rewrites_bruteforce finds for each rule, in
    rule order, all matched against one closure of d. Matching works on
    pool keys; only the rewritten terms are built as Terms."""
    for lhs, rhs in rules:
        term_type(lhs)
        term_type(rhs)
    if not rules:
        # no closure to build, so an empty rule file cannot fail the bound
        return []
    closure = axiom_closure(d, bound)
    pool = closure.pool
    patterns = [pool.factors(pool.intern(lhs), 1) for lhs, _ in rules]
    rhs_keys = [pool.intern(rhs) for _, rhs in rules]
    of_shape = pool._key_of_shape
    shapes = pool._shapes

    def hits_in(factor: int) -> list[tuple[int, int]]:
        # (rule index, replacement key) for each rule whose pattern ends
        # the factor's row after a head of identities only
        atoms = pool.factors(factor, 1)
        out = []
        for r, pattern in enumerate(patterns):
            j = len(atoms) - len(pattern)
            if j < 0 or atoms[j:] != pattern:
                continue
            head = [shapes[a] for a in atoms[:j]]
            if any(shape[0] != 3 for shape in head):
                continue
            k = sum(shape[1] for shape in head)
            replacement = rhs_keys[r]
            if k > 0:
                replacement = of_shape((1, of_shape((3, k)), replacement))
            out.append((r, replacement))
        return out

    hits_by_factor: dict[int, list[tuple[int, int]]] = {}
    found: list[set[int]] = [set() for _ in rules]
    for member in closure.keys:
        chain = pool.factors(member, 0)
        for i, factor in enumerate(chain):
            hits = hits_by_factor.get(factor)
            if hits is None:
                hits = hits_by_factor[factor] = hits_in(factor)
            for r, replacement in hits:
                rebuilt = replacement if i == 0 else chain[0]
                for j in range(1, len(chain)):
                    rebuilt = of_shape(
                        (0, rebuilt, replacement if j == i else chain[j])
                    )
                found[r].add(rebuilt)
    return [frozenset(pool.term(k) for k in keys) for keys in found]


def enumerate_rewrites_bruteforce(
    rule: tuple[Term, Term], d: Term, bound: int
) -> frozenset[Term]:
    """All one-step rewrites of d by the rule, found by exhaustively
    rearranging d within the bound until the pattern sits beside an identity
    block inside one sequential factor."""
    return enumerate_rewrites_by_rule([rule], d, bound)[0]
