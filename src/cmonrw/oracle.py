"""Term-level ground truth: bounded closures modulo the category laws plus
the merge/unit equations, and brute-force enumeration of term rewrites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator

from .errors import BoundTooSmall
from .sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Sym,
    Term,
    term_type,
)


# Pool shapes: (_SEQ, fst, snd) and (_PAR, fst, snd) over child keys, and
# (tag, *args) for the atom _CLASSES[tag](*args): (_GEN, name, dom, cod),
# (_ID, n), (_SYM, m, n), (_MU,) and (_ETA,)
_SEQ, _PAR, _GEN, _ID, _SYM, _MU, _ETA = range(7)
_CLASSES = (Seq, Par, Gen, Id, Sym, Mu, Eta)
_TAGS = {cls: tag for tag, cls in enumerate(_CLASSES)}


@dataclass(frozen=True)
class Law:
    """One bidirectional axiom, applied at the root of a subterm.

    `shapes(pool, key)` yields the root shape of each variant of the pooled
    term `key`, the variant's children already interned in `pool`; the
    closure search runs the law this way and builds no Terms. `variants(t)`
    is the Term view: it interns t into a fresh pool, runs `shapes` and
    builds the variants, in the same order. Like interning, it raises
    TypeMismatch on an ill-typed t.

    `roots` is the set of roots (see `TermPool.root`) at which the law can
    yield a variant, None for every root. The search runs the law at no
    other root."""

    name: str
    derived: bool
    shapes: Callable[[TermPool, int], Iterator[tuple]]
    roots: frozenset[tuple] | None = None

    def fires_at(self, root: tuple) -> bool:
        return self.roots is None or root in self.roots

    def variants(self, t: Term) -> Iterator[Term]:
        pool = TermPool()
        key = pool.intern(t)
        for shape in self.shapes(pool, key):
            yield pool.term(pool._keys[shape])


def _roots(*patterns: tuple) -> frozenset[tuple]:
    """The roots that match a pattern: (tag,) for an atom, and (tag, fst's
    tag, snd's tag) for a ; or + node, where None matches any tag."""
    tags = range(len(_CLASSES))
    return frozenset(
        root
        for pattern in patterns
        for root in product(*(tags if t is None else (t,) for t in pattern))
    )


def _law(name: str, *patterns: tuple, derived: bool = False) -> Callable:
    """Decorator: the Law `name` with the decorated function as its
    `shapes`, firing at the roots that match the patterns (`_roots`)."""

    def make(shapes: Callable[[TermPool, int], Iterator[tuple]]) -> Law:
        return Law(name, derived, shapes, _roots(*patterns))

    return make


def _assoc(name: str, tag: int) -> Law:
    """The associativity law of the operator tag, _SEQ or _PAR."""

    def shapes(pool: TermPool, key: int) -> Iterator[tuple]:
        shapes = pool._shapes
        shape = shapes[key]
        if shape[0] == tag:
            key_of = pool._keys
            _, a, b = shape
            sa, sb = shapes[a], shapes[b]
            if sa[0] == tag:
                yield tag, sa[1], key_of[tag, sa[2], b]
            if sb[0] == tag:
                yield tag, key_of[tag, a, sb[1]], sb[2]

    return Law(name, False, shapes, _roots((tag, tag, None), (tag, None, tag)))


def _unit(name: str, tag: int) -> Law:
    """The unit law of the operator tag: for _SEQ, id_m ; t = t = t ; id_n
    with t : m -> n, and for _PAR, id_0 + t = t = t + id_0. It wraps t only
    where the wrap fits the pool's bound."""

    def shapes(pool: TermPool, key: int) -> Iterator[tuple]:
        shapes = pool._shapes
        shape = shapes[key]
        m, n = pool._types[key] if tag == _SEQ else (0, 0)
        left, right = (_ID, m), (_ID, n)
        if shape[0] == tag:
            if shapes[shape[1]] == left:
                yield shapes[shape[2]]
            if shapes[shape[2]] == right:
                yield shapes[shape[1]]
        # a wrap is two nodes larger than t
        if pool._sizes[key] + 2 <= pool.bound:
            yield tag, pool._keys[left], key
            yield tag, key, pool._keys[right]

    return Law(name, False, shapes)


@_law("identity-fusion", (_PAR, _ID, _ID), (_ID,))
def _id_fusion(pool: TermPool, key: int) -> Iterator[tuple]:
    shapes = pool._shapes
    shape = shapes[key]
    if shape[0] == _PAR:
        sa, sb = shapes[shape[1]], shapes[shape[2]]
        if sa[0] == _ID and sb[0] == _ID:
            yield _ID, sa[1] + sb[1]
    elif shape[0] == _ID:
        n, key_of = shape[1], pool._keys
        for i in range(n + 1):
            yield _PAR, key_of[_ID, i], key_of[_ID, n - i]


@_law("interchange", (_PAR, _SEQ, _SEQ), (_SEQ, _PAR, _PAR))
def _interchange(pool: TermPool, key: int) -> Iterator[tuple]:
    shapes = pool._shapes
    shape = shapes[key]
    if shape[0] > _PAR:
        return
    sa, sb = shapes[shape[1]], shapes[shape[2]]
    key_of = pool._keys
    if shape[0] == _PAR and sa[0] == _SEQ and sb[0] == _SEQ:
        yield _SEQ, key_of[_PAR, sa[1], sb[1]], key_of[_PAR, sa[2], sb[2]]
    elif shape[0] == _SEQ and sa[0] == _PAR and sb[0] == _PAR:
        (_, s, u), (_, s2, u2) = sa, sb
        types = pool._types
        if types[s][1] == types[s2][0] and types[u][1] == types[u2][0]:
            yield _PAR, key_of[_SEQ, s, s2], key_of[_SEQ, u, u2]


@_law("symmetry-involution", (_SEQ, _SYM, _SYM), (_ID,))
def _sym_involution(pool: TermPool, key: int) -> Iterator[tuple]:
    shapes = pool._shapes
    shape = shapes[key]
    if shape[0] == _SEQ:
        sa, sb = shapes[shape[1]], shapes[shape[2]]
        if (
            sa[0] == _SYM
            and sb[0] == _SYM
            and sa[1] == sb[2]
            and sa[2] == sb[1]
        ):
            yield _ID, sa[1] + sa[2]
    elif shape[0] == _ID:
        n, key_of = shape[1], pool._keys
        for i in range(n + 1):
            yield _SEQ, key_of[_SYM, i, n - i], key_of[_SYM, n - i, i]


@_law("symmetry-naturality", (_SEQ, _PAR, _SYM), (_SEQ, _SYM, _PAR))
def _sym_naturality(pool: TermPool, key: int) -> Iterator[tuple]:
    shapes = pool._shapes
    shape = shapes[key]
    if shape[0] != _SEQ:
        return
    sa, sb = shapes[shape[1]], shapes[shape[2]]
    key_of = pool._keys
    if sa[0] == _PAR and sb[0] == _SYM:
        _, s, ident = sa
        si = shapes[ident]
        if si[0] == _ID:
            o, n = pool._types[s]
            if sb[1] == n and sb[2] == si[1]:
                yield _SEQ, key_of[_SYM, o, si[1]], key_of[_PAR, ident, s]
    elif sa[0] == _SYM and sb[0] == _PAR:
        _, ident, s = sb
        si = shapes[ident]
        if si[0] == _ID:
            o, n = pool._types[s]
            if sa[1] == o and sa[2] == si[1]:
                yield _SEQ, key_of[_PAR, s, ident], key_of[_SYM, n, si[1]]


@_law("symmetry-decomposition", (_SYM,), (_SEQ, _PAR, _PAR))
def _sym_decomposition(pool: TermPool, key: int) -> Iterator[tuple]:
    shapes = pool._shapes
    shape = shapes[key]
    if shape[0] == _SYM:
        _, m, w = shape
        key_of = pool._keys
        for n in range(w + 1):
            # (sym_m_n + id_rest) ; (id_n + sym_m_rest)
            fst = key_of[_PAR, key_of[_SYM, m, n], key_of[_ID, w - n]]
            snd = key_of[_PAR, key_of[_ID, n], key_of[_SYM, m, w - n]]
            yield _SEQ, fst, snd
    elif shape[0] == _SEQ:
        sa, sb = shapes[shape[1]], shapes[shape[2]]
        if sa[0] == _PAR and sb[0] == _PAR:
            a, b = shapes[sa[1]], shapes[sa[2]]
            c, d = shapes[sb[1]], shapes[sb[2]]
            if (
                a[0] == _SYM
                and b[0] == _ID
                and c[0] == _ID
                and d[0] == _SYM
                and a[1] == d[1]
                and a[2] == c[1]
                and b[1] == d[2]
            ):
                yield _SYM, a[1], a[2] + b[1]


@_law("symmetry-unit", (_SYM,), (_ID,), derived=True)
def _sym_unit(pool: TermPool, key: int) -> Iterator[tuple]:
    shape = pool._shapes[key]
    if shape[0] == _SYM:
        if shape[1] == 0:
            yield _ID, shape[2]
        if shape[2] == 0:
            yield _ID, shape[1]
    elif shape[0] == _ID:
        yield _SYM, shape[1], 0
        yield _SYM, 0, shape[1]


# the merge laws' redexes as shape templates, whose children are templates
# in turn
_MU_T = (_MU,)
_ID1_T = (_ID, 1)
_MU_SWAPPED = (_SEQ, (_SYM, 1, 1), _MU_T)
_MU_ASSOC_LEFT = (_SEQ, (_PAR, _MU_T, _ID1_T), _MU_T)
_MU_ASSOC_RIGHT = (_SEQ, (_PAR, _ID1_T, _MU_T), _MU_T)
_MU_UNIT_LEFT = (_SEQ, (_PAR, (_ETA,), _ID1_T), _MU_T)
_MU_UNIT_RIGHT = (_SEQ, (_PAR, _ID1_T, (_ETA,)), _MU_T)


def _template_size(template: tuple) -> int:
    if template[0] > _PAR:
        return 1
    return 1 + _template_size(template[1]) + _template_size(template[2])


def _root_of(template: tuple) -> tuple:
    if template[0] > _PAR:
        return (template[0],)
    return (template[0], template[1][0], template[2][0])


def _redex_swap(name: str, a: tuple, b: tuple) -> Law:
    """The law that rewrites the redex a to b and b to a."""
    size_a, size_b = _template_size(a), _template_size(b)

    def shapes(pool: TermPool, key: int) -> Iterator[tuple]:
        # the size test is cheap and rejects almost every key
        size = pool._sizes[key]
        if size == size_a and pool._matches(key, a):
            yield pool._shape_of(b)
        if size == size_b and pool._matches(key, b):
            yield pool._shape_of(a)

    return Law(name, False, shapes, _roots(_root_of(a), _root_of(b)))


LAWS: tuple[Law, ...] = (
    _assoc("sequential-associativity", _SEQ),
    _unit("sequential-unit", _SEQ),
    _assoc("parallel-associativity", _PAR),
    _unit("parallel-unit", _PAR),
    _id_fusion,
    _interchange,
    _sym_involution,
    _sym_naturality,
    _sym_decomposition,
    _redex_swap("merge-commutativity", _MU_T, _MU_SWAPPED),
    _redex_swap("merge-associativity", _MU_ASSOC_LEFT, _MU_ASSOC_RIGHT),
    _redex_swap("merge-unit-left", _MU_UNIT_LEFT, _ID1_T),
    _redex_swap("merge-unit-right", _MU_UNIT_RIGHT, _ID1_T),
    _sym_unit,
)


class _ShapeKeys(dict):
    """Shape -> key. Looking up a new shape creates its key, numbered in
    order of creation, and records its shape, size and (dom, cod), the
    latter two from its children's."""

    def __init__(self) -> None:
        super().__init__()
        self.shapes: list[tuple] = []
        self.sizes: list[int] = []
        self.types: list[tuple[int, int]] = []

    def __missing__(self, shape: tuple) -> int:
        key = self[shape] = len(self.shapes)
        self.shapes.append(shape)
        tag = shape[0]
        if tag > _PAR:
            atom = _CLASSES[tag](*shape[1:])
            self.sizes.append(1)
            self.types.append((atom.dom, atom.cod))
        else:
            sizes, types = self.sizes, self.types
            _, a, b = shape
            sizes.append(1 + sizes[a] + sizes[b])
            (m, n), (o, p) = types[a], types[b]
            types.append((m, p) if tag == _SEQ else (m + o, n + p))
        return key


class TermPool:
    """Hash-consed term store for one closure search.

    Each structurally distinct term has an integer key and a shape (see
    `_SEQ`); `_keys[shape]` is the shape's key, created on first lookup.
    The pool records each key's size and (dom, cod) when it creates the
    key, from its children's, so the laws act on keys and read types off
    them: the search builds and hashes no Term. `term` builds a key's Term
    on request, and `intern` keeps the Terms it is given (seeds and rule
    sides). Per-key root-law variants and per-slack subterm variant lists
    are memoised, so each subterm's variants are worked out once; at a key
    only the laws that can fire at its root run (`laws_at`). A root
    variant above the bound is never interned, though its children are.
    Without a bound the pool keeps every variant."""

    def __init__(self, bound: float = math.inf) -> None:
        self.bound = bound
        self._keys = _ShapeKeys()
        self._shapes = self._keys.shapes
        self._sizes = self._keys.sizes
        self._types = self._keys.types
        self._terms: dict[int, Term] = {}
        self._laws_at: dict[tuple, tuple[Law, ...]] = {}
        self._root_variants: dict[int, tuple[int, ...]] = {}
        self._within: dict[tuple[int, int], tuple[int, ...]] = {}

    def intern(self, t: Term) -> int:
        """The key of t, keeping t and its subterms as the Terms of their
        keys. Raises TypeMismatch, as term_type does, on an ill-typed t."""
        if not isinstance(t, Term) or t.fault is not None:
            term_type(t)  # raises t's first fault
        keys: list[int] = []
        todo: list[tuple[Term, bool]] = [(t, False)]
        while todo:
            u, children_done = todo.pop()
            if isinstance(u, (Seq, Par)):
                if not children_done:
                    todo += ((u, True), (u.snd, False), (u.fst, False))
                    continue
                snd = keys.pop()
                shape: tuple = (_TAGS[type(u)], keys.pop(), snd)
            else:
                shape = (_TAGS[type(u)], *u.args)
            key = self._keys[shape]
            self._terms.setdefault(key, u)
            keys.append(key)
        return keys[0]

    def term(self, key: int) -> Term:
        """key's Term, built on first request from its children's."""
        terms = self.fold(
            [key], lambda t: t, lambda op, a, b: op(a, b), self._terms
        )
        return terms[key]

    def size(self, key: int) -> int:
        """Syntax nodes of key's term."""
        return self._sizes[key]

    def fold(
        self,
        keys: Iterable[int],
        atom: Callable[[Term], object],
        join: Callable[[type, object, object], object],
        values: dict | None = None,
    ) -> dict:
        """values, filled in with the value of each key and each of its
        subterms, bottom-up: atom(t) for an atom t, and join(op, x, y) for
        op(fst, snd), with op Seq or Par and x, y the values of fst and
        snd. A key already in values keeps its value, so each key is
        valued once; the walk keeps an explicit stack."""
        values = {} if values is None else values
        shapes = self._shapes
        todo = list(keys)
        while todo:
            k = todo.pop()
            if k in values:
                continue
            shape = shapes[k]
            if shape[0] > _PAR:
                values[k] = atom(_CLASSES[shape[0]](*shape[1:]))
            elif shape[1] in values and shape[2] in values:
                fst, snd = values[shape[1]], values[shape[2]]
                values[k] = join(_CLASSES[shape[0]], fst, snd)
            else:
                todo += (k, shape[2], shape[1])
        return values

    def _matches(self, key: int, template: tuple) -> bool:
        """Whether key's term is the term of a shape template, whose
        children are templates instead of keys."""
        shape = self._shapes[key]
        if template[0] > _PAR:
            return shape == template
        return (
            shape[0] == template[0]
            and self._matches(shape[1], template[1])
            and self._matches(shape[2], template[2])
        )

    def _shape_of(self, template: tuple) -> tuple:
        """The root shape of a shape template, its children interned."""
        if template[0] > _PAR:
            return template
        return (
            template[0],
            self._keys[self._shape_of(template[1])],
            self._keys[self._shape_of(template[2])],
        )

    def root(self, key: int) -> tuple:
        """The tags at key's root: (tag,) for an atom, and (tag, fst's
        tag, snd's tag) for a ; or + node."""
        shape = self._shapes[key]
        if shape[0] > _PAR:
            return shape[:1]
        shapes = self._shapes
        return shape[0], shapes[shape[1]][0], shapes[shape[2]][0]

    def laws_at(self, root: tuple) -> tuple[Law, ...]:
        """The laws of LAWS that fire at the root, in LAWS order."""
        laws = self._laws_at.get(root)
        if laws is None:
            laws = tuple(law for law in LAWS if law.fires_at(root))
            self._laws_at[root] = laws
        return laws

    def _root_variant_keys(self, key: int) -> tuple[int, ...]:
        """Keys of the root-law variants of key that fit the bound, in LAWS
        order."""
        got = self._root_variants.get(key)
        if got is None:
            sizes, bound = self._sizes, self.bound
            key_of = self._keys
            keys = []
            for law in self.laws_at(self.root(key)):
                for shape in law.shapes(self, key):
                    if (
                        shape[0] > _PAR
                        or 1 + sizes[shape[1]] + sizes[shape[2]] <= bound
                    ):
                        keys.append(key_of[shape])
            got = tuple(keys)
            # a term within two nodes of the bound is a proper subterm of no
            # member, so only the member itself asks for its variants
            if sizes[key] + 2 <= bound:
                self._root_variants[key] = got
        return got

    def member_variants(self, key: int) -> list[int]:
        """Keys of the one-step variants of key that fit the bound: the
        root variants in LAWS order, then those inside fst, then inside
        snd."""
        return self._variants(key, self.bound - self._sizes[key])

    def _variants(self, key: int, slack: int) -> list[int]:
        # the variants of key at most slack nodes larger than key; those
        # that are larger are dropped before they are wrapped into parents
        sizes = self._sizes
        limit = sizes[key] + slack
        out = [v for v in self._root_variant_keys(key) if sizes[v] <= limit]
        shape = self._shapes[key]
        if shape[0] <= _PAR:
            tag, fst, snd = shape
            key_of, variants = self._keys, self._subterm_variants
            out += [key_of[tag, v, snd] for v in variants(fst, slack)]
            out += [key_of[tag, fst, v] for v in variants(snd, slack)]
        return out

    def _subterm_variants(self, key: int, slack: int) -> tuple[int, ...]:
        # memoised for proper subterms only: they recur across members of
        # one size, while the closure expands each member itself once
        got = self._within.get((key, slack))
        if got is None:
            got = self._within[key, slack] = tuple(self._variants(key, slack))
        return got

    def factors(self, key: int, tag: int) -> list[int]:
        """Keys of the maximal subterms that are not Seq (tag _SEQ) or not
        Par (tag _PAR), left to right: the flattened chain or row."""
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
    pool: TermPool = field(repr=False, compare=False)
    truncated = True

    @cached_property
    def members(self) -> frozenset[Term]:
        return frozenset(self.pool.term(k) for k in self.keys)


def axiom_closure(t: Term, bound: int) -> AxiomClosure:
    """BFS fixpoint of bidirectional law application within the bound."""
    pool = TermPool(bound)
    seed = pool.intern(t)
    if pool._sizes[seed] > bound:
        raise BoundTooSmall(
            f"seed has size {pool._sizes[seed]}, above bound {bound}"
        )
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


def enumerate_rewrite_keys(
    rules: list[tuple[Term, Term]], d: Term, bound: int
) -> tuple[TermPool, list[frozenset[int]]]:
    """The one-step rewrites of d by each rule, in rule order, as keys of
    the returned pool. One closure of d serves every rule: a rewrite is a
    member with a sequential factor that is an identity block beside the
    rule's lhs, that factor replaced by the block beside the rhs. Matching
    builds no Terms; `pool.term` builds a rewrite's Term on request, and
    `pool.fold` values rewrites bottom-up over their shared subterms."""
    for lhs, rhs in rules:
        term_type(lhs)
        term_type(rhs)
    if not rules:
        # no closure to build, so an empty rule file cannot fail the bound
        return TermPool(), []
    closure = axiom_closure(d, bound)
    pool = closure.pool
    patterns = [pool.factors(pool.intern(lhs), _PAR) for lhs, _ in rules]
    rhs_keys = [pool.intern(rhs) for _, rhs in rules]
    key_of = pool._keys
    shapes = pool._shapes

    def hits_in(factor: int) -> list[tuple[int, int]]:
        # (rule index, replacement key) for each rule whose pattern ends
        # the factor's row after a head of identities only
        atoms = pool.factors(factor, _PAR)
        out = []
        for r, pattern in enumerate(patterns):
            j = len(atoms) - len(pattern)
            if j < 0 or atoms[j:] != pattern:
                continue
            head = [shapes[a] for a in atoms[:j]]
            if any(shape[0] != _ID for shape in head):
                continue
            k = sum(shape[1] for shape in head)
            replacement = rhs_keys[r]
            if k > 0:
                replacement = key_of[_PAR, key_of[_ID, k], replacement]
            out.append((r, replacement))
        return out

    def nested_left(key: int) -> bool:
        while shapes[key][0] == _SEQ:
            if shapes[shapes[key][2]][0] == _SEQ:
                return False
            key = shapes[key][1]
        return True

    # a member's rewrites depend only on its chain, and associativity keeps
    # a member's size, so the closure holds the left-nested member of each
    # of its chains: matching those alone matches each chain once
    hits_by_factor: dict[int, list[tuple[int, int]]] = {}
    found: list[set[int]] = [set() for _ in rules]
    for member in closure.keys:
        if not nested_left(member):
            continue
        chain = pool.factors(member, _SEQ)
        for i, factor in enumerate(chain):
            hits = hits_by_factor.get(factor)
            if hits is None:
                hits = hits_by_factor[factor] = hits_in(factor)
            for r, replacement in hits:
                rebuilt = replacement if i == 0 else chain[0]
                for j in range(1, len(chain)):
                    part = replacement if j == i else chain[j]
                    rebuilt = key_of[_SEQ, rebuilt, part]
                found[r].add(rebuilt)
    return pool, [frozenset(keys) for keys in found]


def enumerate_rewrites_bruteforce(
    rule: tuple[Term, Term], d: Term, bound: int
) -> frozenset[Term]:
    """All one-step rewrites of d by the rule, found by exhaustively
    rearranging d within the bound until the pattern sits beside an identity
    block inside one sequential factor."""
    pool, [found] = enumerate_rewrite_keys([rule], d, bound)
    return frozenset(map(pool.term, found))
