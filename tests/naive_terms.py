"""Test-only reference for the data a Term computes when it is built.

`term_type` and `term_size` are the recursive functions that read it off a
term before Terms carried it, and `mirror` rebuilds a term as the frozen
dataclasses the Term classes were, so `hash(mirror(t))` and
`mirror(t) == mirror(u)` are the hash and equality Terms had. All of them
recurse, so they only handle terms far shallower than the interpreter's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from cmonrw import sigterm
from cmonrw.errors import TypeMismatch
from cmonrw.sigterm import pretty_print


def term_type(t) -> tuple[int, int]:
    """The (dom, cod) of a term; raises TypeMismatch on ill-formed Seq."""
    if isinstance(t, sigterm.Gen):
        return t.dom, t.cod
    if isinstance(t, sigterm.Id):
        return t.n, t.n
    if isinstance(t, sigterm.Sym):
        return t.m + t.n, t.m + t.n
    if isinstance(t, sigterm.Mu):
        return 2, 1
    if isinstance(t, sigterm.Eta):
        return 0, 1
    if isinstance(t, sigterm.Seq):
        a, b = term_type(t.fst), term_type(t.snd)
        if a[1] != b[0]:
            raise TypeMismatch(
                f"cannot chain {pretty_print(t.fst)} : {a[0]}->{a[1]} "
                f"with {pretty_print(t.snd)} : {b[0]}->{b[1]}"
            )
        return a[0], b[1]
    if isinstance(t, sigterm.Par):
        a, b = term_type(t.fst), term_type(t.snd)
        return a[0] + b[0], a[1] + b[1]
    raise TypeMismatch(f"not a term: {t!r}")


def term_size(t) -> int:
    """Syntax node count; every constructor counts one."""
    if isinstance(t, (sigterm.Seq, sigterm.Par)):
        return 1 + term_size(t.fst) + term_size(t.snd)
    return 1


@dataclass(frozen=True)
class Gen:
    name: str
    dom: int
    cod: int


@dataclass(frozen=True)
class Id:
    n: int


@dataclass(frozen=True)
class Sym:
    m: int
    n: int


@dataclass(frozen=True)
class Mu:
    pass


@dataclass(frozen=True)
class Eta:
    pass


@dataclass(frozen=True)
class Seq:
    fst: object
    snd: object


@dataclass(frozen=True)
class Par:
    fst: object
    snd: object


def mirror(t):
    """t rebuilt from the dataclasses above; operands that are not Terms
    are kept as they are."""
    if isinstance(t, sigterm.Gen):
        return Gen(t.name, t.dom, t.cod)
    if isinstance(t, sigterm.Id):
        return Id(t.n)
    if isinstance(t, sigterm.Sym):
        return Sym(t.m, t.n)
    if isinstance(t, sigterm.Mu):
        return Mu()
    if isinstance(t, sigterm.Eta):
        return Eta()
    if isinstance(t, sigterm.Seq):
        return Seq(mirror(t.fst), mirror(t.snd))
    if isinstance(t, sigterm.Par):
        return Par(mirror(t.fst), mirror(t.snd))
    return t
