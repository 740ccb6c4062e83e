"""Terms over a generator signature plus a commutative monoid node.

Surface grammar (whitespace-insensitive)::

    term   := factor (";" factor)* | factor ("+" factor)*
    factor := atom | "(" term ")"
    atom   := "mu" | "eta" | "id_" nat | "sym_" nat "_" nat | generator name

Mixing ";" and "+" at one parenthesis level is rejected.  Printed output is
fully parenthesised, so printing then parsing is the structural identity.

Signature files are line-based: ``gen <name> : <m> -> <n>``, with ``#``
comments and blank lines ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import TermSyntaxError, TypeMismatch, UnknownGenerator

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ID_RE = re.compile(r"id_(\d+)\Z")
_SYM_RE = re.compile(r"sym_(\d+)_(\d+)\Z")
_GEN_LINE_RE = re.compile(
    r"gen\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\d+)\s*->\s*(\d+)\s*\Z"
)


def is_reserved_name(name: str) -> bool:
    """True for names the grammar claims for built-in atoms."""
    return name in ("mu", "eta") or name.startswith(("id_", "sym_"))


@dataclass(frozen=True)
class Signature:
    """Ordered generator declarations, each ``(name, arity, coarity)``."""

    generators: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        gens = tuple((str(n), int(m), int(c)) for n, m, c in self.generators)
        object.__setattr__(self, "generators", gens)
        seen = set()
        for name, m, n in gens:
            if not _NAME_RE.fullmatch(name):
                raise TermSyntaxError(f"bad generator name {name!r}")
            if is_reserved_name(name):
                raise TermSyntaxError(f"generator name {name!r} is reserved")
            if name in seen:
                raise TermSyntaxError(f"duplicate generator {name!r}")
            if m < 0 or n < 0:
                raise TermSyntaxError(f"negative arity for {name!r}")
            seen.add(name)

    def __contains__(self, name: str) -> bool:
        return any(g[0] == name for g in self.generators)

    def arity(self, name: str) -> tuple[int, int]:
        for gname, m, n in self.generators:
            if gname == name:
                return m, n
        raise UnknownGenerator(f"generator {name!r} not declared")


def parse_signature(text: str) -> Signature:
    """Parse a line-based signature file body."""
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _GEN_LINE_RE.fullmatch(line)
        if m is None:
            raise TermSyntaxError(f"bad signature line {lineno}: {raw!r}",
                                  location=lineno)
        gens.append((m.group(1), int(m.group(2)), int(m.group(3))))
    return Signature(tuple(gens))


class Term:
    """Base class for term syntax nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Gen(Term):
    """A signature generator; carries its arity so terms are self-typed."""

    name: str
    dom: int
    cod: int


@dataclass(frozen=True)
class Id(Term):
    n: int


@dataclass(frozen=True)
class Sym(Term):
    m: int
    n: int


@dataclass(frozen=True)
class Mu(Term):
    pass


@dataclass(frozen=True)
class Eta(Term):
    pass


@dataclass(frozen=True)
class Seq(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Par(Term):
    fst: Term
    snd: Term


@lru_cache(maxsize=1 << 16)
def term_type(t: Term) -> tuple[int, int]:
    """The (dom, cod) of a term; raises TypeMismatch on ill-formed Seq."""
    if isinstance(t, Gen):
        return t.dom, t.cod
    if isinstance(t, Id):
        return t.n, t.n
    if isinstance(t, Sym):
        return t.m + t.n, t.m + t.n
    if isinstance(t, Mu):
        return 2, 1
    if isinstance(t, Eta):
        return 0, 1
    if isinstance(t, Seq):
        a, b = term_type(t.fst), term_type(t.snd)
        if a[1] != b[0]:
            raise chain_mismatch(t, a, b)
        return a[0], b[1]
    if isinstance(t, Par):
        a, b = term_type(t.fst), term_type(t.snd)
        return a[0] + b[0], a[1] + b[1]
    raise TypeMismatch(f"not a term: {t!r}")


@lru_cache(maxsize=1 << 16)
def term_size(t: Term) -> int:
    """Syntax node count; every constructor counts one."""
    if isinstance(t, (Seq, Par)):
        return 1 + term_size(t.fst) + term_size(t.snd)
    return 1


def chain_mismatch(t: Seq, a: tuple[int, int], b: tuple[int, int]):
    """The error for t = fst ; snd with fst : a and snd : b, a[1] != b[0]."""
    return TypeMismatch(
        f"cannot chain {pretty_print(t.fst)} : {a[0]}->{a[1]} "
        f"with {pretty_print(t.snd)} : {b[0]}->{b[1]}"
    )


class _Text(str):
    """Literal output text on pretty_print's stack, never a term."""


_CLOSE, _SEMI, _PLUS = _Text(")"), _Text(" ; "), _Text(" + ")


def pretty_print(t: Term) -> str:
    """Fully parenthesised text of t, built without recursion."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if type(t) is _Text:
            out.append(t)
        elif isinstance(t, Gen):
            out.append(t.name)
        elif isinstance(t, Id):
            out.append(f"id_{t.n}")
        elif isinstance(t, Sym):
            out.append(f"sym_{t.m}_{t.n}")
        elif isinstance(t, Mu):
            out.append("mu")
        elif isinstance(t, Eta):
            out.append("eta")
        elif isinstance(t, (Seq, Par)):
            out.append("(")
            op = _SEMI if isinstance(t, Seq) else _PLUS
            stack += (_CLOSE, t.snd, op, t.fst)
        else:
            raise TypeMismatch(f"not a term: {t!r}")
    return "".join(out)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "();+":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _NAME_RE.match(src, i)
        if m is None:
            raise TermSyntaxError(f"unexpected character {ch!r}", location=i)
        tokens.append(("name", m.group(0), i))
        i = m.end()
    return tokens


def _atom(name: str, pos: int, sig: Signature) -> Term:
    if name == "mu":
        return Mu()
    if name == "eta":
        return Eta()
    if name.startswith("id_"):
        m = _ID_RE.fullmatch(name)
        if m is None:
            raise TermSyntaxError(f"malformed identity atom {name!r}",
                                  location=pos)
        return Id(int(m.group(1)))
    if name.startswith("sym_"):
        m = _SYM_RE.fullmatch(name)
        if m is None:
            raise TermSyntaxError(f"malformed symmetry atom {name!r}",
                                  location=pos)
        return Sym(int(m.group(1)), int(m.group(2)))
    if name not in sig:
        raise UnknownGenerator(f"generator {name!r} not declared",
                               location=pos)
    return Gen(name, *sig.arity(name))


def parse_term(src: str, sig: Signature) -> Term:
    """Parse and typecheck a term expression.

    Types are recorded as each Seq/Par is built, so no pass over the whole
    term follows. The first ill-typed Seq in post-order is reported, and
    only once the input has parsed: syntax errors win. Parentheses open
    chains on an explicit stack, so nesting depth is not bounded by the
    interpreter's recursion limit."""
    tokens = _tokenize(src)
    idx = 0
    mismatch: TypeMismatch | None = None

    def peek() -> tuple[str, str, int] | None:
        return tokens[idx] if idx < len(tokens) else None

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal idx
        tok = peek()
        if tok is None or tok[0] != kind:
            got = "end of input" if tok is None else repr(tok[1])
            raise TermSyntaxError(f"expected {kind!r}, got {got}",
                                  location=None if tok is None else tok[2])
        idx += 1
        return tok

    # the innermost open chain is (t, a, op): its term so far (None before
    # its first factor), that term's type and its operator (None until
    # one follows the first factor); the chains around it wait on stack
    stack: list[tuple] = []
    t = a = op = None
    while True:
        tok = peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of input")
        if tok[0] == "(":
            take("(")
            stack.append((t, a, op))
            t = a = op = None
            continue
        kind, text, pos = take("name")
        f = _atom(text, pos, sig)
        b = term_type(f)
        while True:
            # f : b is the next finished factor of the innermost chain
            if t is None:
                t, a = f, b
                tok = peek()
                if tok is not None and tok[0] in ";+":
                    op = tok[0]
            elif op == "+":
                t, a = Par(t, f), (a[0] + b[0], a[1] + b[1])
            else:
                t = Seq(t, f)
                if a[1] != b[0] and mismatch is None:
                    mismatch = chain_mismatch(t, a, b)
                a = (a[0], b[1])
            tok = peek()
            if op is not None and tok is not None and tok[0] != ")":
                if tok[0] != op:
                    raise TermSyntaxError(
                        "mixing ';' and '+' needs parentheses",
                        location=tok[2],
                    )
                take(op)
                break
            if not stack:
                if tok is not None:
                    raise TermSyntaxError(f"trailing input at {tok[1]!r}",
                                          location=tok[2])
                if mismatch is not None:
                    raise mismatch
                return t
            # the chain ends at its closing parenthesis and is a factor
            take(")")
            f, b = t, a
            t, a, op = stack.pop()
