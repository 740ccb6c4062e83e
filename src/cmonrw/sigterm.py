"""Terms over a generator signature plus a commutative monoid node.

Surface grammar (whitespace-insensitive)::

    term   := factor (";" factor)* | factor ("+" factor)*
    factor := atom | "(" term ")"
    atom   := "mu" | "eta" | "id_" nat | "sym_" nat "_" nat | generator name

Mixing ";" and "+" at one parenthesis level is rejected.  Printed output is
fully parenthesised, so printing then parsing is the structural identity.

Terms type themselves: a Seq or Par records its type, size, hash and first
fault when it is built (see ``Term``). So the one typing rule lives in
``_Pair``, and other modules call ``term_type`` instead of checking widths.

Signature files are line-based: ``gen <name> : <m> -> <n>``, with ``#``
comments and blank lines ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    _arities: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple((str(n), int(m), int(c)) for n, m, c in self.generators)
        object.__setattr__(self, "generators", gens)
        arities = {}
        for name, m, n in gens:
            if not _NAME_RE.fullmatch(name):
                raise TermSyntaxError(f"bad generator name {name!r}")
            if is_reserved_name(name):
                raise TermSyntaxError(f"generator name {name!r} is reserved")
            if name in arities:
                raise TermSyntaxError(f"duplicate generator {name!r}")
            if m < 0 or n < 0:
                raise TermSyntaxError(f"negative arity for {name!r}")
            arities[name] = (m, n)
        object.__setattr__(self, "_arities", arities)

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def arity(self, name: str) -> tuple[int, int]:
        if name not in self._arities:
            raise UnknownGenerator(f"generator {name!r} not declared")
        return self._arities[name]

    def check(self, name: str, dom: int, cod: int) -> None:
        """Raise UnknownGenerator unless name is declared, and TypeMismatch
        unless it is declared at dom->cod."""
        if name not in self._arities:
            raise UnknownGenerator(f"generator '{name}' not declared")
        m, n = self._arities[name]
        if (m, n) != (dom, cod):
            raise TypeMismatch(
                f"generator '{name}' used at {dom}->{cod} but declared "
                f"{m}->{n}"
            )


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
        gens.append((m.group(1), _width(m.group(2)), _width(m.group(3))))
    return Signature(tuple(gens))


def _width(digits: str) -> int:
    """int(digits), or OverflowError past int()'s digit limit: the error a
    width too large to hold gives once it is used."""
    try:
        return int(digits)
    except ValueError:
        raise OverflowError(f"a {len(digits)}-digit width") from None


class _Text(str):
    """Literal output text on _render's stack, never a term."""


_CLOSE, _SNDEQ = _Text(")"), _Text(", snd=")


class Term:
    """Base class for term syntax nodes.

    Every node carries its ``dom``, ``cod``, ``size`` (syntax node count)
    and ``fault``: None for a well-typed term, else the node of its first
    fault in post-order, an ill-typed Seq or a Seq/Par with an operand that
    is not a Term. A Seq or Par sets these, and its hash, once when it is
    built, from its operands'. Atoms carry ``args``, the arguments that
    build them. Nodes are immutable by convention: the classes are slotted
    but not frozen, which keeps construction cheap. Equality is structural
    and class-sensitive. Nothing here recurses, so terms of any depth hash,
    compare, type and print."""

    __slots__ = ()
    size = 1
    fault = None

    def __hash__(self) -> int:
        return hash(self.args)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.args == other.args

    def __repr__(self) -> str:
        return _render(self, pretty=False)


class Gen(Term):
    """A signature generator; carries its arity so terms are self-typed."""

    __slots__ = ("name", "dom", "cod", "args")
    _fields, _text = ("name", "dom", "cod"), "{}"

    def __init__(self, name: str, dom: int, cod: int):
        self.name, self.dom, self.cod = name, dom, cod
        self.args = (name, dom, cod)


class Id(Term):
    __slots__ = ("n", "dom", "cod", "args")
    _fields, _text = ("n",), "id_{}"

    def __init__(self, n: int):
        self.n = self.dom = self.cod = n
        self.args = (n,)


class Sym(Term):
    __slots__ = ("m", "n", "dom", "cod", "args")
    _fields, _text = ("m", "n"), "sym_{}_{}"

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.dom = self.cod = m + n
        self.args = (m, n)


class Mu(Term):
    __slots__ = ()
    dom, cod, args, _fields, _text = 2, 1, (), (), "mu"


class Eta(Term):
    __slots__ = ()
    dom, cod, args, _fields, _text = 0, 1, (), (), "eta"


class _Pair(Term):
    """A Seq or Par node: two operands and what they determine."""

    __slots__ = ("fst", "snd", "dom", "cod", "size", "fault", "_hash")

    def __init__(self, fst: Term, snd: Term):
        self.fst, self.snd = fst, snd
        self._hash = hash((fst, snd))
        if not (isinstance(fst, Term) and isinstance(snd, Term)):
            _not_terms(self)
            return
        self.size = fst.size + snd.size + 1
        fault = fst.fault or snd.fault
        if self.__class__ is Par:
            self.dom, self.cod = fst.dom + snd.dom, fst.cod + snd.cod
        else:
            self.dom, self.cod = fst.dom, snd.cod
            # the typing rule: fst ends where snd begins
            if fault is None and fst.cod != snd.dom:
                fault = self
        self.fault = fault

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not isinstance(a, Term):
                if a == b:  # not Terms, or Terms of two classes: unequal
                    continue
                return False
            if not isinstance(a, _Pair):
                if a.args != b.args:
                    return False
            elif a._hash != b._hash:
                return False
            else:
                todo += ((a.snd, b.snd), (a.fst, b.fst))
        return True


class Seq(_Pair):
    __slots__ = ()
    _op = _Text(" ; ")


class Par(_Pair):
    __slots__ = ()
    _op = _Text(" + ")


def _not_terms(t: _Pair) -> None:
    """Fill in t, some operand of which is not a Term: such an operand
    counts one node, and is t's fault unless a Term before it has one."""
    t.dom = t.cod = 0
    t.size, t.fault = 1, None
    for x in (t.fst, t.snd):
        is_term = isinstance(x, Term)
        t.size += x.size if is_term else 1
        t.fault = t.fault or (x.fault if is_term else t)


def term_type(t: Term) -> tuple[int, int]:
    """The (dom, cod) of a term; raises TypeMismatch for its first fault."""
    if not isinstance(t, Term):
        raise TypeMismatch(f"not a term: {t!r}")
    fault = t.fault
    if fault is not None:
        fst, snd = fault.fst, fault.snd
        bad = [x for x in (fst, snd) if not isinstance(x, Term)]
        if bad:
            raise TypeMismatch(f"not a term: {bad[0]!r}")
        raise TypeMismatch(
            f"cannot chain {pretty_print(fst)} : {fst.dom}->{fst.cod} "
            f"with {pretty_print(snd)} : {snd.dom}->{snd.cod}"
        )
    return t.dom, t.cod


def term_size(t: Term) -> int:
    """Syntax node count; every constructor counts one."""
    return t.size


def _render(t: Term, pretty: bool) -> str:
    """The text of t that pretty_print (pretty) or repr gives, built
    without recursion; repr is dataclass-style, as in Seq(fst=Mu(),
    snd=Gen(name='f', dom=1, cod=1))."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if type(t) is _Text:
            out.append(t)
        elif isinstance(t, _Pair):
            out.append("(" if pretty else f"{type(t).__name__}(fst=")
            stack += (_CLOSE, t.snd, t._op if pretty else _SNDEQ, t.fst)
        elif not isinstance(t, Term):
            if pretty:
                raise TypeMismatch(f"not a term: {t!r}")
            out.append(repr(t))
        elif pretty:
            out.append(t._text.format(*t.args))
        else:
            args = ", ".join(map("{}={!r}".format, t._fields, t.args))
            out.append(f"{type(t).__name__}({args})")
    return "".join(out)


def pretty_print(t: Term) -> str:
    """Fully parenthesised text of t."""
    return _render(t, pretty=True)


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
    if name in ("mu", "eta"):
        return Mu() if name == "mu" else Eta()
    if name.startswith("id_"):
        m = _ID_RE.fullmatch(name)
        if m is None:
            raise TermSyntaxError(f"malformed identity atom {name!r}",
                                  location=pos)
        return Id(_width(m.group(1)))
    if name.startswith("sym_"):
        m = _SYM_RE.fullmatch(name)
        if m is None:
            raise TermSyntaxError(f"malformed symmetry atom {name!r}",
                                  location=pos)
        return Sym(_width(m.group(1)), _width(m.group(2)))
    if name not in sig:
        raise UnknownGenerator(f"generator {name!r} not declared",
                               location=pos)
    return Gen(name, *sig.arity(name))


def parse_term(src: str, sig: Signature) -> Term:
    """Parse and typecheck a term expression.

    The term's first fault in post-order is raised only once the input has
    parsed: syntax errors win. Parentheses open chains on an explicit
    stack, so nesting depth is not bounded by the interpreter's recursion
    limit."""
    tokens = _tokenize(src)
    idx = 0

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

    # the innermost open chain is (t, op): its term so far (None before its
    # first factor) and its operator (None until one follows the first
    # factor); the chains around it wait on stack
    stack: list[tuple] = []
    t = op = None
    while True:
        tok = peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of input")
        if tok[0] == "(":
            take("(")
            stack.append((t, op))
            t = op = None
            continue
        kind, text, pos = take("name")
        f = _atom(text, pos, sig)
        while True:
            # f is the next finished factor of the innermost chain
            if t is None:
                t = f
                tok = peek()
                if tok is not None and tok[0] in ";+":
                    op = tok[0]
            else:
                t = Par(t, f) if op == "+" else Seq(t, f)
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
                term_type(t)
                return t
            # the chain ends at its closing parenthesis and is a factor
            take(")")
            f = t
            t, op = stack.pop()
