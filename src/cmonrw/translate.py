"""Evaluation of syntax terms into right-monogamous acyclic cospans."""

from __future__ import annotations

from .cospan import Cospan
from .hypergraph import Edge, Hypergraph, UnionFind
from .sigterm import (
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Signature,
    Sym,
    Term,
    term_type,
)

_JOIN = object()  # stack marker: join the two subterms done last


def eval_term(t: Term, sig: Signature) -> Cospan:
    """Interpret a term as a cospan in one pass over its leaves.

    Each leaf allocates fresh wire instances: a generator its inputs, then
    its outputs; ``id_n`` n instances, shared by both sides; ``sym_m_n``
    m+n, the right side rotated by m; ``mu`` one instance x with left
    (x, x); ``eta`` one with no left. ``;`` identifies its first factor's
    right with its second's left in one union-find, and ``+`` puts the
    boundaries side by side. Nodes are the classes, numbered by their first
    instance in leaf order, and edges are listed in leaf order: exactly the
    carrier that nested ``compose``/``tensor`` pushouts build.

    An ill-typed term raises as term_type does; a well-typed term then
    raises for its leftmost undeclared or mistyped generator."""
    term_type(t)
    uf = UnionFind()
    count = 0  # wire instances allocated so far
    edges: list[tuple[str, range, range]] = []
    done: list[tuple[list[int], list[int]]] = []  # boundaries of subterms
    stack: list = [t]
    while stack:
        node = stack.pop()
        if node is _JOIN:  # both operands of the next entry are done
            op = stack.pop()
            left2, right2 = done.pop()
            left1, right1 = done.pop()
            if isinstance(op, Seq):
                for x, y in zip(right1, left2):
                    uf.union(x, y)
                done.append((left1, right2))
            else:  # every boundary list has one owner: extend in place
                left1 += left2
                right1 += right2
                done.append((left1, right1))
        elif isinstance(node, (Seq, Par)):
            stack += (node, _JOIN, node.snd, node.fst)
        elif isinstance(node, Gen):
            sig.check(node.name, node.dom, node.cod)
            ins = range(count, count + node.dom)
            outs = range(count + node.dom, count + node.dom + node.cod)
            count += node.dom + node.cod
            edges.append((node.name, ins, outs))
            done.append((list(ins), list(outs)))
        elif isinstance(node, Id):
            wires = range(count, count + node.n)
            count += node.n
            done.append((list(wires), list(wires)))
        elif isinstance(node, Sym):
            wires = list(range(count, count + node.m + node.n))
            count += node.m + node.n
            done.append((wires, wires[node.m:] + wires[:node.m]))
        elif isinstance(node, Mu):
            done.append(([count, count], [count]))
            count += 1
        else:  # Eta
            done.append(([], [count]))
            count += 1
    [(left, right)] = done
    number: dict[int, int] = {}
    node_of = [
        number.setdefault(uf.find(i), len(number)) for i in range(count)
    ]
    carrier = Hypergraph(
        frozenset(range(len(number))),
        {
            eid: Edge(
                label,
                tuple(node_of[i] for i in ins),
                tuple(node_of[i] for i in outs),
            )
            for eid, (label, ins, outs) in enumerate(edges)
        },
    )
    return Cospan(
        carrier,
        tuple(node_of[i] for i in left),
        tuple(node_of[i] for i in right),
    )
