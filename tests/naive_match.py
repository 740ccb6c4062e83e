"""The recursive homomorphism search that find_homomorphisms replaced,
kept as the reference for its results and their order. It recurses once
per pattern edge and copies its maps at every step, and every pattern
edge scans all host edges with its label. homs_view lists both maps of
each result in insertion order, so two searches can be compared result
for result."""

from __future__ import annotations

from cmonrw.hypergraph import Homomorphism, Hypergraph


def find_homomorphisms(
    pattern: Hypergraph, host: Hypergraph, merge_allowed=frozenset()
) -> list[Homomorphism]:
    """All label- and position-preserving maps, injective on edges.

    Node images must be injective except that two pattern nodes may share an
    image when BOTH lie in merge_allowed.
    """
    merge_allowed = frozenset(merge_allowed)
    pedges = sorted(pattern.edges)
    by_label: dict[str, list[int]] = {}
    for hid in sorted(host.edges):
        by_label.setdefault(host.edges[hid].label, []).append(hid)
    host_nodes = sorted(host.nodes)
    results: list[Homomorphism] = []

    def bind(nmap: dict, pv: int, hv: int) -> dict | None:
        if pv in nmap:
            return nmap if nmap[pv] == hv else None
        if pv not in merge_allowed:
            if hv in nmap.values():
                return None
        else:
            for q, w in nmap.items():
                if w == hv and q not in merge_allowed:
                    return None
        out = dict(nmap)
        out[pv] = hv
        return out

    def assign_rest(nmap: dict, emap: dict, rest: list[int], j: int) -> None:
        if j == len(rest):
            results.append(Homomorphism(pattern, host, nmap, emap))
            return
        for hv in host_nodes:
            nmap2 = bind(nmap, rest[j], hv)
            if nmap2 is not None:
                assign_rest(nmap2, emap, rest, j + 1)

    def rec(i: int, nmap: dict, emap: dict, used: frozenset) -> None:
        if i == len(pedges):
            rest = [v for v in sorted(pattern.nodes) if v not in nmap]
            assign_rest(nmap, emap, rest, 0)
            return
        pe = pattern.edges[pedges[i]]
        for hid in by_label.get(pe.label, ()):
            if hid in used:
                continue
            he = host.edges[hid]
            if len(he.sources) != len(pe.sources):
                continue
            if len(he.targets) != len(pe.targets):
                continue
            nmap2: dict | None = nmap
            for pv, hv in zip(pe.sources + pe.targets, he.sources + he.targets):
                nmap2 = bind(nmap2, pv, hv)
                if nmap2 is None:
                    break
            if nmap2 is not None:
                rec(i + 1, nmap2, {**emap, pedges[i]: hid}, used | {hid})

    rec(0, {}, {}, frozenset())
    return results


def homs_view(homs: list[Homomorphism]) -> list[tuple]:
    """Both maps of every homomorphism, in their insertion order."""
    return [
        (list(h.node_map.items()), list(h.edge_map.items())) for h in homs
    ]
