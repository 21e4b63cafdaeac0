"""Canonical labeling by partition refinement with backtracking.

Two graphs get the same canonical form iff they are isomorphic.  The form
is the lexicographically least graph6 encoding over all vertex orderings
consistent with the refined partition, searched by individualizing one
vertex of the first non-singleton cell at a time.  Interchangeable (twin)
vertices are branched only once, which keeps highly symmetric graphs
(unions of cliques, bicliques, empty graphs) from blowing up the search.
"""

from __future__ import annotations

from typing import List, Optional

from .graph6 import _encode_ordered, decode
from .graphs import Graph, bits


def _refine(n: int, nbrs, colors: List[int]) -> List[int]:
    """Equitable refinement: split cells by multisets of neighbor colors."""
    ncolors = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nbrs[v]])))
            for v in range(n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[sig] for sig in sigs]
        count = len(ranking)
        if count == ncolors or count == n:
            return colors
        ncolors = count


def _are_twins(adj, u: int, w: int) -> bool:
    return adj[u] == adj[w] or adj[u] ^ adj[w] == (1 << u) | (1 << w)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal for two graphs iff they are isomorphic."""
    return canonical_form_raw(g.n, g.adj)


def canonical_form_raw(n: int, rows) -> str:
    """As canonical_form, for a bare adjacency-row sequence.

    Used by the generator's inner loop, where candidate children are plain
    row tuples that have not been wrapped (and re-validated) as Graphs.
    """
    if n <= 1:
        return _encode_ordered(n, rows, list(range(n)))
    adj = list(rows)
    nbrs = [list(bits(row)) for row in adj]
    best: List[Optional[str]] = [None]

    def search(colors: List[int]) -> None:
        colors = _refine(n, nbrs, colors)
        if len(set(colors)) == n:
            order = sorted(range(n), key=colors.__getitem__)
            enc = _encode_ordered(n, adj, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        # first non-singleton cell in color order
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        cell = [v for v in range(n) if colors[v] == target]
        tried: List[int] = []
        for u in cell:
            if any(_are_twins(adj, u, w) for w in tried):
                continue
            tried.append(u)
            child = [2 * c for c in colors]
            child[u] -= 1
            search(child)

    search([0] * n)
    assert best[0] is not None
    return best[0]


def canonical_graph(g: Graph) -> Graph:
    """Canonically relabeled copy of ``g``."""
    return decode(canonical_form(g))
