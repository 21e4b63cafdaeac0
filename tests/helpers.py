"""Graph constructions and queries that only the tests use.

The package keeps what its callers read; these build test inputs and read
test facts off a ``Graph`` through its public rows.
"""

from typing import Iterator, List, Sequence, Tuple

from cliquebound.graphs import Graph, bit_list, from_edges


def num_edges(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def edges(g: Graph) -> Iterator[Tuple[int, int]]:
    """Each edge once, as (u, v) with u < v, by increasing v."""
    for v in range(g.n):
        for u in bit_list(g.adj[v] & ((1 << v) - 1)):
            yield (u, v)


def is_clique(g: Graph, vs: int) -> bool:
    """True iff the vertex set ``vs`` induces a complete subgraph of ``g``."""
    m = vs
    while m:
        low = m & -m
        m ^= low
        if m & ~g.adj[low.bit_length() - 1]:
            return False
    return True


def path(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(p: int, q: int) -> Graph:
    return complete_multipartite([p, q])


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    n = sum(part_sizes)
    full = (1 << n) - 1
    adj = []
    start = 0
    for size in part_sizes:
        part = ((1 << size) - 1) << start
        adj.extend([full ^ part] * size)
        start += size
    return Graph(n, tuple(adj))


def turan(n: int, w: int) -> Graph:
    """Balanced complete multipartite graph with ``w`` parts."""
    if not 1 <= w <= n:
        raise ValueError("turan requires 1 <= w <= n")
    q, rem = divmod(n, w)
    return complete_multipartite([q + 1] * rem + [q] * (w - rem))


def induced(g: Graph, vs: int) -> Tuple[Graph, List[int]]:
    """Subgraph induced on the vertex set ``vs``.

    Vertices are relabeled to 0..|vs|-1 in increasing original-label order;
    the returned label map sends new labels back to original ones.
    """
    labels = bit_list(vs)
    index = {v: i for i, v in enumerate(labels)}
    adj = []
    for v in labels:
        row = 0
        for u in bit_list(g.adj[v] & vs):
            row |= 1 << index[u]
        adj.append(row)
    return Graph(len(labels), tuple(adj)), labels


def connected_components(g: Graph) -> List[int]:
    """Vertex masks of the connected components, in increasing mask order."""
    seen = 0
    components = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = g.adj[v] & ~comp
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bit_list(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
        components.append(comp)
        seen |= comp
    return components
