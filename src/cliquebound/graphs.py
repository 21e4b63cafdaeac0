"""Immutable bit-vector graphs and the named constructions used throughout.

A graph lives on vertices 0..n-1 with n <= MAX_VERTICES (64, one machine
word per adjacency row).  Vertex sets are plain ints used as bit masks, so
set algebra is &, |, ^ and membership is ``(mask >> v) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import CapacityError

MAX_VERTICES = 64


def bit_list(mask: int) -> List[int]:
    """The set bit positions of ``mask`` in increasing order, as a list
    built in one loop."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    """Bit mask of an iterable of vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the open neighborhood N(v).

    Instances are immutable values: every operation that changes structure
    returns a new Graph.  Symmetry and irreflexivity are checked on
    construction, so they hold at every mutation boundary.
    """

    n: int
    adj: Tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        adj = self.adj
        for v in range(n):
            row = adj[v]
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits at positions >= n")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} is self-adjacent")
        for v in range(n):
            row = adj[v]
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
                row ^= low

    @classmethod
    def _trusted(cls, adj: Tuple[int, ...]) -> "Graph":
        """The graph on the rows ``adj`` with none of the checks above, for
        rows known to be valid: ``graph6.unpack`` sets each edge's bit in
        both of its rows and no vertex's own bit."""
        # set the fields as the dataclass __init__ does: reading __dict__
        # would give each instance a dict of its own
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    # -- structural edits (all return new graphs) ----------------------

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed to ``perm[v]``."""
        n = self.n
        adj = [0] * n
        for v in range(n):
            row = 0
            for u in bit_list(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph(n, tuple(adj))


def from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# -- named constructions ----------------------------------------------


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def extremal_graph(n: int, r: int) -> Graph:
    """aK_{r+1} u K_b where n = a(r+1) + b, 0 <= b <= r.

    This is the maximizer of the total clique count among graphs with
    maximum degree at most r.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    a, b = divmod(n, r + 1)
    parts = [complete(r + 1)] * a
    if b:
        parts.append(complete(b))
    g = empty(0)
    for p in parts:
        g = disjoint_union(g, p)
    return g


# -- derived graphs ----------------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError("disjoint union exceeds capacity")
    shifted = tuple(row << g.n for row in h.adj)
    return Graph(g.n + h.n, g.adj + shifted)


def common_neighbors(g: Graph, vs: int) -> int:
    """Intersection of the open neighborhoods of ``vs``.

    For the empty set this is all of V(G); that convention makes the
    double-counting identity t*k_t = sum of weights over (t-1)-cliques
    hold at t = 1.
    """
    result = g.vertex_mask
    for v in bit_list(vs):
        result &= g.adj[v]
    return result
