"""Exact per-size clique and independent-set counting.

The production counter is a pivoted branch-and-count over candidate sets;
``brute_force_clique_vector`` is an independent oracle that scans all 2^n
subsets and is kept free of any shared logic with the pivoted path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, List, Tuple

import numpy as np

from .errors import CapacityError
from .graphs import Graph, bits, common_neighbors, complement

BRUTE_FORCE_MAX_VERTICES = 24


@dataclass(frozen=True)
class CliqueVector:
    """Exact counts (k_0, ..., k_m) with m the largest clique size present."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValueError("a clique vector starts with k_0 = 1")
        if len(self.counts) > 1 and self.counts[-1] == 0:
            raise ValueError("clique vectors are stored without trailing zeros")

    def __getitem__(self, t: int) -> int:
        if 0 <= t < len(self.counts):
            return self.counts[t]
        return 0

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def max_size(self) -> int:
        return len(self.counts) - 1


def _normalize(counts: List[int]) -> CliqueVector:
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return CliqueVector(tuple(counts))


def _count_into(adj, cand: int, required: int, optional: int, counts: List[int]) -> None:
    """Add to ``counts[required + j]`` the number of j-cliques inside ``cand``.

    Each node either folds the pivot in as an optional member (every clique
    avoiding all of the pivot's non-neighbors extends into its neighborhood)
    or commits one non-neighbor as required; the per-size totals fall out of
    binomials over the optional vertices collected along each path.
    """
    if cand == 0:
        for j in range(optional + 1):
            counts[required + j] += comb(optional, j)
        return
    pivot, best = -1, -1
    m = cand
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        d = (cand & adj[u]).bit_count()
        if d > best:
            best, pivot = d, u
    _count_into(adj, cand & adj[pivot], required, optional + 1, counts)
    rest = cand
    for v in bits(cand & ~adj[pivot] & ~(1 << pivot)):
        rest &= ~(1 << v)
        _count_into(adj, rest & adj[v], required + 1, optional, counts)


def clique_vector(g: Graph) -> CliqueVector:
    """Per-size clique counts by pivoted recursion."""
    counts = [0] * (g.n + 1)
    _count_into(g.adj, g.vertex_mask, 0, 0, counts)
    return _normalize(counts)


def cliques_meeting(rows, xs: int) -> int:
    """Number of cliques that meet the vertex set ``xs``, for bare adjacency
    rows.

    Each such clique is counted at its first member x in ``xs``: it is x
    plus a clique of N(x) minus the members of ``xs`` before x.  A rewrite
    that changes edges only at ``xs`` changes k(G) by exactly the change in
    this count, so candidate rewrites are scored without wrapping (and
    re-validating) their rows as Graphs.  The empty set gives 0, and the
    full vertex set gives k(G) - 1.
    """
    counts = [0] * (len(rows) + 1)
    earlier = 0
    for x in bits(xs):
        _count_into(rows, rows[x] & ~earlier, 1, 0, counts)
        earlier |= 1 << x
    return sum(counts)


def independent_vector(g: Graph) -> CliqueVector:
    """Per-size independent-set counts, via cliques of the complement."""
    return clique_vector(complement(g))


def clique_weight(g: Graph, c: int) -> int:
    """Number of common neighbors of the clique ``c``.

    Equals the number of (|c|+1)-cliques containing ``c``; the empty clique
    has weight n.
    """
    if not g.is_clique(c):
        raise ValueError("weight is defined only for cliques")
    return common_neighbors(g, c).bit_count()


def clique_weights(g: Graph) -> Iterator[Tuple[int, int, int]]:
    """Yield (mask, size, weight) for every clique of ``g``, empty set included.

    The weight (common-neighbor count) is maintained incrementally, so a
    full scan costs little more than enumerating the cliques.
    """
    adj = g.adj

    def rec(mask: int, size: int, common: int, allowed: int):
        yield mask, size, common.bit_count()
        m = allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            row = adj[v]
            yield from rec(mask | low, size + 1, common & row, m & row)

    yield from rec(0, 0, g.vertex_mask, g.vertex_mask)


def weight_sums(g: Graph) -> List[int]:
    """sums[t] = sum of weights over all t-cliques (t = 0..max size)."""
    sums = [0] * (g.n + 1)
    top = 0
    for _, size, w in clique_weights(g):
        sums[size] += w
        top = max(top, size)
    return sums[: top + 1]


def cliques_of_size(g: Graph, t: int) -> Iterator[int]:
    """All t-cliques as bit masks, in increasing numeric mask order."""
    if not 0 <= t <= g.n:
        raise ValueError("clique size out of range")
    adj = g.adj
    found: List[int] = []

    def rec(mask: int, size: int, allowed: int) -> None:
        if size == t:
            found.append(mask)
            return
        m = allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rec(mask | low, size + 1, m & adj[v])

    rec(0, 0, g.vertex_mask)
    found.sort()
    return iter(found)


def brute_force_clique_vector(g: Graph) -> CliqueVector:
    """Oracle counter: test every one of the 2^n subsets for completeness.

    A subset fails iff some member has a non-neighbor among the others; the
    test is vectorized over all subsets at once.  Capped at n <= 24.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise CapacityError(f"brute force capped at n <= {BRUTE_FORCE_MAX_VERTICES}")
    full = (1 << n) - 1
    subsets = np.arange(1 << n, dtype=np.uint32)
    is_clique = np.ones(1 << n, dtype=bool)
    for v in range(n):
        non_neighbors = full & ~(g.adj[v] | (1 << v))
        contains_v = (subsets >> np.uint32(v)) & np.uint32(1)
        hits_non_neighbor = (subsets & np.uint32(non_neighbors)) != 0
        is_clique &= ~((contains_v == 1) & hits_non_neighbor)
    sizes = _popcounts(subsets[is_clique])
    counts = np.bincount(sizes, minlength=1)
    return _normalize([int(c) for c in counts])


def _popcounts(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    v = v - ((v >> np.uint32(1)) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> np.uint32(2)) & np.uint32(0x33333333))
    v = (v + (v >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.int64)
