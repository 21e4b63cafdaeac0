"""Exact per-size clique and independent-set counting.

Cliques are counted by a pivoted branch-and-count over candidate sets, on
a graph or on bare adjacency rows restricted to a vertex mask.  Independent
sets are counted on the graph itself, never on its complement: the graphs
here have bounded degree, so their complements are dense, and the
independence polynomial splits over connected components and branches on
a vertex of maximum degree instead.  ``brute_force_clique_vector`` is an
independent oracle that scans all 2^n subsets and is kept free of any
shared logic with the pivoted path.  It is the only user of numpy, which
it imports when called, so the rest of the package runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, List, Tuple

from .errors import CapacityError
from .graphs import Graph, bits, common_neighbors

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


def _count_total(adj, cand: int) -> int:
    """Number of cliques inside ``cand``, the empty one included.

    ``_count_into``'s pivot split, counting totals only: the cliques
    avoiding every non-neighbor of the pivot p are those of N(p), with and
    without p, and the rest are counted at their first non-neighbor of p.
    """
    if cand == 0:
        return 1
    pivot, best = -1, -1
    m = cand
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        d = (cand & adj[u]).bit_count()
        if d > best:
            best, pivot = d, u
    row = adj[pivot]
    total = 2 * _count_total(adj, cand & row)
    rest = cand
    m = cand & ~row & ~(1 << pivot)
    while m:
        low = m & -m
        m ^= low
        rest ^= low
        total += _count_total(adj, rest & adj[low.bit_length() - 1])
    return total


def clique_count(rows, mask: int) -> int:
    """Number of cliques of the subgraph induced on ``mask``, the empty one
    included, for bare adjacency rows.  Bits of ``rows`` outside ``mask`` are
    ignored."""
    return _count_total(rows, mask)


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
    total = 0
    earlier = 0
    for x in bits(xs):
        total += clique_count(rows, rows[x] & ~earlier)
        earlier |= 1 << x
    return total


def _poly_product(p: List[int], q: List[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _independence_poly(adj, mask: int, memo) -> List[int]:
    """Coefficients of the independence polynomial of the subgraph induced
    on ``mask``; ``memo`` maps vertex masks already done to their results,
    which are never mutated.

    A disconnected subgraph is the product of its component and the rest.
    A connected one branches on a vertex v of maximum degree:
    I(H) = I(H - v) + x I(H - N[v]).
    """
    if not mask:
        return [1]
    done = memo.get(mask)
    if done is not None:
        return done
    component = frontier = mask & -mask
    while frontier:
        reached = 0
        for u in bits(frontier):
            reached |= adj[u]
        frontier = reached & mask & ~component
        component |= frontier
    if component != mask:
        result = _poly_product(
            _independence_poly(adj, component, memo),
            _independence_poly(adj, mask ^ component, memo),
        )
    elif not mask & (mask - 1):
        result = [1, 1]
    else:
        v = max(bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        without = _independence_poly(adj, mask & ~(1 << v), memo)
        beside = _independence_poly(adj, mask & ~adj[v] & ~(1 << v), memo)
        result = without + [0] * (len(beside) + 1 - len(without))
        for i, c in enumerate(beside):
            result[i + 1] += c
    memo[mask] = result
    return result


def independent_vector(g: Graph) -> CliqueVector:
    """Per-size independent-set counts, from the independence polynomial of
    ``g`` itself.  Results are memoized by vertex mask within the call."""
    return CliqueVector(tuple(_independence_poly(g.adj, g.vertex_mask, {})))


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
    """sums[t] = sum of weights over all t-cliques (t = 0..max size).

    The cliques are walked as in ``clique_weights``, on an explicit stack
    rather than through its generator, carrying each clique's common
    neighborhood.  The walk shares no logic with ``clique_vector``'s pivoted
    count, so double counting compares two independent computations.
    """
    adj = g.adj
    sums = [0] * (g.n + 1)
    sums[0] = g.n
    top = 0
    # (candidates, size, common neighborhood) of each clique to extend
    stack = [(g.vertex_mask, 0, g.vertex_mask)]
    while stack:
        allowed, size, common = stack.pop()
        size += 1
        if allowed and size > top:
            top = size
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            row = adj[low.bit_length() - 1]
            sums[size] += (common & row).bit_count()
            if allowed & row:
                stack.append((allowed & row, size, common & row))
    return sums[: top + 1]


def cliques_of_size(g: Graph, t: int) -> Iterator[int]:
    """All t-cliques as bit masks, in increasing numeric mask order."""
    if not 0 <= t <= g.n:
        raise ValueError("clique size out of range")
    return iter(sorted(mask for mask, size, _ in clique_weights(g) if size == t))


def brute_force_clique_vector(g: Graph) -> CliqueVector:
    """Oracle counter: test every one of the 2^n subsets for completeness.

    A subset fails iff some member has a non-neighbor among the others; the
    test is vectorized over all subsets at once.  Capped at n <= 24.
    """
    import numpy as np  # only the oracle needs numpy

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
    import numpy as np

    v = values.copy()
    v = v - ((v >> np.uint32(1)) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> np.uint32(2)) & np.uint32(0x33333333))
    v = (v + (v >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.int64)
