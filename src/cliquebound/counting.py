"""Exact per-size clique and independent-set counting.

Cliques are counted by a pivoted branch-and-count over candidate sets, on
a graph or on bare adjacency rows restricted to a vertex mask.  Independent
sets are counted on the graph itself, never on its complement: the graphs
here have bounded degree, so their complements are dense, and the
independence polynomial splits over connected components and branches on
a vertex of maximum degree instead.

Both per-size counters carry a count vector (c_0, c_1, ...) as one Python
int, the polynomial evaluated at x = 2^64 (Kronecker substitution):
coefficient j sits in bits [64 j, 64 j + 64).  Every value the recursions
build counts the cliques, or independent sets, of one induced subgraph on
at most 64 vertices (``MAX_VERTICES``), so each coefficient is at most
C(64, 32) < 2^64 and never carries into the next slot.  Adding two vectors
is one integer add, multiplying by x one shift, and the product of two
polynomials one integer multiply; the vector is unpacked once per call.
The same clique recursion, evaluated at x = 1, counts the cliques in total.

``brute_force_clique_vector`` is an oracle that shares no logic with the
pivoted path: it lists every clique as a subset mask, doubling the list
vertex by vertex.  It is the only user of numpy, which it imports when
called, so the rest of the package runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .errors import CapacityError
from .graphs import Graph, bit_list

BRUTE_FORCE_MAX_VERTICES = 24

# Bits per coefficient of a packed count vector; C(64, 32) < 2^64.
_SLOT_BITS = 64
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_ONE_PLUS_X = 1 + (1 << _SLOT_BITS)


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


def _unpack(packed: int) -> CliqueVector:
    """The clique vector whose coefficient j sits in slot j of ``packed``."""
    counts = []
    while packed:
        counts.append(packed & _SLOT_MASK)
        packed >>= _SLOT_BITS
    return CliqueVector(tuple(counts))


def _clique_poly(adj, cand: int, slot: int) -> int:
    """The clique polynomial of G[cand] at x = 2^slot: packed per size for
    ``slot = _SLOT_BITS``, the number of cliques for ``slot = 0``.

    The cliques avoiding every non-neighbor of the pivot p are those of
    N(p), with and without p; the rest are counted at their first
    non-neighbor u of p, as u plus a clique of N(u) inside the candidates
    left after the earlier ones.  So P(cand) is (1 + x) P(cand & N(p)) plus
    x P(rest & N(u)) per such u, and every term and partial sum counts
    cliques of G[cand].
    """
    if cand & (cand - 1) == 0:
        return (1 << slot) + 1 if cand else 1
    pivot, best = -1, -1
    m = cand
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        d = (cand & adj[u]).bit_count()
        if d > best:
            best, pivot = d, u
    inside = _clique_poly(adj, cand & adj[pivot], slot)
    total = inside + (inside << slot)
    rest = cand
    m = cand & ~adj[pivot] & ~(1 << pivot)
    while m:
        low = m & -m
        m ^= low
        rest ^= low
        total += _clique_poly(adj, rest & adj[low.bit_length() - 1], slot) << slot
    return total


def clique_vector(g: Graph) -> CliqueVector:
    """Per-size clique counts by pivoted recursion."""
    return _unpack(_clique_poly(g.adj, g.vertex_mask, _SLOT_BITS))


def clique_count(rows, mask: int) -> int:
    """Number of cliques of the subgraph induced on ``mask``, the empty one
    included, for bare adjacency rows: the clique polynomial at x = 1.  Bits
    of ``rows`` outside ``mask`` are ignored."""
    return _clique_poly(rows, mask, 0)


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
    for x in bit_list(xs):
        total += clique_count(rows, rows[x] & ~earlier)
        earlier |= 1 << x
    return total


def _independence_poly(adj, mask: int, memo) -> int:
    """The packed independence polynomial of the subgraph induced on
    ``mask``; ``memo`` maps vertex masks already done to their results.

    A disconnected subgraph is the product of its component and the rest,
    one integer multiply.  A connected one branches on a vertex v of
    maximum degree: I(H) = I(H - v) + x I(H - N[v]).  Every intermediate
    result is the independence polynomial of an induced subgraph.
    """
    if not mask:
        return 1
    done = memo.get(mask)
    if done is not None:
        return done
    component = frontier = mask & -mask
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached |= adj[low.bit_length() - 1]
        frontier = reached & mask & ~component
        component |= frontier
    if component != mask:
        rest = _independence_poly(adj, mask ^ component, memo)
        result = _independence_poly(adj, component, memo) * rest
    elif not mask & (mask - 1):
        result = _ONE_PLUS_X
    else:
        v, best = -1, -1
        m = mask
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            d = (adj[u] & mask).bit_count()
            if d > best:
                best, v = d, u
        without = _independence_poly(adj, mask & ~(1 << v), memo)
        beside = _independence_poly(adj, mask & ~adj[v] & ~(1 << v), memo)
        result = without + (beside << _SLOT_BITS)
    memo[mask] = result
    return result


def independent_vector(g: Graph) -> CliqueVector:
    """Per-size independent-set counts, from the independence polynomial of
    ``g`` itself.  Results are memoized by vertex mask within the call."""
    return _unpack(_independence_poly(g.adj, g.vertex_mask, {}))


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


def brute_force_clique_vector(g: Graph) -> CliqueVector:
    """Oracle counter: list every clique as a subset mask, by doubling.

    Once the cliques inside {0, ..., v-1} are listed, those inside
    {0, ..., v} are the same ones plus S + {v} for each listed S that lies
    inside N(v): a subset is a clique iff it stays one without its top
    vertex and that vertex sees the rest.  Each clique's size is doubled
    alongside its mask.  Capped at n <= 24.
    """
    import numpy as np  # only the oracle needs numpy

    n = g.n
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise CapacityError(f"brute force capped at n <= {BRUTE_FORCE_MAX_VERTICES}")
    cliques = np.zeros(1, dtype=np.uint32)
    sizes = np.zeros(1, dtype=np.uint8)
    for v in range(n):
        inside = (cliques & np.uint32(((1 << v) - 1) & ~g.adj[v])) == 0
        cliques = np.concatenate((cliques, cliques[inside] | np.uint32(1 << v)))
        sizes = np.concatenate((sizes, sizes[inside] + np.uint8(1)))
    return CliqueVector(tuple(int(c) for c in np.bincount(sizes)))
