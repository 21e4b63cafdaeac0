"""Tight cliques, clusters, and the derived common-neighborhood data.

Under a degree cap r, a clique T is tight when its weight meets the
ceiling r+1-|T|.  Every vertex of a tight clique then has degree exactly
r, the common neighborhood S has size exactly r+1-|T|, and the deficiency
graph R (complement of the subgraph induced on S) records the edges that
the clique-fill rewrite would add.  R is never built: its independent sets
are the cliques of G[S], and its degrees, K_2 components, i(R) and phi(R)
are all read off G's adjacency rows restricted to S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Set, Tuple

from .counting import clique_count, clique_weights, cliques_of_size
from .errors import InternalConsistencyError
from .fixed_loss import fixed_loss_on_rows
from .graphs import Graph, bits, common_neighbors
from .records import ConsistencyRecord


@dataclass(frozen=True)
class TightStructure:
    """A tight clique T with its common neighborhood S, and the adjacency
    rows ``adj`` of the graph G they were found in.

    The deficiency graph R, the complement of G[S], is read off ``adj``
    restricted to S.  i(R), phi(R) and the K_2 components of R are computed
    on first use and kept with the structure, so every rewrite and predicate
    handed the same structure shares them.
    """

    T: int
    S: int
    adj: Tuple[int, ...]
    is_cluster: bool

    @property
    def t(self) -> int:
        return self.T.bit_count()

    @property
    def s(self) -> int:
        return self.S.bit_count()

    @property
    def r(self) -> int:
        """The degree cap T is tight under: tightness makes s = r + 1 - t."""
        return self.t + self.s - 1

    @cached_property
    def i_R(self) -> int:
        """i(R): the number of independent sets of R, the empty set
        included, which are the cliques of G[S]."""
        return clique_count(self.adj, self.S)

    @cached_property
    def phi(self) -> int:
        """phi(R): the fixed loss of the deficiency graph."""
        return fixed_loss_on_rows(self.adj, self.S).phi

    def r_degree(self, x: int) -> int:
        """The degree in R of x in S: its non-neighbors in S - x."""
        return self.s - 1 - (self.adj[x] & self.S).bit_count()

    @cached_property
    def k2_components(self) -> Tuple[int, ...]:
        """K_2 components of R, as masks in G's labels, by least member: the
        pairs {x, y} in S whose only non-neighbors in S are each other."""
        s_mask, adj = self.S, self.adj
        pairs = []
        later = s_mask
        while later:
            low = later & -later
            later ^= low
            missing = (s_mask & ~adj[low.bit_length() - 1]) ^ low
            # a single missing y after x, so each pair is found once, at x
            if missing & later and not missing & (missing - 1):
                if (s_mask & ~adj[missing.bit_length() - 1]) ^ missing == low:
                    pairs.append(missing | low)
        return tuple(pairs)

    @property
    def has_small_component(self) -> bool:
        """Whether R has a K_1 component (an x in S adjacent to all of
        S - x) or a K_2 component."""
        return bool(self.k2_components) or any(self.r_degree(x) == 0 for x in bits(self.S))


def _meets_ceiling(weight: int, size: int, r: int) -> bool:
    return weight == r + 1 - size


def is_tight(g: Graph, r: int, c: int) -> bool:
    """Whether clique ``c`` meets the weight ceiling r+1-|c|.

    The empty clique has weight n, so it is tight exactly when n = r+1.
    """
    if g.max_degree() > r:
        raise ValueError("tightness needs the degree cap to hold")
    if not g.is_clique(c):
        raise ValueError("tightness is defined only for cliques")
    return _meets_ceiling(common_neighbors(g, c).bit_count(), c.bit_count(), r)


def tight_cliques(g: Graph, r: int, min_size: int = 1) -> Iterator[int]:
    """All tight cliques of size >= min_size, by size then mask order.  A
    nonempty k-clique has weight at most Delta(G) + 1 - k, so none is tight
    under a cap r > Delta(G), and no clique is scanned there."""
    max_degree = g.max_degree()
    if max_degree > r:
        raise ValueError("tightness needs the degree cap to hold")
    if max_degree < r and min_size >= 1:
        return iter([])
    found: List[Tuple[int, int]] = []
    for mask, size, weight in clique_weights(g):
        if size >= min_size and _meets_ceiling(weight, size, r):
            found.append((size, mask))
    found.sort()
    return iter([mask for _, mask in found])


def _structure(g: Graph, tight: int, tight_set: Set[int]) -> TightStructure:
    """S and cluster status for ``tight``, where ``tight_set`` holds every
    tight clique of ``g`` of size >= 1."""
    s_mask = common_neighbors(g, tight)
    # maximal iff no tight strict superset; any such superset extends into S
    maximal = not any(tight | (1 << v) in tight_set for v in bits(s_mask))
    return TightStructure(tight, s_mask, g.adj, maximal)


def tight_structures(g: Graph, r: int, skip: int = 0) -> List[TightStructure]:
    """Every tight clique of size >= 1 that misses the vertex mask ``skip``,
    derived, in ``tight_cliques`` order.  One clique scan of the whole graph
    decides tightness for all of them, so cluster flags are read against
    every tight clique, skipped ones included."""
    masks = list(tight_cliques(g, r))
    tight_set = set(masks)
    return [_structure(g, t, tight_set) for t in masks if not t & skip]


def derive(g: Graph, r: int, tight: int) -> TightStructure:
    """S and cluster status for one tight clique, checked to be one."""
    if not is_tight(g, r, tight):
        raise ValueError("derive requires a tight clique")
    return _structure(g, tight, set(tight_cliques(g, r)))


def clusters(g: Graph, r: int) -> List[TightStructure]:
    """All maximal tight cliques, cross-validated against closed-neighborhood
    equivalence classes of the degree-r vertices."""
    return clusters_among(g, r, tight_structures(g, r))


def clusters_among(g: Graph, r: int, tights: List[TightStructure]) -> List[TightStructure]:
    """The maximal members of ``tights``, which holds every tight clique of
    ``g`` under ``r``, derived; cross-validated against closed-neighborhood
    equivalence classes of the degree-r vertices.

    The two computations must agree; a mismatch raises rather than silently
    preferring one.
    """
    maximal = [ts for ts in tights if ts.is_cluster]

    # Independent route: vertices lying in some tight clique all have degree
    # exactly r, and sharing a tight clique is the same as sharing a closed
    # neighborhood.
    tight_vertices = [v for v in range(g.n) if g.degree(v) == r]
    classes = {}
    for v in tight_vertices:
        classes.setdefault(g.closed_neighborhood(v), 0)
        classes[g.closed_neighborhood(v)] |= 1 << v
    expected = sorted(classes.values())
    if sorted(ts.T for ts in maximal) != expected:
        raise InternalConsistencyError(
            f"cluster computations disagree: maximal tight cliques "
            f"{sorted(ts.T for ts in maximal)} vs closed-neighborhood classes {expected}"
        )
    return sorted(maximal, key=lambda ts: ts.T)


def associated_cliques(g: Graph, cluster: int, c: int) -> Iterator[int]:
    """c-cliques meeting the cluster in exactly c-1 vertices."""
    if c < 2:
        raise ValueError("association is defined for cliques of size >= 2")
    for mask in cliques_of_size(g, c):
        if (mask & cluster).bit_count() == c - 1:
            yield mask


def outside_degree_check(g: Graph, ts: TightStructure) -> ConsistencyRecord:
    """For each x in S: the number of G-neighbors outside T u S is at most
    the degree of x in R.  Violations are recorded, never raised."""
    inside = ts.T | ts.S
    per_vertex = {}
    worst = None
    for x in bits(ts.S):
        outside = (g.adj[x] & ~inside).bit_count()
        r_deg = ts.r_degree(x)
        per_vertex[x] = (outside, r_deg)
        if worst is None or outside - r_deg > worst[0] - worst[1]:
            worst = (outside, r_deg)
    lhs, rhs = worst if worst is not None else (0, 0)
    return ConsistencyRecord(
        predicate="outside_degree",
        subject=f"T={ts.T:#x}",
        lhs=lhs,
        rhs=rhs,
        applicable=True,
        passed=all(o <= d for o, d in per_vertex.values()),
        detail={"per_vertex": per_vertex},
    )
