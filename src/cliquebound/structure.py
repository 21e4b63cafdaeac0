"""Tight cliques, clusters, and the derived common-neighborhood data.

Under a degree cap r, a clique T is tight when its weight |N(T)| meets the
ceiling r+1-|T|.  A nonempty T is tight exactly when its members all have
degree r and share one closed neighborhood X, of r + 1 vertices.  Each v in
a tight T has N(v) containing (T - v) and N(T), r vertices already, so
N[v] = T u N(T); and the members of a class K = {v : deg v = r, N[v] = X}
are pairwise adjacent with common neighborhood X - T for every nonempty
T in K.  So the tight cliques are the nonempty subsets T of the classes,
with S = X - T, and the clusters (maximal tight cliques) are the classes
themselves; no clique is walked to find them.

The deficiency graph R (complement of the subgraph induced on S) records
the edges that the clique-fill rewrite would add.  R is never built: its
independent sets are the cliques of G[S], and its degrees and K_2
components are read off G's adjacency rows restricted to S.  Within a
class the vertices of K - T are adjacent to all of S, so they are isolated
in R: i(R) = 2^|K - T| k(G[X - K]) and phi(R) = phi(R(X - K)), where R(X - K)
is the complement of G[X - K].  Both are counted on the class's core
X - K, on first read, and shared by every T of the class.  They read only
the core's rows restricted to the core, so the sweep also shares one core
among all classes of a chunk whose cores have one ``ClassCore.key``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

from .counting import clique_count
from .errors import InternalConsistencyError
from .fixed_loss import fixed_loss_on_rows
from .graphs import Graph, bit_list, common_neighbors, mask_of
from .records import ConsistencyRecord


class ClassCore:
    """G's adjacency rows restricted to the core of a class (K, X), the
    vertices X - K.  Its clique count and the fixed loss of its complement
    are computed on first read and kept; every T of the class shares one
    core.  Both read only the rows of the core's members restricted to the
    core, so two cores with one ``key`` give the same values."""

    __slots__ = ("adj", "mask", "_cliques", "_phi")

    def __init__(self, adj, mask: int):
        self.adj = adj
        self.mask = mask
        self._cliques = self._phi = None

    @property
    def cliques(self) -> int:
        """k(G[X - K]), the empty clique included."""
        if self._cliques is None:
            self._cliques = clique_count(self.adj, self.mask)
        return self._cliques

    @property
    def phi(self) -> int:
        """phi of the complement of G[X - K]."""
        if self._phi is None:
            self._phi = fixed_loss_on_rows(self.adj, self.mask).phi
        return self._phi

    def key(self, width: int) -> int:
        """The core mask, then each member's row restricted to it, by
        increasing member, packed in ``width``-bit slots.  Exact for cores
        of graphs on at most ``width`` vertices: equal keys mean equal masks
        and equal restricted rows, so equal ``cliques`` and ``phi``."""
        mask, adj = self.mask, self.adj
        key = mask
        shift = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            shift += width
            key |= (adj[low.bit_length() - 1] & mask) << shift
        return key


@dataclass(frozen=True)
class TightStructure:
    """A tight clique T with its common neighborhood S, and the adjacency
    rows ``adj`` of the graph G they were found in.

    The deficiency graph R, the complement of G[S], is read off ``adj``
    restricted to S.  ``K`` is T's class, the vertices of T u S whose closed
    neighborhood is T u S; each vertex of K - T is adjacent to all of S and
    isolated in R, so i(R) and phi(R) are read off ``core``, G restricted to
    S - K, which the structures of one class share.  ``K`` = 0 (the empty
    clique's class, and the default) puts all of S in the core.  The sizes
    ``t`` = |T| and ``s`` = |S| are counted once, when the structure is
    built, and the K_2 components of R on first use; both are kept with the
    structure, which compares and hashes on (T, S, adj, is_cluster, K).
    """

    T: int
    S: int
    adj: Tuple[int, ...]
    is_cluster: bool
    K: int = 0
    core: Optional[ClassCore] = field(default=None, compare=False, repr=False)
    t: int = field(init=False, compare=False, repr=False)
    s: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        put = object.__setattr__
        put(self, "t", self.T.bit_count())
        put(self, "s", self.S.bit_count())
        if self.core is None:
            put(self, "core", ClassCore(self.adj, self.S & ~self.K))

    @property
    def r(self) -> int:
        """The degree cap T is tight under: tightness makes s = r + 1 - t."""
        return self.t + self.s - 1

    @property
    def i_R(self) -> int:
        """i(R): the number of independent sets of R, the empty set
        included, which are the cliques of G[S]: 2^|K - T| k(G[S - K])."""
        return self.core.cliques << (self.S & self.K).bit_count()

    @property
    def phi(self) -> int:
        """phi(R): the fixed loss of the deficiency graph.  Isolated
        vertices add nothing and change no other R-degree, so it is that
        of the core."""
        return self.core.phi

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
        return bool(self.k2_components) or any(self.r_degree(x) == 0 for x in bit_list(self.S))


def tight_classes(g: Graph, r: int) -> List[Tuple[int, int, ClassCore]]:
    """The classes (K, X) with K = {v : deg v = r, N[v] = X} nonempty, in
    order of least member of K, each with its core X - K.  Each X has
    r + 1 vertices and contains K.  The tight cliques are exactly the
    nonempty subsets of the classes' K's, and the clusters are the K's
    themselves; a tight clique of size r + 1 is X itself, and so a
    cluster.  K = X exactly when X is a K_{r+1} component of G."""
    if g.max_degree() > r:
        raise ValueError("tightness needs the degree cap to hold")
    classes: Dict[int, int] = {}
    for v, row in enumerate(g.adj):
        if row.bit_count() == r:
            x = row | (1 << v)
            classes[x] = classes.get(x, 0) | (1 << v)
    return [(k, x, ClassCore(g.adj, x & ~k)) for x, k in classes.items()]


def class_structure(adj, k: int, x: int, t: int, core: ClassCore) -> TightStructure:
    """The tight structure of a nonempty T within the class (K, X): its
    common neighborhood is X - T, and T is a cluster iff T = K.  ``core``
    is the class's core from ``tight_classes``, shared by its structures.

    The sweep builds one per tight clique, so the fields are set with one
    ``__dict__`` update, as the frozen ``__init__`` would set them one
    ``object.__setattr__`` at a time."""
    ts = object.__new__(TightStructure)
    s = x & ~t
    ts.__dict__.update(
        T=t, S=s, adj=adj, is_cluster=t == k, K=k, core=core, t=t.bit_count(), s=s.bit_count()
    )
    return ts


def _by_size(g: Graph, r: int) -> List[Tuple[int, int, int, int, ClassCore]]:
    """(|T|, T, K, X, core) for every nonempty tight clique T in class
    (K, X), sorted by size then mask."""
    found = []
    for k, x, core in tight_classes(g, r):
        t = k
        while t:
            found.append((t.bit_count(), t, k, x, core))
            t = (t - 1) & k
    # no two entries share T, so the sort never compares cores
    found.sort()
    return found


def tight_cliques(g: Graph, r: int, min_size: int = 1) -> Iterator[int]:
    """All tight cliques of size >= min_size, by size then mask order: the
    nonempty subsets of each class, and the empty clique, of weight n, when
    n = r + 1 and min_size <= 0."""
    found = [entry[1] for entry in _by_size(g, r) if entry[0] >= min_size]
    if min_size <= 0 and g.n == r + 1:
        found.insert(0, 0)
    return iter(found)


def tight_structures(g: Graph, r: int) -> List[TightStructure]:
    """Every tight clique of size >= 1, derived, in ``tight_cliques`` order;
    the structures of one class share its core."""
    return [class_structure(g.adj, k, x, t, core) for _, t, k, x, core in _by_size(g, r)]


def derive(g: Graph, r: int, tight: int) -> TightStructure:
    """S and cluster status for one tight clique, looked up among the
    classes: a nonempty T is tight exactly when it lies inside a class's K,
    and the empty clique, of weight n, exactly when n = r + 1.  Any other
    set raises ValueError."""
    classes = tight_classes(g, r)
    if not tight and g.n == r + 1:
        # the empty clique is maximal iff no vertex is tight
        return TightStructure(0, g.vertex_mask, g.adj, not classes)
    for k, x, core in classes:
        if tight and not tight & ~k:
            return class_structure(g.adj, k, x, tight, core)
    raise ValueError("derive requires a tight clique")


def clusters(g: Graph, r: int) -> List[TightStructure]:
    """All maximal tight cliques, one per class, each checked against the
    definition."""
    found = [class_structure(g.adj, k, x, k, core) for k, x, core in tight_classes(g, r)]
    return clusters_among(g, r, found)


def clusters_among(g: Graph, r: int, tights: List[TightStructure]) -> List[TightStructure]:
    """The members of ``tights`` flagged as clusters, by mask.  ``tights``
    holds every cluster of ``g`` under ``r``, derived, and may hold the
    other tight cliques too.

    Each cluster is checked against the definition on G's rows: T is a
    clique, S = N(T) with |S| = r + 1 - |T|, and no v in S has
    |N(T + v)| = r - |T|.  One pass over T's rows gives N(T) and the
    clique test, and one over S the maximality test.  As a singleton {v}
    is tight exactly when deg v = r, the clusters must also cover the
    degree-r vertices.  A mismatch raises rather than silently preferring
    one computation.
    """
    adj = g.adj
    maximal = sorted((ts for ts in tights if ts.is_cluster), key=lambda ts: ts.T)
    covered = 0
    for ts in maximal:
        t_mask = ts.T
        common = g.vertex_mask
        missing = 0  # members of T that some other member is not adjacent to
        m = t_mask
        while m:
            low = m & -m
            m ^= low
            row = adj[low.bit_length() - 1]
            common &= row
            missing |= (t_mask ^ low) & ~row
        ok = not missing and common == ts.S and ts.s == r + 1 - ts.t
        m = common if ok else 0
        while m:
            low = m & -m
            m ^= low
            # |N(T + v)| = r - |T|: T + v is tight, so T is not maximal
            if (common & adj[low.bit_length() - 1]).bit_count() == r - ts.t:
                ok = False
                break
        if not ok:
            raise InternalConsistencyError(
                f"cluster T={ts.T:#x} is not a maximal tight clique under r={r}"
            )
        covered |= t_mask
    tight_vertices = 0
    for v, row in enumerate(adj):
        if row.bit_count() == r:
            tight_vertices |= 1 << v
    if covered != tight_vertices:
        raise InternalConsistencyError(
            f"clusters cover {covered:#x}, but the degree-{r} vertices are {tight_vertices:#x}"
        )
    return maximal


def associated_cliques(g: Graph, cluster: int, c: int) -> Iterator[int]:
    """c-cliques meeting the cluster in exactly c-1 vertices, in increasing
    mask order: each (c-1)-subset A of the cluster, a clique, plus each
    common neighbor of A outside the cluster."""
    if c < 2:
        raise ValueError("association is defined for cliques of size >= 2")
    found = []
    for chosen in combinations(bit_list(cluster), c - 1):
        a = mask_of(chosen)
        found.extend(a | (1 << v) for v in bit_list(common_neighbors(g, a) & ~cluster))
    yield from sorted(found)


def outside_degree_check(g: Graph, ts: TightStructure) -> ConsistencyRecord:
    """For each x in S: the number of G-neighbors outside T u S is at most
    the degree of x in R.  The record holds the first x with the largest
    excess; it passes iff that excess is at most 0.  Violations are
    recorded, never raised."""
    adj, rows, s_mask = g.adj, ts.adj, ts.S
    inside = ts.T | s_mask
    last = ts.s - 1
    lhs = rhs = 0
    excess = None
    m = s_mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        outside = (adj[x] & ~inside).bit_count()
        r_deg = last - (rows[x] & s_mask).bit_count()  # ts.r_degree(x)
        if excess is None or outside - r_deg > excess:
            lhs, rhs, excess = outside, r_deg, outside - r_deg
    return ConsistencyRecord("outside_degree", f"T={ts.T:#x}", lhs, rhs, True, lhs <= rhs)
