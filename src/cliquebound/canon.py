"""Canonical labeling by partition refinement with backtracking.

Two graphs get the same canonical form iff they are isomorphic.  The form
is the lexicographically least graph6 encoding over all vertex orderings
consistent with the refined partition, searched by individualizing one
vertex of the first non-singleton cell at a time.  Interchangeable (twin)
vertices are branched only once, which keeps highly symmetric graphs
(unions of cliques, bicliques, empty graphs) from blowing up the search.

Automorphism pruning (McKay, "Practical graph isomorphism", 1981) covers
the symmetry twins miss, as in unions of cycles or Petersen graphs.  When
a leaf's string equals that of the first leaf or of the least leaf so
far, the map between their vertex orders is an automorphism.  The search
then resumes at the node where the two paths part, and at each node it
skips a vertex that the automorphisms fixing the node's path map onto a
vertex already tried there.  Each skipped subtree is the image of one
already searched, with the same leaf strings, so the result is still the
least graph6 string over all leaves.

``canonical_labeling`` runs the same search and returns, with the form,
the vertex order of the least leaf and the automorphisms it recorded, plus
the transposition of each vertex with its least twin.  Every subtree the
search skips is mapped onto one it searched by a product of these maps, so
they generate the whole automorphism group (McKay 1981).  The generator
uses a child's order and generators to decide whether its new vertex is
the canonical one to delete; relabeled through the order, they become the
rows and generators of the child's class, whose generators then pick one
neighbourhood per orbit when the class is extended in turn.

Refinement starts from the degree ranks, so every cell holds vertices of
one degree, and it ranks vertices by an integer key that sorts like
(colour, sorted neighbour colours); see ``_refine``.  It returns the number
of cells with the colours, so no node counts them again, and a leaf's
order is the inverse of its discrete colouring.  The root of the search,
``root_partition``, is the degree ranks refined once; a caller that needs
it for its own test (the generator's deletion test) computes it and starts
the search from it with ``labeling_from_root``.  Refinement and
individualization only ever split a cell into cells that keep its place
among the others, so every leaf order lists the vertices by increasing
root colour.

Leaves are compared by ``graph6.ordered_key``, the integer of their graph6
bits.  For one vertex count every leaf has the same number of bits, so the
integers order exactly like the strings, and the least leaf is the same;
only its key is packed into text, once per labeling.

A target cell whose members are all twins of its least vertex is
individualized whole, in one step and with no refinement: member i gets
the cell's colour plus i.  This is the chain of nodes the search would
walk one vertex at a time, collapsed.  Open twins (equal rows) and closed
twins (equal rows with the vertex itself added) are each an equivalence
relation, and a cell of three or more cannot mix the two kinds, so
checking each member against the least one is enough.  In an equitable
colouring every vertex outside such a cell sees all of it or none of it,
and its members see each other alike, so individualizing them one at a
time refines nothing, and twin pruning gives each node of the chain one
child.  The chain therefore reaches the same leaves in the same order, with
the same paths and the same automorphisms; only its refinements are gone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .graph6 import ordered_key, pack
from .graphs import Graph, bit_list


@lru_cache(maxsize=None)
def _weights(n: int) -> Tuple[int, ...]:
    """``_refine``'s weight of each colour for n vertices: n**(n-1-c)."""
    return tuple(n ** (n - 1 - c) for c in range(n))


def _refine(nbrs, colors: List[int], weight) -> Tuple[List[int], int]:
    """Equitable refinement: split cells by multisets of neighbor colors.
    Returns the refined colours and their number of cells.

    ``colors`` are dense ranks, and all vertices of one cell have the same
    degree.  Sorted neighbour-colour tuples of equal length compare like
    count vectors: at the first colour whose counts differ, the vertex with
    more of that colour sorts first.  So with ``weight[c]`` = n**(n-1-c),
    the integer colour * n**n minus the sum of weight[colour of u] over the
    neighbours u sorts exactly like (colour, sorted neighbour colours), and
    the ranks are the same: no vertex has n neighbours of one colour, so the
    base-n digits of the sum never carry.
    """
    n = len(nbrs)
    top = weight[0] * n
    ncolors = max(colors) + 1
    while True:
        w = [weight[c] for c in colors]
        keys = [top * c - sum(map(w.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        count = len(ranking)
        if count == ncolors or count == n:
            return colors, count
        ncolors = count


def _are_twins(adj, u: int, w: int) -> bool:
    return adj[u] == adj[w] or adj[u] ^ adj[w] == (1 << u) | (1 << w)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal for two graphs iff they are isomorphic."""
    return canonical_form_raw(g.n, g.adj)


def canonical_form_raw(n: int, rows) -> str:
    """As canonical_form, for a bare adjacency-row sequence that has not
    been wrapped (and re-validated) as a Graph.  ``canonical_labeling``
    also gives the vertex order and the automorphism generators."""
    if n <= 1:
        return pack(n, 0)
    nbrs = [bit_list(row) for row in rows]
    return _search(rows, nbrs, *root_partition(nbrs))[0]


def canonical_labeling(n: int, rows) -> Tuple[str, List[int], List[List[int]]]:
    """The canonical form of the graph with adjacency ``rows``; the vertex
    order that encodes to it (``order[i]`` is the vertex in position i);
    and automorphisms, as vertex maps ``gamma`` (v goes to ``gamma[v]``),
    that generate the automorphism group: the ones the search records at
    equal leaves, and the transposition of each vertex with its least twin,
    which covers what twin pruning skips."""
    if n <= 1:
        return pack(n, 0), list(range(n)), []
    nbrs = [bit_list(row) for row in rows]
    return labeling_from_root(rows, nbrs, *root_partition(nbrs))


def root_partition(nbrs) -> Tuple[List[int], int]:
    """The root of the search for the graph on n >= 1 vertices whose
    neighbour lists are ``nbrs``: its degree ranks refined to an equitable
    colouring, and the number of cells.  The colouring is invariant (an
    isomorphism maps it onto the other graph's), and every leaf's order
    lists the vertices by increasing root colour."""
    degree = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degree)))}
    return _refine(nbrs, [rank[d] for d in degree], _weights(len(nbrs)))


def labeling_from_root(
    rows, nbrs, colors: List[int], count: int
) -> Tuple[str, List[int], List[List[int]]]:
    """``canonical_labeling`` of the graph on n >= 2 vertices with adjacency
    ``rows`` and neighbour lists ``nbrs``, searched from its
    ``root_partition``, ``colors`` with ``count`` cells."""
    form, order, autos = _search(rows, nbrs, colors, count)
    # twins share open rows (non-adjacent) or closed rows (adjacent), and no
    # open row equals a closed one: open or closed row -> least vertex
    n = len(rows)
    least = {}
    for v, row in enumerate(rows):
        for key in (row, row | 1 << v):
            w = least.setdefault(key, v)
            if w != v:
                gamma = list(range(n))
                gamma[v], gamma[w] = w, v
                autos.append(gamma)
    return form, order, autos


def _search(rows, nbrs, colors: List[int], count: int) -> Tuple[str, List[int], List[List[int]]]:
    """The canonical form of the graph with adjacency ``rows`` and neighbour
    lists ``nbrs``, searched from the root colouring ``colors`` with
    ``count`` cells; the vertex order of the least leaf; and the
    automorphisms the search recorded on the way.  Leaves are compared by
    their ``ordered_key``, and only the least is packed into text."""
    n = len(rows)
    if count == n:
        order = _inverse(colors)
        return pack(n, ordered_key(nbrs, order)), order, []
    adj = list(rows)
    weight = _weights(n)
    path: List[int] = []  # the vertices individualized above the current node
    first: List = []  # graph6 key, vertex order and path of the first leaf
    best: List = []  # the same for the least leaf so far
    autos: List[List[int]] = []  # automorphisms found, as vertex maps

    def search(colors: List[int], count: int) -> int:
        """Search below the node whose equitable coloring is ``colors``,
        with ``count`` cells.  Returns a depth: every node deeper than it
        stops at once."""
        if count == n:
            order = _inverse(colors)
            key = ordered_key(nbrs, order)
            if not best or key < best[0]:
                best[:] = key, order, path[:]
                if not first:
                    first[:] = best
            elif key == best[0] or key == first[0]:
                # The earlier leaf's order maps onto this one by an
                # automorphism, which maps its path onto this path.  Below
                # their first difference, this subtree mirrors one already
                # searched: resume at the node where they part.
                ref = first if key == first[0] else best
                gamma = [0] * n
                for v, w in zip(ref[1], order):
                    gamma[v] = w
                autos.append(gamma)
                return next(d for d, (v, w) in enumerate(zip(ref[2], path)) if v != w)
            return len(path)
        depth = len(path)
        # first non-singleton cell in color order
        ranked = sorted(colors)
        target = next(c for c, d in zip(ranked, ranked[1:]) if c == d)
        cell = [v for v in range(n) if colors[v] == target]
        head = cell[0]
        if all(_are_twins(adj, head, w) for w in cell[1:]):
            # pairwise twins: the one-at-a-time chain refines nothing and
            # has one child per node (module docstring), so take it at once
            size = len(cell)
            child = [c + (c > target) * (size - 1) for c in colors]
            for i, v in enumerate(cell):
                child[v] = target + i
            path.extend(cell[:-1])
            resume = search(child, count + size - 1)
            del path[depth:]
            return resume if resume < depth else depth
        tried: List[int] = []
        orbit: Optional[List[int]] = None  # union-find: Aut orbits fixing path
        joined = 0  # automorphisms already looked at for ``orbit``
        for u in cell:
            if any(_are_twins(adj, u, w) for w in tried):
                continue
            if autos:
                if len(autos) > joined:
                    if orbit is None:
                        orbit = list(range(n))
                    for gamma in autos[joined:]:
                        if all(gamma[v] == v for v in path):
                            _join_orbits(orbit, gamma)
                    joined = len(autos)
                if orbit is not None:
                    root = _root(orbit, u)
                    if any(_root(orbit, w) == root for w in tried):
                        continue
            tried.append(u)
            # u alone just before the rest of its cell, as dense ranks
            child = [c + (c >= target) for c in colors]
            child[u] = target
            path.append(u)
            resume = search(*_refine(nbrs, child, weight))
            path.pop()
            if resume < depth:
                return resume
        return depth

    search(colors, count)
    return pack(n, best[0]), best[1], autos


def _inverse(colors: List[int]) -> List[int]:
    """The vertex order of a discrete coloring: the vertex of colour i is
    in position i."""
    order = [0] * len(colors)
    for v, c in enumerate(colors):
        order[c] = v
    return order


def _root(parent: List[int], v: int) -> int:
    while parent[v] != v:
        v = parent[v]
    return v


def _join_orbits(parent: List[int], gamma: List[int]) -> None:
    """Merge the union-find classes of ``parent`` along the cycles of gamma."""
    for v, w in enumerate(gamma):
        a, b = _root(parent, v), _root(parent, w)
        if a != b:
            parent[max(a, b)] = min(a, b)
