import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound import canon, graph6
from cliquebound.canon import canonical_form, labeling_from_root, root_partition
from cliquebound.enumeration import generate
from cliquebound.graphs import (
    Graph,
    bit_list,
    complete,
    cycle,
    disjoint_union,
    empty,
    from_edges,
)
from helpers import complete_bipartite, edges, num_edges


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield from_edges(n, [p for i, p in enumerate(pairs) if (code >> i) & 1])


def brute_min_encoding(g: Graph) -> str:
    return min(
        graph6.encode(g.relabel(list(perm))) for perm in permutations(range(g.n))
    )


def reference_refine(nbrs, colors):
    """Equitable refinement keyed by (colour, sorted neighbour colours)."""
    n = len(nbrs)
    ncolors = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[sig] for sig in sigs]
        if len(ranking) in (ncolors, n):
            return colors
        ncolors = len(ranking)


def reference_canonical_form(g: Graph) -> str:
    """The search with twin pruning alone: the least graph6 string over every
    leaf of the twin-pruned tree, walked in full.  canonical_form must
    return exactly this string."""
    n, adj = g.n, list(g.adj)
    if n <= 1:
        return graph6.encode(g)
    nbrs = [bit_list(row) for row in adj]

    def refine(colors):
        return reference_refine(nbrs, colors)

    def twins(u, w):
        return adj[u] == adj[w] or adj[u] ^ adj[w] == (1 << u) | (1 << w)

    def leaves(colors):
        colors = refine(colors)
        if len(set(colors)) == n:
            order = sorted(range(n), key=colors.__getitem__)
            yield graph6.pack(n, graph6.ordered_key(nbrs, order))
            return
        target = min(c for c in set(colors) if colors.count(c) > 1)
        tried = []
        for u in (v for v in range(n) if colors[v] == target):
            if not any(twins(u, w) for w in tried):
                tried.append(u)
                child = [2 * c for c in colors]
                child[u] -= 1
                yield from leaves(child)

    return min(leaves([0] * n))


def union(*parts: Graph) -> Graph:
    g = empty(0)
    for part in parts:
        g = disjoint_union(g, part)
    return g


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edges(10, edges)


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_partition_agreement_exhaustive_small():
    """canonical_form separates graphs exactly as brute-force minimization does.

    The two canonical strings need not coincide, but they must induce the
    same isomorphism classes on the set of all labeled graphs.
    """
    for n in range(1, 6):
        by_canon = {}
        by_brute = {}
        for g in all_labeled_graphs(n):
            by_canon.setdefault(canonical_form(g), set()).add(g.adj)
            by_brute.setdefault(brute_min_encoding(g), set()).add(g.adj)
        assert sorted(by_canon.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(6, 7).flatmap(
        lambda n: st.builds(
            lambda edges: from_edges(n, edges),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_agreement_with_brute_force_on_random_pairs(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert canonical_form(g) == canonical_form(h)
    assert brute_min_encoding(g) == brute_min_encoding(h)
    # and a deliberately non-isomorphic tweak separates them
    if num_edges(g) < g.n * (g.n - 1) // 2:
        non_edge = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not (g.adj[u] >> v) & 1
        )
        g2 = from_edges(g.n, list(edges(g)) + [non_edge])
        assert (canonical_form(g2) == canonical_form(g)) == (
            brute_min_encoding(g2) == brute_min_encoding(g)
        )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.builds(
            lambda edges: from_edges(n, edges),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_invariance_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_matches_unpruned_reference_on_every_small_class():
    rng = random.Random(1981)
    for n in range(1, 8):
        for g in generate(n, 6):  # the cap is clamped to n - 1
            for h in (g, relabeled(g, rng), relabeled(g, rng)):
                assert canonical_form(h) == reference_canonical_form(h)


def test_integer_keyed_refinement_matches_tuple_keys(monkeypatch):
    """Every refinement that labeling the classes with n <= 8 (relabeled)
    makes gives the colours that sorting by (colour, sorted neighbour
    colours) gives."""
    checked = []
    original = canon._refine

    def compared(nbrs, colors, weight):
        refined, count = original(nbrs, colors, weight)
        assert refined == reference_refine(nbrs, colors)
        assert count == len(set(refined))
        checked.append(len(nbrs))
        return refined, count

    monkeypatch.setattr(canon, "_refine", compared)
    rng = random.Random(2014)
    for n in range(2, 9):
        for g in generate(n, 7):
            canonical_form(relabeled(g, rng))
    assert checked.count(8) > 12346  # the search refines below the root too


def test_individualization_matches_tuple_keyed_refinement(monkeypatch, atlas_classes):
    """At every search node of every class with 2 <= n <= 7, as the atlas
    labels it and relabeled: the colouring that ``_individualize`` gives (a
    split by adjacency to the new singleton, refined further unless it is
    discrete) is the reference refinement of the colouring with that vertex
    alone just before the rest of its cell."""
    checked = []
    original = canon._individualize

    def compared(nbrs, colors, u, weight):
        refined, count = original(nbrs, colors, u, weight)
        child = [c + (c >= colors[u]) for c in colors]
        child[u] = colors[u]
        assert refined == reference_refine(nbrs, child)
        assert count == len(set(refined))
        checked.append(count == len(nbrs))
        return refined, count

    monkeypatch.setattr(canon, "_individualize", compared)
    rng = random.Random(2014)
    for g in atlas_classes:
        canonical_form(g)
        canonical_form(relabeled(g, rng))
    # nodes whose split is discrete, and nodes refined past it, are reached
    assert set(checked) == {False, True}


@pytest.mark.parametrize(
    "g, refinements",
    [
        (empty(8), 1),
        (complete_bipartite(1, 7), 1),
        (complete(8), 1),
        (disjoint_union(complete(4), complete(4)), 3),
    ],
    ids=["E8", "K1,7", "K8", "2xK4"],
)
def test_twin_cells_are_individualized_without_refinement(monkeypatch, g, refinements):
    """A cell of pairwise twins is individualized in one step: one by one,
    with a refinement each, it took 8, 7, 8 and 13 refinements here."""
    calls = []
    original = canon._refine

    def counted(nbrs, colors, weight):
        calls.append(colors)
        return original(nbrs, colors, weight)

    monkeypatch.setattr(canon, "_refine", counted)
    assert canonical_form(g) == reference_canonical_form(g)
    assert len(calls) == refinements


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 11).flatmap(
        lambda n: st.builds(
            lambda edges: from_edges(n, edges),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
        )
    ),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_matches_unpruned_reference(g, copies, rng):
    """On g and on unions of copies of g, whose equal leaves drive the
    automorphism pruning."""
    h = relabeled(union(*[g] * min(copies, 12 // g.n)), rng)
    assert canonical_form(h) == reference_canonical_form(h)


@pytest.mark.parametrize(
    "build",
    [
        lambda: union(*[cycle(5)] * 3),
        lambda: union(*[cycle(4)] * 4),
        lambda: union(cycle(7), cycle(7)),
        lambda: union(cycle(5), petersen()),
        lambda: union(petersen(), petersen()),
        pytest.param(lambda: union(*[cycle(5)] * 4), marks=pytest.mark.slow),
    ],
    ids=["3xC5", "4xC4", "2xC7", "C5+Petersen", "2xPetersen", "4xC5"],
)
def test_symmetric_unions_match_unpruned_reference(build):
    g = build()
    expected = reference_canonical_form(g)
    assert canonical_form(g) == expected
    assert canonical_form(relabeled(g, random.Random(g.n))) == expected


@pytest.mark.parametrize("copies, leaves", [(3, 9), (4, 12)])
def test_leaf_count_of_cycle_unions(canon_leaves, copies, leaves):
    """Twin pruning alone reaches 6,000 leaves on 3xC5."""
    canonical_form(union(*[cycle(5)] * copies))
    assert len(canon_leaves) == leaves


def test_symmetric_worst_cases_terminate_quickly():
    for g in [complete(9), complete_bipartite(4, 5), cycle(9),
              disjoint_union(complete(4), complete(4)),
              union(*[cycle(5)] * 4), union(petersen(), petersen())]:
        start = time.perf_counter()
        c = canonical_form(g)
        assert time.perf_counter() - start < 1.0
        assert graph6.decode(c).n == g.n


def vertex_orbits(n, maps):
    """The orbits of the vertices 0..n-1 under the group the vertex maps
    generate, as a set of frozensets."""
    orbit = {v: {v} for v in range(n)}
    for gamma in maps:
        for v, w in enumerate(gamma):
            if orbit[v] is not orbit[w]:
                merged = orbit[v] | orbit[w]
                for x in merged:
                    orbit[x] = merged
    return {frozenset(o) for o in orbit.values()}


def test_automorphism_generators_generate_the_automorphism_group(atlas_classes):
    """On every class with 2 <= n <= 7, as the atlas labels it and under a
    seeded relabeling: each generator that ``labeling_from_root`` returns
    (started from ``root_partition``, the route generation takes) is an
    automorphism, the group they generate has the vertex orbits of the
    whole group, which networkx lists by matching the graph with itself,
    and the order encodes to the form."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(1998)
    assert len(atlas_classes) == 1251
    for g in atlas_classes:
        n = g.n
        for h in (g, relabeled(g, rng)):
            nbrs = [bit_list(row) for row in h.adj]
            key, order, gens = labeling_from_root(h.adj, nbrs, *root_partition(nbrs))
            form = graph6.pack(n, key)
            assert form == canonical_form(g)
            assert graph6.encode(h.relabel([order.index(v) for v in range(n)])) == form
            for gamma in gens:
                assert sorted(gamma) == list(range(n))
                assert h.relabel(gamma).adj == h.adj
            k = nx.Graph()
            k.add_nodes_from(range(n))
            k.add_edges_from(edges(h))
            matcher = nx.algorithms.isomorphism.GraphMatcher(k, k)
            autos = [[iso[v] for v in range(n)] for iso in matcher.isomorphisms_iter()]
            assert vertex_orbits(n, gens) == vertex_orbits(n, autos), graph6.encode(h)


def test_distinguishes_regular_nonisomorphic_pairs():
    # both 2-regular on 6 vertices
    assert canonical_form(cycle(6)) != canonical_form(
        disjoint_union(cycle(3), cycle(3))
    )


def rook_4x4() -> Graph:
    """K4 x K4: the cells of a 4 x 4 board, adjacent in a row or a column."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    return from_edges(16, [
        (a, b) for a, b in combinations(range(16), 2)
        if (cells[a][0] == cells[b][0]) != (cells[a][1] == cells[b][1])
    ])


def shrikhande() -> Graph:
    """Z4 x Z4 with the differences +-(0, 1), +-(1, 0) and +-(1, 1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return from_edges(16, [
        (a, b) for a, b in combinations(range(16), 2)
        if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps
    ])


def triangular_8_switched(switch) -> Graph:
    """T(8), the line graph of K8, Seidel-switched on the set of its
    vertices that are the edges ``switch`` of K8: adjacency between that
    set and the rest is complemented.  No edges gives T(8) itself."""
    pairs = list(combinations(range(8), 2))
    inside = {pairs.index(tuple(sorted(e))) for e in switch}
    return from_edges(28, [
        (a, b) for a, b in combinations(range(28), 2)
        if (len(set(pairs[a]) & set(pairs[b])) == 1) != ((a in inside) != (b in inside))
    ])


def srg_parameters(g: Graph):
    """(n, k, lambda, mu) if g is strongly regular, else None."""
    degrees = {g.degree(v) for v in range(g.n)}
    common = {True: set(), False: set()}  # adjacent or not -> common neighbours
    for u, v in combinations(range(g.n), 2):
        common[bool((g.adj[u] >> v) & 1)].add((g.adj[u] & g.adj[v]).bit_count())
    if len(degrees) != 1 or any(len(values) != 1 for values in common.values()):
        return None
    return g.n, degrees.pop(), *(common[adjacent].pop() for adjacent in (True, False))


@pytest.mark.parametrize(
    "parameters, graphs",
    [
        ((16, 6, 2, 2), [rook_4x4, shrikhande]),
        (
            (28, 12, 6, 4),
            [
                lambda: triangular_8_switched([]),
                lambda: triangular_8_switched([(0, 1), (2, 3), (4, 5), (6, 7)]),
                lambda: triangular_8_switched([(i, (i + 1) % 8) for i in range(8)]),
                lambda: triangular_8_switched(
                    [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
                ),
            ],
        ),
    ],
    ids=["rook-Shrikhande", "T8-Chang"],
)
def test_strongly_regular_graphs_of_one_parameter_set(parameters, graphs):
    """Strongly regular graphs with equal parameters: refinement cannot
    split their one degree cell, so only the search tells them apart.
    Each gets its own form, and the same one under 200 seeded relabelings
    (the Chang graph switched on C8 got a different form on 23 of 200 when
    the search joined orbits of automorphisms that do not fix its path)."""
    built = [build() for build in graphs]
    assert {srg_parameters(g) for g in built} == {parameters}
    forms = [canonical_form(g) for g in built]
    assert len(set(forms)) == len(forms)
    rng = random.Random(parameters[0])
    for g, form in zip(built, forms):
        assert {canonical_form(relabeled(g, rng)) for _ in range(200)} == {form}
