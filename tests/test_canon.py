import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound import canon, graph6
from cliquebound.canon import canonical_form, canonical_labeling
from cliquebound.enumeration import generate
from cliquebound.graphs import (
    Graph,
    bits,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_edges,
)


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
    nbrs = [list(bits(row)) for row in adj]

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
    if g.num_edges() < g.n * (g.n - 1) // 2:
        non_edge = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        g2 = from_edges(g.n, list(g.edges()) + [non_edge])
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
    seeded relabeling: each generator ``canonical_labeling`` returns is an
    automorphism, the group they generate has the vertex orbits of the
    whole group, which networkx lists by matching the graph with itself,
    and the order encodes to the form."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(1998)
    assert len(atlas_classes) == 1251
    for g in atlas_classes:
        n = g.n
        for h in (g, relabeled(g, rng)):
            form, order, gens = canonical_labeling(n, h.adj)
            assert form == canonical_form(g)
            assert graph6.encode(h.relabel([order.index(v) for v in range(n)])) == form
            for gamma in gens:
                assert sorted(gamma) == list(range(n))
                assert h.relabel(gamma).adj == h.adj
            k = nx.Graph()
            k.add_nodes_from(range(n))
            k.add_edges_from(h.edges())
            matcher = nx.algorithms.isomorphism.GraphMatcher(k, k)
            autos = [[iso[v] for v in range(n)] for iso in matcher.isomorphisms_iter()]
            assert vertex_orbits(n, gens) == vertex_orbits(n, autos), graph6.encode(h)


def test_distinguishes_regular_nonisomorphic_pairs():
    # both 2-regular on 6 vertices
    assert canonical_form(cycle(6)) != canonical_form(
        disjoint_union(cycle(3), cycle(3))
    )
