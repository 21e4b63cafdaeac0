from itertools import combinations, permutations

from hypothesis import given, settings, strategies as st

from cliquebound import graph6
from cliquebound.canon import canonical_form, canonical_graph
from cliquebound.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
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


def test_symmetric_worst_cases_terminate_quickly():
    for g in [complete(9), complete_bipartite(4, 5), cycle(9),
              disjoint_union(complete(4), complete(4))]:
        c = canonical_form(g)
        assert graph6.decode(c).n == g.n


def test_canonical_graph_is_isomorphic_fixed_point():
    g = disjoint_union(cycle(4), complete(3))
    h = canonical_graph(g)
    assert canonical_form(h) == canonical_form(g)
    assert graph6.encode(h) == canonical_form(g)


def test_distinguishes_regular_nonisomorphic_pairs():
    # both 2-regular on 6 vertices
    assert canonical_form(cycle(6)) != canonical_form(
        disjoint_union(cycle(3), cycle(3))
    )
