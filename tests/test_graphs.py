import pytest
from hypothesis import given, strategies as st

from cliquebound.graphs import (
    Graph,
    bit_list,
    common_neighbors,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    extremal_graph,
    from_edges,
    mask_of,
)
from cliquebound.errors import CapacityError
from helpers import (
    complete_bipartite,
    complete_multipartite,
    connected_components,
    induced,
    num_edges,
    path,
    turan,
)


def random_graph(draw, n):
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    ))
    return from_edges(n, edges)


graphs = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        lambda edges: from_edges(n, edges),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
    )
)


class TestValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_row_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            empty(65)

    def test_from_edges_merges_duplicates(self):
        assert from_edges(3, [(0, 1), (1, 0)]) == from_edges(3, [(0, 1)])

    def test_from_edges_rejects_loops(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])


class TestConstructions:
    def test_complete(self):
        g = complete(4)
        assert num_edges(g) == 6
        assert g.is_clique(0b1111)

    def test_cycle_and_path(self):
        assert num_edges(cycle(5)) == 5
        assert num_edges(path(5)) == 4
        assert cycle(5).max_degree() == 2

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert num_edges(g) == 6
        assert not (g.adj[0] >> 1) & 1

    def test_turan_is_balanced_multipartite(self):
        g = turan(7, 3)
        # parts of sizes 3,2,2
        assert g == complete_multipartite([3, 2, 2])
        assert num_edges(g) == 3 * 2 + 3 * 2 + 2 * 2

    def test_extremal_graph_shape(self):
        # n = a(r+1) + b: a disjoint K_{r+1} plus one K_b
        g = extremal_graph(10, 3)
        comps = sorted(c.bit_count() for c in connected_components(g))
        assert comps == [2, 4, 4]
        for c in connected_components(g):
            assert g.is_clique(c)


class TestOperations:
    def test_complement_involution(self):
        g = cycle(6)
        assert complement(complement(g)) == g

    def test_disjoint_union_degrees(self):
        g = disjoint_union(complete(3), path(3))
        assert [g.degree(v) for v in range(6)] == [2, 2, 2, 1, 2, 1]

    def test_induced_relabels(self):
        g = cycle(5)
        sub, labels = induced(g, mask_of([0, 1, 3]))
        assert labels == [0, 1, 3]
        assert num_edges(sub) == 1  # only the 0-1 edge survives

    def test_common_neighbors_of_empty_set_is_everything(self):
        assert common_neighbors(path(4), 0) == 0b1111

    def test_common_neighbors_intersects(self):
        assert common_neighbors(cycle(4), mask_of([0, 2])) == mask_of([1, 3])

    def test_connected_components_of_union(self):
        g = disjoint_union(complete(2), complete(3))
        assert sorted(connected_components(g)) == [0b00011, 0b11100]


@given(graphs)
def test_complement_preserves_vertex_count_and_flips_edges(g):
    h = complement(g)
    assert h.n == g.n
    assert num_edges(g) + num_edges(h) == g.n * (g.n - 1) // 2


@given(graphs)
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * num_edges(g)


@given(graphs, st.randoms(use_true_random=False))
def test_relabel_preserves_edge_count(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert num_edges(g.relabel(perm)) == num_edges(g)


def test_bit_helpers():
    assert bit_list(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
