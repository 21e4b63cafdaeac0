import pytest
from hypothesis import given, settings, strategies as st

from cliquebound.counting import (
    BRUTE_FORCE_MAX_VERTICES,
    CliqueVector,
    brute_force_clique_vector,
    clique_vector,
    clique_weight,
    clique_weights,
    cliques_meeting,
    cliques_of_size,
    independent_vector,
    weight_sums,
)
from cliquebound.errors import CapacityError
from cliquebound.graphs import (
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    extremal_graph,
    from_edges,
    induced,
    mask_of,
    path,
    turan,
)

graphs = st.integers(0, 8).flatmap(
    lambda n: st.builds(
        lambda edges: from_edges(n, edges),
        st.sets(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                lambda e: e[0] < e[1]
            )
        ),
    )
)


class TestCliqueVector:
    def test_always_counts_the_empty_clique(self):
        assert clique_vector(empty(0))[0] == 1
        assert clique_vector(empty(5))[0] == 1

    def test_trailing_zeros_are_truncated(self):
        v = clique_vector(path(3))
        assert len(v) == 3  # sizes 0, 1, 2

    def test_out_of_range_lookup_is_zero(self):
        assert clique_vector(complete(2))[7] == 0

    def test_rejects_vector_not_starting_at_one(self):
        with pytest.raises(ValueError):
            CliqueVector((2, 1))


class TestKnownValues:
    def test_complete_graph_is_binomial_row(self):
        assert list(clique_vector(complete(4))) == [1, 4, 6, 4, 1]

    def test_cycle5(self):
        v = clique_vector(cycle(5))
        assert list(v) == [1, 5, 5]
        assert v.total == 11

    def test_independent_sets_of_cycle5(self):
        assert independent_vector(cycle(5)).total == 11

    def test_two_k4(self):
        g = disjoint_union(complete(4), complete(4))
        assert clique_vector(g).total == 31

    def test_extremal_graph_total(self):
        # a=2, b=2 at r=3: 2*(2^4 - 1) + 2^2
        assert clique_vector(extremal_graph(10, 3)).total == 34

    def test_turan_has_no_oversized_clique(self):
        v = clique_vector(turan(9, 3))
        assert v.max_size == 3
        assert v[3] == 27


class TestWeights:
    def test_empty_clique_weight_is_vertex_count(self):
        assert clique_weight(cycle(5), 0) == 5

    def test_weight_counts_extensions(self):
        g = complete(4)
        assert clique_weight(g, mask_of([0, 1])) == 2

    def test_non_clique_rejected(self):
        with pytest.raises(ValueError):
            clique_weight(path(3), mask_of([0, 2]))

    def test_stream_matches_pointwise_recomputation(self):
        g = disjoint_union(cycle(4), complete(3))
        for mask, size, weight in clique_weights(g):
            assert mask.bit_count() == size
            assert clique_weight(g, mask) == weight

    def test_cliques_of_size_sorted_by_mask(self):
        masks = list(cliques_of_size(cycle(4), 2))
        assert masks == sorted(masks)
        assert len(masks) == 4


class TestBruteForceOracle:
    def test_cap(self):
        with pytest.raises(CapacityError):
            brute_force_clique_vector(empty(BRUTE_FORCE_MAX_VERTICES + 1))

    def test_empty_graph(self):
        assert list(brute_force_clique_vector(empty(5))) == [1, 5]

    @settings(max_examples=200, deadline=None)
    @given(graphs)
    def test_agrees_with_pivoted_counter(self, g):
        assert clique_vector(g) == brute_force_clique_vector(g)


@given(graphs)
def test_weight_identity(g):
    """t * k_t equals the total weight over (t-1)-cliques, for every t >= 1."""
    v = clique_vector(g)
    sums = weight_sums(g)
    for t in range(1, v.max_size + 2):
        expected = sums[t - 1] if t - 1 < len(sums) else 0
        assert t * v[t] == expected


@given(graphs)
def test_complement_duality(g):
    assert independent_vector(g) == clique_vector(complement(g))


@given(graphs)
def test_vector_dominated_by_complete_graph(g):
    kn = clique_vector(complete(g.n)) if g.n else clique_vector(empty(0))
    assert all(v <= kn[t] for t, v in enumerate(clique_vector(g)))


class TestCliquesMeeting:
    @settings(max_examples=200, deadline=None)
    @given(graphs, st.data())
    def test_is_k_minus_k_of_the_rest(self, g, data):
        xs = data.draw(st.integers(0, g.vertex_mask))
        rest, _ = induced(g, g.vertex_mask & ~xs)
        expected = brute_force_clique_vector(g).total - brute_force_clique_vector(rest).total
        assert cliques_meeting(g.adj, xs) == expected

    @given(graphs)
    def test_empty_and_full_sets(self, g):
        assert cliques_meeting(g.adj, 0) == 0
        assert cliques_meeting(g.adj, g.vertex_mask) == brute_force_clique_vector(g).total - 1
