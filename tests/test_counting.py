import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound.counting import (
    BRUTE_FORCE_MAX_VERTICES,
    CliqueVector,
    brute_force_clique_vector,
    clique_count,
    clique_vector,
    clique_weight,
    clique_weights,
    cliques_meeting,
    cliques_of_size,
    independent_vector,
    weight_sums,
)
from cliquebound.enumeration import generate
from cliquebound.errors import CapacityError
from cliquebound.graphs import (
    MAX_VERTICES,
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
def test_independent_vector_equals_the_oracle_on_the_complement(g):
    """Against the subset-listing oracle, which packs nothing, so a fault in
    the packed layout shared by the two counters above cannot cancel out."""
    assert independent_vector(g) == brute_force_clique_vector(complement(g))


def test_independent_vector_equals_the_oracle_on_every_small_class(atlas_classes):
    """Every class with n <= 7, taken from the networkx atlas, not from the
    generator; n = 0 and n = 1 are covered by ``TestPackedSlots``."""
    assert len(atlas_classes) == 1251
    for g in atlas_classes:
        assert independent_vector(g) == brute_force_clique_vector(complement(g))


class TestPackedSlots:
    """Each count vector is carried as one integer with 64 bits per size.
    The largest coefficient that can occur is C(64, 32), in K64's clique
    vector and in the edgeless graph's independent-set vector; a slot too
    narrow for it carries into the next size."""

    def test_binomial_row_on_64_vertices(self):
        row = [comb(MAX_VERTICES, k) for k in range(MAX_VERTICES + 1)]
        assert list(clique_vector(complete(MAX_VERTICES))) == row
        assert list(independent_vector(empty(MAX_VERTICES))) == row

    def test_one_slot_above_the_empty_set(self):
        assert list(independent_vector(complete(MAX_VERTICES))) == [1, MAX_VERTICES]
        assert list(clique_vector(empty(MAX_VERTICES))) == [1, MAX_VERTICES]

    @pytest.mark.parametrize("n", [0, 1])
    def test_at_most_one_vertex(self, n):
        expected = [1] * (n + 1)
        assert list(clique_vector(empty(n))) == expected
        assert list(independent_vector(empty(n))) == expected
        assert list(brute_force_clique_vector(empty(n))) == expected


def test_agrees_with_the_complement_route(random_capped_graph):
    """Seeded degree-capped graphs, n 16-30 and r 3-7, and denser ones up to
    r = n - 1, against the cliques of the complement: the route
    ``independent_vector`` no longer takes."""
    rng = random.Random(1306)
    for _ in range(40):
        n = rng.randint(16, 30)
        r = rng.randint(3, 7) if rng.random() < 0.75 else rng.randint(8, n - 1)
        g = random_capped_graph(rng, n, r)
        assert independent_vector(g) == clique_vector(complement(g))


def _disjoint_copies(h, copies):
    g = empty(0)
    for _ in range(copies):
        g = disjoint_union(g, h)
    return g


@pytest.mark.parametrize(
    "g, total",
    [
        (_disjoint_copies(complete(2), 32), 3**32),
        (cycle(64), 23_725_150_497_407),  # the Lucas number L_64
        (_disjoint_copies(cycle(4), 16), 7**16),
    ],
    ids=["32K2", "C64", "16C4"],
)
def test_sparse_graphs_on_64_vertices_count_fast(g, total):
    start = time.perf_counter()
    assert independent_vector(g).total == total
    assert time.perf_counter() - start < 1.0


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


def weight_sums_from_stream(g):
    """Weight sums read off ``clique_weights``: an independent walk."""
    sums = [0] * (g.n + 1)
    top = 0
    for _, size, weight in clique_weights(g):
        sums[size] += weight
        top = max(top, size)
    return sums[: top + 1]


def assert_counters_agree(g, masks):
    assert weight_sums(g) == weight_sums_from_stream(g)
    for mask in masks:
        assert clique_count(g.adj, mask) == clique_vector(induced(g, mask)[0]).total


class TestTotalCounters:
    """``clique_count`` counts totals only and ``weight_sums`` walks the
    cliques on a stack; each is checked against a counter that shares none
    of its code path."""

    def test_every_class_up_to_seven_vertices(self):
        rng = random.Random(1807)
        classes = [g for n in range(8) for g in generate(n, max(n - 1, 0))]
        assert len(classes) == 1253
        for g in classes:
            assert_counters_agree(g, [g.vertex_mask] + [rng.randrange(1 << g.n) for _ in range(3)])

    @settings(max_examples=200, deadline=None)
    @given(graphs, st.data())
    def test_random_masks(self, g, data):
        assert_counters_agree(g, [data.draw(st.integers(0, g.vertex_mask))])

    def test_degree_capped_graphs_up_to_forty_vertices(self, random_capped_graph):
        rng = random.Random(4018)
        for _ in range(30):
            n = rng.randint(8, 40)
            g = random_capped_graph(rng, n, rng.randint(2, 7))
            assert_counters_agree(g, [g.vertex_mask, rng.randrange(1 << n), rng.randrange(1 << n)])
