from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound.enumeration import generate
from cliquebound.fixed_loss import (
    FixedLossBreakdown,
    complete_graph_fixed_loss,
    degree_one_bound_check,
    fixed_loss,
    has_small_component,
    max_bound_check,
)
from cliquebound.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    empty,
    from_edges,
)
from helpers import connected_components, path

graphs = st.integers(0, 7).flatmap(
    lambda n: st.builds(
        lambda edges: from_edges(n, edges),
        st.sets(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                lambda e: e[0] < e[1]
            )
        ),
    )
)


def fixed_loss_by_subset_scan(g: Graph) -> FixedLossBreakdown:
    """Independent reimplementation: scan all nonempty subsets directly."""
    phi = weighted = 0
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if any((g.adj[u] >> v) & 1 for u, v in combinations(combo, 2)):
                continue
            term = (1 << min(g.degree(v) for v in combo)) - 1
            phi += term
            weighted += size * term
    ell = sum(1 for v in range(g.n) if g.degree(v) == 1)
    return FixedLossBreakdown(phi=phi, ell=ell, s=g.n, weighted_sum=weighted)


class TestFixedLoss:
    def test_k2(self):
        assert fixed_loss(complete(2)).phi == 2

    def test_k3(self):
        assert fixed_loss(complete(3)).phi == 9

    def test_cycle4(self):
        assert fixed_loss(cycle(4)).phi == 18

    def test_empty_graph_has_no_loss(self):
        assert fixed_loss(empty(4)).phi == 0

    def test_complete_closed_form(self):
        for s in range(1, 10):
            assert complete_graph_fixed_loss(s) == s * ((1 << (s - 1)) - 1)
            assert fixed_loss(complete(s)).phi == complete_graph_fixed_loss(s)

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_matches_subset_scan(self, g):
        assert fixed_loss(g) == fixed_loss_by_subset_scan(g)

    def test_matches_subset_scan_on_every_small_class(self):
        """phi, weighted_sum, ell and s equal the subset scan's on every
        class with n <= 7, each taken as R."""
        seen = 0
        for n in range(0, 8):
            for g in generate(n, max(n - 1, 0)):
                assert fixed_loss(g) == fixed_loss_by_subset_scan(g), g
                seen += 1
        assert seen == 1253

    @given(graphs)
    def test_breakdown_is_consistent(self, g):
        b = fixed_loss(g)
        assert isinstance(b, FixedLossBreakdown)
        assert b.ell == sum(1 for v in range(g.n) if g.degree(v) == 1)


class TestMaxBound:
    def test_extremal_at_complete_graph(self):
        k5 = complete(5)
        rec = max_bound_check(k5, fixed_loss(k5))
        assert rec.passed and rec.lhs == rec.rhs

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_never_fails(self, g):
        rec = max_bound_check(g, fixed_loss(g))
        if rec.applicable:
            assert rec.passed

    def test_weighted_strengthening_exhaustive_n6(self):
        """Sum over independent sets of |I| (2^delta - 1) <= s 2^(s-1) - s."""
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            for code in range(1 << len(pairs)):
                g = from_edges(n, [p for i, p in enumerate(pairs) if (code >> i) & 1])
                rec = max_bound_check(g, fixed_loss(g))
                assert not rec.applicable or rec.passed


class TestDegreeOneBound:
    def test_p3_value(self):
        # ell = 2 of s = 3: bound is 2^3 + (3-2-2)2^0 = 7
        p3 = path(3)
        rec = degree_one_bound_check(p3, fixed_loss(p3))
        assert rec.applicable
        assert rec.lhs == 6 and rec.rhs == 7
        assert rec.passed

    def test_small_components_excluded(self):
        for g in [complete(2), disjoint_union(complete(2), cycle(4)), empty(3)]:
            assert not degree_one_bound_check(g, fixed_loss(g)).applicable

    def test_empty_vertex_set_excluded(self):
        e0 = empty(0)
        assert not degree_one_bound_check(e0, fixed_loss(e0)).applicable

    def test_exhaustive_n5(self):
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for code in range(1 << len(pairs)):
                g = from_edges(n, [p for i, p in enumerate(pairs) if (code >> i) & 1])
                rec = degree_one_bound_check(g, fixed_loss(g))
                assert not rec.applicable or rec.passed


class TestHasSmallComponent:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (empty(1), True),
            (complete(2), True),
            (complete(3), False),
            (disjoint_union(complete(3), complete(2)), True),
            (cycle(5), False),
        ],
    )
    def test_cases(self, g, expected):
        assert has_small_component(g) is expected

    def test_row_rule_matches_the_components_on_every_small_class(self):
        """An empty row is a K_1 component and a lone neighbor whose row is
        just the vertex closes a K_2 component: the rule equals the
        component definition on every class with 1 <= n <= 7."""
        graphs_seen = small = 0
        for n in range(1, 8):
            for g in generate(n, n - 1):
                expected = any(comp.bit_count() <= 2 for comp in connected_components(g))
                assert has_small_component(g) is expected
                graphs_seen += 1
                small += expected
        assert (graphs_seen, small) == (1252, 243)

    @settings(max_examples=200, deadline=None)
    @given(graphs)
    def test_row_rule_matches_the_components(self, g):
        expected = any(comp.bit_count() <= 2 for comp in connected_components(g))
        assert has_small_component(g) is expected
