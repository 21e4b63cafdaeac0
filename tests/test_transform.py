import random

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound import transform
from cliquebound.counting import clique_vector
from cliquebound.errors import InternalConsistencyError
from cliquebound.graphs import (
    complete,
    cycle,
    disjoint_union,
    from_edges,
    mask_of,
)
from cliquebound.structure import derive, tight_cliques
from cliquebound.transform import (
    Profitability,
    _k2_components,
    apply_fill,
    apply_k2_move,
    fill_profitable,
    gain_lower_bound,
    hill_climb,
)


def staging_graph():
    """Six vertices, seven edges: a near-K_4 whose two degree-2 vertices
    each drag along a pendant."""
    return from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])


@st.composite
def capped(draw):
    n = draw(st.integers(1, 7))
    edges = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]))
    )
    g = from_edges(n, edges)
    r = draw(st.integers(max(g.max_degree(), 1), n))
    return g, r


def random_capped_graph(rng: random.Random, n: int, r: int):
    """Planted cliques of size 3..r+1, then random edges, never letting a
    degree exceed r."""
    degree = [0] * n
    edges = set()

    def add(u, v):
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and degree[u] < r and degree[v] < r:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1

    for _ in range(n // (r + 1) + rng.randint(0, 3)):
        members = rng.sample(range(n), rng.randint(3, r + 1))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                add(u, v)
    for _ in range(n * r // 3):
        add(rng.randrange(n), rng.randrange(n))
    return from_edges(n, sorted(edges))


def reference_climb(g, r, max_steps=64):
    """The greedy climb with every candidate built by apply_k2_move or
    apply_fill and counted in full: K2 moves first, then the largest gain,
    then the least T."""
    trace = []
    current, k = g, clique_vector(g).total
    for _ in range(max_steps):
        best = {}
        for tight in tight_cliques(current, r, 1):
            ts = derive(current, r, tight)
            reports = [apply_fill(current, ts, k)]
            if ts.t >= 2 and _k2_components(ts):
                reports.append(apply_k2_move(current, ts, k))
            for report in reports:
                key = (-report.gain, ts.T)
                if report.gain > 0 and (report.move not in best or key < best[report.move][0]):
                    best[report.move] = (key, report)
        if not best:
            break
        _, step = best["k2"] if "k2" in best else best["fill"]
        trace.append(step)
        current, k = step.after, step.k_after
    return trace


def trace_facts(trace):
    return [
        (
            step.move,
            step.tight_structure.T,
            step.tight_structure.S,
            step.k_before,
            step.k_after,
            step.gain_lower_bound,
            step.after.adj,
        )
        for step in trace
    ]


class TestFill:
    def test_cycle4_fill_gains_nothing(self):
        report = apply_fill(cycle(4), derive(cycle(4), 2, 0b0001), clique_vector(cycle(4)).total)
        assert report.move == "fill"
        assert report.k_before == report.k_after == 9
        assert report.gain == 0

    def test_staging_graph_pair_fill(self):
        g = staging_graph()
        report = apply_fill(g, derive(g, 3, mask_of([0, 1])), clique_vector(g).total)
        assert report.k_before == 16
        assert report.k_after == 18

    def test_staging_graph_singleton_fill(self):
        # filling around one degree-r vertex rebuilds K_4 u K_2 directly
        g = staging_graph()
        report = apply_fill(g, derive(g, 3, mask_of([2])), clique_vector(g).total)
        assert report.k_after == 19

    def test_result_contains_full_clique(self):
        g = staging_graph()
        report = apply_fill(g, derive(g, 3, mask_of([2])), clique_vector(g).total)
        ts = report.tight_structure
        assert report.after.is_clique(ts.T | ts.S)
        assert report.after.max_degree() <= 3

    @settings(max_examples=150, deadline=None)
    @given(capped())
    def test_gain_never_below_proven_bound(self, gr):
        g, r = gr
        for t_mask in tight_cliques(g, r):
            report = apply_fill(g, derive(g, r, t_mask), clique_vector(g).total)
            assert report.gain >= report.gain_lower_bound

    def test_non_tight_input_rejected(self):
        with pytest.raises(ValueError):
            apply_fill(cycle(5), derive(cycle(5), 3, 0b00001), clique_vector(cycle(5)).total)


class TestK2Move:
    def test_staging_graph(self):
        g = staging_graph()
        report = apply_k2_move(g, derive(g, 3, mask_of([0, 1])), clique_vector(g).total)
        assert report.move == "k2"
        assert report.k_before == 16
        assert report.k_after == 18
        assert report.gain_lower_bound == 2

    def test_requires_pair(self):
        with pytest.raises(ValueError):
            apply_k2_move(cycle(4), derive(cycle(4), 2, 0b0001), clique_vector(cycle(4)).total)

    def test_requires_k2_component(self):
        g = complete(4)
        with pytest.raises(ValueError):
            apply_k2_move(g, derive(g, 3, 0b0011), clique_vector(g).total)


class TestGainLowerBound:
    def test_cycle4_is_zero(self):
        assert gain_lower_bound(derive(cycle(4), 2, 0b0001)) == 0

    def test_matches_formula_on_staging_graph(self):
        g = staging_graph()
        # T = {0,1}: S = {2,3}, R = K_2, i(R) = 3, phi = 2
        assert gain_lower_bound(derive(g, 3, mask_of([0, 1]))) == 16 - 4 * 3 - 2


class TestProfitability:
    def test_cycle4_separates_the_two_readings(self):
        p = fill_profitable(derive(cycle(4), 2, 0b0001))
        assert p == Profitability(literal=True, corrected=False)

    def test_corrected_implies_positive_proven_gain(self):
        g = staging_graph()
        for t_mask in tight_cliques(g, 3):
            ts = derive(g, 3, t_mask)
            assert fill_profitable(ts).corrected == (gain_lower_bound(ts) > 0)


class TestHillClimb:
    def test_staging_graph_one_move_to_18(self):
        trace = hill_climb(staging_graph(), 3)
        assert len(trace) >= 1
        assert trace[0].k_after == 18
        assert clique_vector(trace[-1].after).total == 18

    def test_counts_start_graph_and_taken_move_once(self, clique_vector_calls):
        g = staging_graph()
        trace = hill_climb(g, 3)
        assert len(trace) == 1
        # the 6 candidate rewrites of g and the 15 of trace[0].after (K_4 plus
        # two isolated vertices) are scored by local counts, not recounted
        assert len(clique_vector_calls) == 2
        assert clique_vector_calls[0] is g
        assert clique_vector_calls[1] is trace[0].after

    def test_local_count_disagreeing_with_full_count_raises(self, monkeypatch):
        original = transform._local_gain
        monkeypatch.setattr(
            transform, "_local_gain", lambda before, after, xs: original(before, after, xs) + 1
        )
        with pytest.raises(InternalConsistencyError):
            hill_climb(staging_graph(), 3)

    def test_cycle4_terminates_immediately(self):
        assert hill_climb(cycle(4), 2) == []
        assert clique_vector(cycle(4)).total == 9

    def test_complete_graph_is_a_fixed_point(self):
        assert hill_climb(complete(4), 3) == []

    def test_degree_cap_violation_rejected(self):
        with pytest.raises(ValueError):
            hill_climb(complete(5), 3)

    @settings(max_examples=150, deadline=None)
    @given(capped())
    def test_matches_reference_climb(self, gr):
        g, r = gr
        assert trace_facts(hill_climb(g, r)) == trace_facts(reference_climb(g, r))

    def test_matches_reference_climb_on_random_capped_graphs(self):
        rng = random.Random(2013)
        k2_steps = 0
        for _ in range(200):
            n, r = rng.randint(8, 22), rng.randint(2, 6)
            g = random_capped_graph(rng, n, r)
            trace = hill_climb(g, r)
            assert trace_facts(trace) == trace_facts(reference_climb(g, r))
            k2_steps += sum(step.move == "k2" for step in trace)
        assert k2_steps >= 1

    @settings(max_examples=80, deadline=None)
    @given(capped())
    def test_monotone_and_capped(self, gr):
        g, r = gr
        trace = hill_climb(g, r)
        k = clique_vector(g).total
        for step in trace:
            assert step.k_before == k
            assert step.k_after > step.k_before
            assert step.after.max_degree() <= r
            k = step.k_after
