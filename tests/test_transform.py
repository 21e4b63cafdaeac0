import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound import transform
from cliquebound.counting import clique_vector, clique_weights
from cliquebound.enumeration import consistency_sweep, generate
from cliquebound.errors import InternalConsistencyError
from cliquebound.graphs import (
    Graph,
    bit_list,
    common_neighbors,
    complete,
    cycle,
    disjoint_union,
    from_edges,
    mask_of,
)
from cliquebound.structure import TightStructure, derive, tight_cliques, tight_structures
from cliquebound.transform import (
    apply_fill,
    apply_k2_move,
    fill_checks,
    fill_gain,
    gain_lower_bound,
    hill_climb,
    k2_gain,
    k2_move_check,
)
from helpers import is_clique, path


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


def reference_climb(g, r, max_steps=64):
    """The greedy climb with every tight clique found by a walk over every
    clique (weight r + 1 - |C|), and every candidate built by apply_k2_move
    or apply_fill and counted in full: K2 moves first, then the largest
    gain, then the least T."""
    trace = []
    current, k = g, clique_vector(g).total
    for _ in range(max_steps):
        best = {}
        tights = {
            mask
            for mask, size, weight in clique_weights(current)
            if size >= 1 and weight == r + 1 - size
        }
        for tight in tights:
            s = common_neighbors(current, tight)
            maximal = not any(tight | (1 << v) in tights for v in bit_list(s))
            ts = TightStructure(tight, s, current.adj, maximal)
            reports = [apply_fill(current, ts, k)]
            if ts.t >= 2 and ts.k2_components:
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
        assert is_clique(report.after, ts.T | ts.S)
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

    def test_check_record(self):
        g = staging_graph()
        rec = k2_move_check(g.adj, derive(g, 3, mask_of([0, 1])), 16)
        assert (rec.predicate, rec.subject, rec.lhs, rec.rhs) == ("k2_move_gain", "r=3,T=0x3", 18, 16)
        assert rec.applicable and rec.passed

    def test_requires_pair(self):
        with pytest.raises(ValueError):
            apply_k2_move(cycle(4), derive(cycle(4), 2, 0b0001), clique_vector(cycle(4)).total)

    def test_requires_k2_component(self):
        g = complete(4)
        with pytest.raises(ValueError):
            apply_k2_move(g, derive(g, 3, 0b0011), clique_vector(g).total)
        with pytest.raises(ValueError):
            k2_gain(g.adj, derive(g, 3, 0b0011))


def assert_gains_match_full_counts(cases, monkeypatch):
    """For every (graph, cap) of ``cases`` and every tight structure, the
    local gains equal the gains of the rewritten graphs counted in full.
    At least one fill and one K2 move must be checked.  Returns how many
    fills counted the cliques meeting S each way: by ``clique_count`` on
    the vertices outside S, or by ``cliques_meeting`` on S."""
    counted = []
    for name in ("clique_count", "cliques_meeting"):
        original = getattr(transform, name)

        def recorded(rows, mask, name=name, original=original):
            counted.append(name)
            return original(rows, mask)

        monkeypatch.setattr(transform, name, recorded)
    taken = Counter()
    k2_moves = 0
    for g, r in cases:
        k = clique_vector(g).total
        for ts in tight_structures(g, r):
            counted.clear()
            assert fill_gain(g.adj, ts, k) == apply_fill(g, ts, k).gain
            (way,) = counted
            taken[way] += 1
            if ts.t >= 2 and ts.k2_components:
                assert k2_gain(g.adj, ts) == apply_k2_move(g, ts, k).gain
                k2_moves += 1
    assert taken and k2_moves > 0
    return taken


def test_local_gains_match_full_counts(monkeypatch):
    """Every class with n <= 7, every cap the sweep uses.  Small graphs
    have few vertices outside S, so both counts are taken."""
    taken = assert_gains_match_full_counts(
        (
            (g, r)
            for n in range(1, 8)
            for g in generate(n, n - 1)
            for r in range(max(1, g.max_degree()), n)
        ),
        monkeypatch,
    )
    assert taken["clique_count"] > 0 and taken["cliques_meeting"] > 0


def test_local_gains_match_full_counts_on_random_capped_graphs(monkeypatch, random_capped_graph):
    """Past the n <= 7 classes: seeded degree-capped graphs with n 10-16
    and r 3-5, where both counts are taken too."""
    rng = random.Random(1306)
    cases = []
    for _ in range(36):
        n, r = rng.randint(10, 16), rng.randint(3, 5)
        cases.append((random_capped_graph(rng, n, r), r))
    taken = assert_gains_match_full_counts(cases, monkeypatch)
    assert taken["clique_count"] > 0 and taken["cliques_meeting"] > 0


@pytest.fixture
def rows_built(monkeypatch):
    """Every rewrite whose rows are built, as the move name."""
    built = []
    for name, move in (("_fill_rows", "fill"), ("_k2_rows", "k2")):
        original = getattr(transform, name)

        def counted(adj, ts, original=original, move=move):
            built.append(move)
            return original(adj, ts)

        monkeypatch.setattr(transform, name, counted)
    return built


def test_rows_are_built_only_for_moves_taken(rows_built):
    trace = hill_climb(staging_graph(), 3)
    assert rows_built == [step.move for step in trace]


def test_sweep_builds_no_rows(rows_built):
    consistency_sweep(5, 4)
    assert rows_built == []


def test_postconditions_hold_under_optimize():
    """The rewrites' postconditions are checks that raise, not ``assert``s
    that ``python -O`` strips: TestPostconditions run in such a process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    tests = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    script = (
        "from test_transform import TestPostconditions as T\n"
        "T().test_fill_keeping_an_edge_out_of_T_u_S_raises()\n"
        "T().test_k2_move_over_the_cap_raises()\n"
        "print(__debug__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


class TestPostconditions:
    def test_fill_keeping_an_edge_out_of_T_u_S_raises(self):
        # T = {0, 1} of the staging graph with S = {2}: the common neighbor
        # 3 is left out, so the fill leaves the edges 0-3 and 1-3 in place
        g = staging_graph()
        ts = TightStructure(mask_of([0, 1]), mask_of([2]), g.adj, True)
        with pytest.raises(InternalConsistencyError, match="no K_3 component"):
            apply_fill(g, ts, clique_vector(g).total)

    def test_k2_move_over_the_cap_raises(self):
        # a real tight structure of the staging graph, handed the rows of a
        # graph that also holds a K_5, whose degree 4 exceeds the cap 3
        g = disjoint_union(staging_graph(), complete(5))
        ts = TightStructure(mask_of([0, 1]), mask_of([2, 3]), g.adj, True)
        with pytest.raises(InternalConsistencyError, match="breaks the degree cap 3"):
            apply_k2_move(g, ts, clique_vector(g).total)


class TestGainLowerBound:
    def test_cycle4_is_zero(self):
        assert gain_lower_bound(derive(cycle(4), 2, 0b0001)) == 0

    def test_matches_formula_on_staging_graph(self):
        g = staging_graph()
        # T = {0,1}: S = {2,3}, R = K_2, i(R) = 3, phi = 2
        assert gain_lower_bound(derive(g, 3, mask_of([0, 1]))) == 16 - 4 * 3 - 2


class TestFillChecks:
    def test_cycle4_separates_the_two_readings(self):
        # C_4 with a singleton tight clique: the fill gives K_3 u K_1, with
        # 9 cliques like C_4, so the gain is 0; the literal reading predicts
        # a gain and the corrected one does not
        g = cycle(4)
        ts = derive(g, 2, 0b0001)
        assert clique_vector(g).total == apply_fill(g, ts, 9).k_after == 9
        records = fill_checks(ts, 9, 0)
        assert [(rec.predicate, rec.lhs, rec.rhs, rec.passed) for rec in records] == [
            ("fill_gain_lower_bound", 9, 9, True),
            ("fill_threshold_literal", 0, 1, False),
        ]
        assert {rec.subject for rec in records} == {"r=2,T=0x1"}

    def test_corrected_implies_positive_proven_gain(self):
        g = staging_graph()
        k = clique_vector(g).total
        for t_mask in tight_cliques(g, 3):
            ts = derive(g, 3, t_mask)
            gain = apply_fill(g, ts, k).gain
            predicates = [rec.predicate for rec in fill_checks(ts, k, gain)]
            proven = (1 << 4) - (1 << ts.t) * ts.i_R - ts.phi
            assert ("fill_threshold_corrected" in predicates) == (proven > 0)

    def test_non_positive_literal_denominator_rejected(self):
        # i(R) <= 2^s holds for a real deficiency graph; a structure
        # claiming i(R) = 2^s + s + 1 leaves the printed denominator at 0
        fake = SimpleNamespace(r=2, T=1, t=1, s=1, i_R=4, phi=0)
        with pytest.raises(ValueError, match="positive denominator"):
            fill_checks(fake, 9, 0)


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
        # the 4 candidate rewrites of g are scored by local counts, not
        # recounted; trace[0].after (K_4 plus two isolated vertices) has no
        # class but its K_4 component, so nothing is scored there
        assert len(clique_vector_calls) == 2
        assert clique_vector_calls[0] is g
        assert clique_vector_calls[1] is trace[0].after

    def test_scoring_builds_no_graph(self, monkeypatch):
        built = []
        original = Graph.__post_init__

        def counted(graph):
            built.append(graph)
            original(graph)

        g = staging_graph()
        monkeypatch.setattr(Graph, "__post_init__", counted)
        trace = hill_climb(g, 3)
        # only the graph after the one move taken
        assert [graph.adj for graph in built] == [step.after.adj for step in trace]
        assert len(trace) == 1

    def test_candidates_need_no_tightness_test(self, derive_calls):
        assert len(hill_climb(staging_graph(), 3)) == 1
        assert derive_calls == []

    def test_identity_fills_are_not_scored(self, monkeypatch):
        counted_sets = []
        original = transform.cliques_meeting

        def counted(rows, xs):
            counted_sets.append(xs)
            return original(rows, xs)

        monkeypatch.setattr(transform, "cliques_meeting", counted)
        g = disjoint_union(complete(4), staging_graph())  # the K_4 on 0..3
        assert len(hill_climb(g, 3)) == 1
        # only the staging graph's 4 candidates are counted, once each
        # before the move: one fill per class ({0, 1}, {2}, {3}) and the
        # K2 move of {0, 1}; no fill inside the K_4 component, nor inside
        # the K_4 the move builds
        assert len(counted_sets) == 4
        assert all(xs & mask_of(range(4)) == 0 for xs in counted_sets)

    def test_complete_components_are_never_scored(self, monkeypatch):
        scored = []
        for name in ("fill_gain", "k2_gain"):
            original = getattr(transform, name)

            def counted(adj, ts, *k_total, original=original):
                scored.append((adj, ts.T))
                return original(adj, ts, *k_total)

            monkeypatch.setattr(transform, name, counted)
        # two K_4 components on 0..7, then the staging graph on 8..13
        g = disjoint_union(disjoint_union(complete(4), complete(4)), staging_graph())
        (step,) = hill_climb(g, 3)
        built = step.tight_structure.T | step.tight_structure.S
        assert is_clique(step.after, built) and built & mask_of(range(8)) == 0
        # the staging graph's 3 fills (one per class) and 1 K2 move, all
        # scored on g; after the move every class is a K_4 component, and
        # none is
        assert [adj for adj, _ in scored] == [g.adj] * 4
        assert all(t & mask_of(range(8)) == 0 for _, t in scored)

    @pytest.mark.parametrize(
        "gain, g, r",
        [
            pytest.param("fill_gain", path(3), 2, id="fill_gain"),
            pytest.param("k2_gain", staging_graph(), 3, id="k2_gain"),
        ],
    )
    def test_local_count_disagreeing_with_full_count_raises(self, monkeypatch, gain, g, r):
        # the first move taken on g is of the kind whose local count is skewed
        move = gain.removesuffix("_gain")
        assert hill_climb(g, r)[0].move == move
        original = getattr(transform, gain)
        monkeypatch.setattr(transform, gain, lambda adj, ts, *k_total: original(adj, ts, *k_total) + 1)
        with pytest.raises(InternalConsistencyError, match=f"^{move} at T=0x[0-9a-f]+: full count"):
            hill_climb(g, r)

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

    def test_matches_reference_climb_on_random_capped_graphs(self, random_capped_graph):
        rng = random.Random(2013)
        k2_steps = 0
        for _ in range(200):
            n, r = rng.randint(8, 22), rng.randint(2, 6)
            g = random_capped_graph(rng, n, r)
            trace = hill_climb(g, r)
            assert trace_facts(trace) == trace_facts(reference_climb(g, r))
            k2_steps += sum(step.move == "k2" for step in trace)
        assert k2_steps >= 1

    def test_matches_reference_climb_with_complete_components(self, random_capped_graph):
        """Seeded capped graphs joined with 1-3 copies of K_{r+1}, before or
        after them; the climb skips those components, the reference scores
        every tight clique in them."""
        rng = random.Random(1515)
        k2_steps = 0
        for _ in range(60):
            n, r = rng.randint(6, 16), rng.randint(2, 5)
            g = random_capped_graph(rng, n, r)
            for _ in range(rng.randint(1, 3)):
                k = complete(r + 1)
                g = disjoint_union(k, g) if rng.random() < 0.5 else disjoint_union(g, k)
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
