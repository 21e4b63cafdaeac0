from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound.bounds import (
    bounded_clique_checks,
    chain_bound_check,
    chain_vs_main_compare,
    cluster_loss_check,
    discharging_check,
    double_counting_check,
    extremal_bound_check,
    galvin_bound,
    kahn_zhao_check,
    main_bound,
    min_ind_check,
    regular_independent_checks,
    strong_chain_bound,
    strong_inequalities,
    zykov_check,
)
from cliquebound.counting import CliqueVector, clique_vector, clique_weights, independent_vector
from cliquebound.graph6 import decode
from cliquebound.structure import clusters as clusters_of
from cliquebound.transform import apply_fill
from cliquebound.graphs import (
    common_neighbors,
    complete,
    cycle,
    disjoint_union,
    empty,
    extremal_graph,
    from_edges,
    mask_of,
)
from helpers import complete_bipartite, is_clique, turan

graphs = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        lambda edges: from_edges(n, edges),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
    )
)


class TestMainBound:
    @pytest.mark.parametrize("n, r, expected", [(10, 3, 34), (6, 3, 19), (4, 4, 16), (4, 2, 9)])
    def test_values(self, n, r, expected):
        assert main_bound(n, r) == expected

    def test_matches_extremal_graph(self):
        for n in range(0, 15):
            for r in range(0, 8):
                assert main_bound(n, r) == clique_vector(extremal_graph(n, r)).total

    @pytest.mark.parametrize("n, r", [(-1, 3), (4, -1)])
    def test_negative_arguments_rejected(self, n, r):
        with pytest.raises(ValueError):
            main_bound(n, r)


class TestStrongInequalities:
    @staticmethod
    def per_size(kv, r):
        """(t k_t, (r - t + 1) k_{t-1}) for t = 3..max size, from the counts."""
        k = kv.counts
        return [(t * k[t], (r - t + 1) * k[t - 1]) for t in range(3, len(k))]

    def checked(self, g, r):
        """The record for g under r, after checking its sides and outcome
        against the per-size inequalities."""
        kv = clique_vector(g)
        sides = self.per_size(kv, r)
        rec = strong_inequalities(kv, g.n, r)
        assert (rec.predicate, rec.subject) == ("strong_from_no_tight", f"n={g.n},r={r}")
        assert rec.lhs == sum(left for left, _ in sides)
        assert rec.rhs == sum(right for _, right in sides)
        assert rec.applicable
        assert rec.passed == all(left <= right for left, right in sides)
        return rec

    def test_hold_without_large_tight_cliques(self):
        # C_7 at r=2 has no tight cliques of size >= 2
        assert self.checked(cycle(7), 2).passed

    def test_detects_violation(self):
        # K_5 under the (false) cap r = 3 breaks t k_t <= (r-t+1) k_{t-1}
        assert not self.checked(complete(5), 3).passed

    def test_one_failing_size_fails_the_record(self):
        # the summed sides tie, 25 = 25, but t = 3 fails: 21 > 18
        kv = CliqueVector((1, 8, 9, 7, 1))
        assert self.per_size(kv, 4) == [(21, 18), (4, 7)]
        rec = strong_inequalities(kv, 8, 4)
        assert (rec.lhs, rec.rhs, rec.passed) == (25, 25, False)


class TestSweepChecks:
    def test_extremal_bound(self):
        # 2K_4 under r = 3 has 2 (2^4 - 1) + 1 = 31 cliques
        rec = extremal_bound_check(8, 3, 31)
        assert (rec.predicate, rec.subject, rec.lhs, rec.rhs, rec.passed) == (
            "extremal_bound", "n=8,r=3", 31, 31, True,
        )
        assert not extremal_bound_check(8, 3, 32).passed

    def test_chain_bound_cross_multiplied(self):
        # 1 + 7 (2^3 - 2) / 2 = 22, and 1 + 5 (2^4 - 2) / 3 = 73/3
        rec = chain_bound_check(7, 3, 22)
        assert (rec.predicate, rec.subject, rec.lhs, rec.rhs, rec.passed) == (
            "chain_bound_no_tight", "n=7,r=3", 22, 22, True,
        )
        rec = chain_bound_check(5, 4, 25)
        assert (rec.lhs, rec.rhs, rec.passed) == (75, 73, False)

    @pytest.mark.parametrize("g", [cycle(5), complete(4), turan(7, 3)], ids=["C5", "K4", "T73"])
    def test_double_counting_holds_on_its_own_vector(self, g):
        rec = double_counting_check(g, clique_vector(g))
        assert (rec.predicate, rec.subject, rec.lhs, rec.rhs) == ("double_counting", f"n={g.n}", 0, 0)
        assert rec.applicable and rec.passed

    def test_double_counting_fails_on_another_graphs_vector(self):
        # K_4's vector (1, 4, 6, 4, 1) against C_4, whose vertices have
        # weight 2: 1 * k_1 = 4 holds, and 2 * k_2 = 12 != 4 * 2 = 8
        rec = double_counting_check(cycle(4), clique_vector(complete(4)))
        assert rec.applicable and not rec.passed
        assert (rec.lhs, rec.rhs) == (12, 8)

    def test_cluster_of_size_one_has_its_own_id(self):
        # C_4 under r = 2: each vertex is a cluster with s = 2 and phi(R) = 2
        clusters = clusters_of(cycle(4), 2)
        assert [cl.t for cl in clusters] == [1, 1, 1, 1]
        rec = cluster_loss_check(clusters[0], 0)
        assert (rec.predicate, rec.lhs, rec.rhs) == ("cluster_large_loss_size1", 2, 4 + 2 * 2)
        assert rec.applicable and not rec.passed
        # a gaining fill makes the check inapplicable, under the shared id
        assert cluster_loss_check(clusters[0], 1).predicate == "cluster_large_loss"

    def test_larger_cluster_keeps_the_shared_id(self):
        (cluster,) = clusters_of(complete(2), 1)
        assert cluster.t == 2
        rec = cluster_loss_check(cluster, 0)
        assert (rec.predicate, rec.lhs, rec.rhs) == ("cluster_large_loss", 0, 2 + 0)
        assert rec.applicable and not rec.passed


class TestChainBound:
    def test_unique_equality_point(self):
        assert strong_chain_bound(6, 3) == Fraction(19)
        equalities = []
        for r in range(3, 9):
            for a in range(1, 5):
                for b in range(0, r + 1):
                    n = a * (r + 1) + b
                    rec = chain_vs_main_compare(n, r)
                    if rec.applicable and rec.lhs == rec.rhs:
                        equalities.append((n, r))
        assert equalities == [(6, 3)]

    def test_small_r_not_applicable(self):
        assert not chain_vs_main_compare(4, 1).applicable


class TestKahnZhao:
    def test_k2_equality(self):
        rec = kahn_zhao_check(complete(2), 1, independent_vector(complete(2)))
        assert rec.passed and rec.lhs == rec.rhs == 9

    def test_biclique_equality(self):
        g = complete_bipartite(3, 3)
        rec = kahn_zhao_check(g, 3, independent_vector(g))
        assert rec.passed and rec.lhs == rec.rhs

    def test_irregular_not_applicable(self):
        g = from_edges(3, [(0, 1)])
        assert not kahn_zhao_check(g, 1, independent_vector(g)).applicable

    @settings(max_examples=100, deadline=None)
    @given(graphs)
    def test_never_fails_on_regular_inputs(self, g):
        degs = {g.degree(v) for v in range(g.n)}
        if len(degs) == 1:
            rec = kahn_zhao_check(g, degs.pop(), independent_vector(g))
            assert not rec.applicable or rec.passed


class TestMinIndependent:
    def test_k3_equality(self):
        rec = min_ind_check(complete(3), 2, independent_vector(complete(3)))
        assert rec.passed and rec.lhs == rec.rhs == 64

    def test_two_k2(self):
        # i(2K_2) = 9 = (d+2)^a with d=1, a=2
        g = disjoint_union(complete(2), complete(2))
        rec = min_ind_check(g, 1, independent_vector(g))
        assert rec.passed and rec.lhs == 81 and rec.rhs == 81

    def test_max_degree_variant(self):
        g = cycle(5)
        rec = min_ind_check(g, 2, independent_vector(g))
        assert rec.applicable and rec.passed


class TestPerSizeSignposts:
    def test_regular_per_size(self):
        g = disjoint_union(complete(3), complete(3))
        recs = regular_independent_checks(g, 2, independent_vector(g))
        assert recs and all(rec.passed for rec in recs if rec.applicable)

    def test_regular_total_below_the_bound_fails(self):
        # 2K_3 is 2-regular with a = 2: a total of (d+2)^a - 1 = 15 is one short
        g = disjoint_union(complete(3), complete(3))
        recs = regular_independent_checks(g, 2, CliqueVector((1, 6, 8)))
        (total,) = [rec for rec in recs if rec.subject.endswith(",total")]
        assert (total.lhs, total.rhs, total.passed) == (15, 16, False)

    def test_bounded_clique_per_size(self):
        # T(8, 4) is 6-regular, so the cap 7 is the one with (r+1) | n it meets
        recs = bounded_clique_checks(8, 7, clique_vector(turan(8, 4)))
        assert recs and all(rec.applicable and rec.passed for rec in recs)

    def test_bounded_clique_records(self):
        g = disjoint_union(complete(4), cycle(4))  # max degree 3, and 4 | 8
        kv = clique_vector(g)
        recs = bounded_clique_checks(g.n, 3, kv)
        assert all(rec.predicate == "bounded_clique_upper" and rec.applicable for rec in recs)
        assert [(rec.subject, rec.lhs, rec.rhs) for rec in recs] == [
            ("n=8,r=3,total", kv.total, main_bound(8, 3))
        ] + [(f"n=8,r=3,t={t}", kv[t], 2 * comb(4, t)) for t in range(1, 9)]
        assert [rec.passed for rec in recs] == [rec.lhs <= rec.rhs for rec in recs]

    def test_divisibility_gate(self):
        recs = bounded_clique_checks(5, 3, clique_vector(cycle(5)))
        assert all(not rec.applicable for rec in recs)


class TestZykov:
    def test_cycle5(self):
        rec = zykov_check(cycle(5), clique_vector(cycle(5)))
        assert rec.passed and rec.lhs == 11 and rec.rhs == 12

    def test_turan_equality(self):
        rec = zykov_check(turan(9, 3), clique_vector(turan(9, 3)))
        assert rec.passed and rec.lhs == rec.rhs

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_never_fails(self, g):
        assert zykov_check(g, clique_vector(g)).passed

    def test_closed_form_counts_the_turan_graph(self):
        for n in range(1, 13):
            for omega in range(1, n + 1):
                t = turan(n, omega)
                assert zykov_check(t, clique_vector(t)).rhs == clique_vector(t).total


class TestGalvin:
    def test_values(self):
        assert galvin_bound(6, 2) == 19
        assert galvin_bound(5, 0) == 32

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            galvin_bound(4, 5)


def _discharging(g, r):
    clusters = clusters_of(g, r)
    k = clique_vector(g).total
    gains = {cl.T: apply_fill(g, cl, k).gain for cl in clusters}
    return discharging_check(g.n, r, clusters, gains)


class TestDischarging:
    def test_not_applicable_without_big_tight_clique(self):
        assert not _discharging(cycle(4), 2).applicable

    def test_not_applicable_with_full_clique(self):
        assert not _discharging(complete(4), 3).applicable

    def test_cap_violation_not_applicable(self):
        # no tight clique can be derived over the cap
        assert not discharging_check(5, 3, [], {}).applicable

    def test_reweighting_fails_at_the_ceiling(self):
        """One cluster {0, 1}, S = {2, 3, 4} with R the path 2-3-4, and no
        K_5: applicable once the cluster is said not to gain.  The clique
        {0, 2}, of weight 2 and associated with the cluster, goes over the
        ceiling 2(r - 2)."""
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)])
        (cl,) = clusters_of(g, 4)
        assert (cl.T, cl.S, cl.k2_components) == (0b11, 0b11100, ())
        over, sums_ok = _reweighted(g, 4, cl.T)
        rec = discharging_check(g.n, 4, [cl], {cl.T: 0})
        assert rec.applicable and not rec.passed and sums_ok
        assert (rec.lhs, rec.rhs) in over
        assert (rec.lhs, rec.rhs) == (5, 4)

    def test_reweighting_passes_when_the_tight_clique_pays(self):
        """K_2 on {0, 1} joined to a C_5 on 2..6, under r = 6: R is a C_5
        too, so every associated clique has low weight, and the cluster
        {0, 1}, of weight 5, meets the ceiling 2(r - 2) only after losing 1."""
        edges = [(v, w) for v in (0, 1) for w in range(v + 1, 7)]
        g = from_edges(7, edges + [(w, 2 + (w - 1) % 5) for w in range(2, 7)])
        (cl,) = clusters_of(g, 6)
        assert (cl.T, cl.k2_components) == (0b11, ())
        assert _reweighted(g, 6, cl.T) == (set(), True)
        rec = discharging_check(g.n, 6, [cl], {cl.T: 0})
        assert rec.applicable and rec.passed and (rec.lhs, rec.rhs) == (0, 0)

    def test_reweighting_reports_the_clique_furthest_over_the_ceiling(self):
        """Two clusters of size 2 under r = 6, said not to gain: cliques go
        over the ceiling by 1 and by 2, and the last one in walk order by 1.
        The record shows a clique over by 2, the later one on ties, and
        names it in its subject."""
        g = decode("HEXix{~")
        clusters = clusters_of(g, 6)
        assert sorted(cl.t for cl in clusters) == [1, 2, 2]
        rec = discharging_check(g.n, 6, clusters, {cl.T: 0 for cl in clusters})
        over, _ = _discharged(g, 6, [cl.T for cl in clusters if cl.t >= 2])
        walk = [mask for mask, _, _ in clique_weights(g) if mask in over]
        excess = {mask: new - ceiling for mask, (new, ceiling) in over.items()}
        assert set(excess.values()) == {1, 2} and excess[walk[-1]] == 1
        furthest = [mask for mask in walk if excess[mask] == 2][-1]
        assert rec.applicable and not rec.passed
        assert (rec.lhs, rec.rhs) == over[furthest]
        assert rec.subject == f"n=9,r=6,clique={furthest:#x}"


def _discharged(g, r, clusters):
    """The discharging of the clusters with masks ``clusters`` recomputed
    from every vertex subset: each clique over its ceiling, as mask ->
    (doubled new weight, doubled ceiling), and whether no per-size doubled
    weight sum drops."""
    old_sums, new_sums, over = {}, {}, {}
    for size in range(2, g.n + 1):
        for c in combinations(range(g.n), size):
            mask = mask_of(c)
            if not is_clique(g, mask):
                continue
            weight = common_neighbors(g, mask).bit_count()
            shared = [(mask & cluster).bit_count() for cluster in clusters]
            new = 2 * weight - 2 * shared.count(size) + shared.count(size - 1)
            old_sums[size] = old_sums.get(size, 0) + 2 * weight
            new_sums[size] = new_sums.get(size, 0) + new
            if new > 2 * (r - size):
                over[mask] = (new, 2 * (r - size))
    return over, all(old_sums[t] <= new_sums[t] for t in old_sums)


def _reweighted(g, r, cluster):
    """The discharging of one cluster: the (doubled new weight, doubled
    ceiling) pairs over the ceiling, and whether no per-size doubled weight
    sum drops."""
    over, sums_ok = _discharged(g, r, [cluster])
    return set(over.values()), sums_ok
