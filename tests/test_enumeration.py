import importlib
from collections import Counter, defaultdict
from itertools import combinations

import pytest

from cliquebound import enumeration, graph6
from cliquebound.canon import canonical_form
from cliquebound.counting import clique_vector
from cliquebound.enumeration import (
    GENERATION_MAX_VERTICES,
    consistency_sweep,
    expected_extremal_forms,
    generate,
    generate_regular,
    verify_main,
)
from cliquebound.errors import CapacityError
from cliquebound.graphs import complete, cycle, disjoint_union, empty, from_edges, path

# the package exports the function ``fixed_loss`` under the module's name
fixed_loss_module = importlib.import_module("cliquebound.fixed_loss")


class TestGenerate:
    def test_unrestricted_class_counts(self):
        for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]:
            assert sum(1 for _ in generate(n, n - 1)) == expected

    def test_degree_two_on_four_vertices(self):
        assert sum(1 for _ in generate(4, 2)) == 7

    def test_emitted_graphs_respect_cap(self):
        assert all(g.max_degree() <= 2 for g in generate(6, 2))

    def test_no_two_emitted_graphs_isomorphic(self):
        forms = [canonical_form(g) for g in generate(6, 3)]
        assert len(forms) == len(set(forms))

    def test_deterministic_order(self):
        first = [graph6.encode(g) for g in generate(5, 3)]
        second = [graph6.encode(g) for g in generate(5, 3)]
        assert first == second == sorted(first)

    def test_covers_every_labeled_graph(self):
        """Every labeled graph with the cap maps onto exactly one emitted class."""
        for n in range(1, 6):
            for r in range(1, n):
                emitted = {canonical_form(g) for g in generate(n, r)}
                pairs = list(combinations(range(n), 2))
                seen = set()
                for code in range(1 << len(pairs)):
                    g = from_edges(n, [p for i, p in enumerate(pairs) if (code >> i) & 1])
                    if g.max_degree() <= r:
                        seen.add(canonical_form(g))
                assert seen == emitted

    def test_cap(self):
        with pytest.raises(CapacityError):
            list(generate(GENERATION_MAX_VERTICES + 1, 2))

    def test_worker_path_matches_serial_on_cold_cache(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_class_cache", {})
        serial = [graph6.encode(g) for g in generate(6, 5)]
        monkeypatch.setattr(enumeration, "_class_cache", {})
        pooled = [graph6.encode(g) for g in generate(6, 5, workers=2)]
        assert pooled == serial

    @pytest.mark.parametrize(
        "n, r, classes, labelings", [(7, 6, 1044, 3651), (8, 4, 2590, 11712)]
    )
    def test_deletion_test_labels_few_graphs(self, cold_labelings, n, r, classes, labelings):
        """Labeling every child took 11,290 canonical labelings for (7, 6)
        and 33,383 for (8, 4)."""
        assert len(enumeration._classes(n, r)) == classes
        assert len(cold_labelings) == labelings

    def test_each_level_is_built_once(self, cold_labelings):
        """The sweep's set-up asks for every n in turn; each level is built
        from the one below, so this costs what a cold (7, 6) costs (building
        every level from K1 took 4,563 labelings)."""
        for n in range(1, 8):
            list(generate(n, min(6, max(n - 1, 1))))
        assert len(cold_labelings) == 3651

    def test_narrower_levels_are_served_from_the_table(self, cold_labelings):
        enumeration._classes(7, 6)
        built = len(cold_labelings)
        for m in range(1, 7):
            enumeration._classes(m, m - 1)
        assert len(cold_labelings) == built

    def test_capped_counts_match_networkx_atlas(self, monkeypatch):
        """Every (n, r) with n <= 7 and r < n, generated from scratch, has as
        many classes as the atlas has graphs on n vertices with max degree <= r."""
        nx = pytest.importorskip("networkx")
        atlas = Counter()
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            for r in range(max((d for _, d in h.degree()), default=0), n):
                atlas[n, r] += 1
        monkeypatch.setattr(enumeration, "_class_cache", {})
        for n in range(1, 8):
            for r in range(n):
                enumeration._class_cache.clear()
                assert sum(1 for _ in generate(n, r)) == atlas[n, r], (n, r)

    @pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
    def test_eight_vertex_classes_are_pairwise_non_isomorphic(self):
        """No two of the 12,346 classes on 8 vertices are isomorphic, checked
        by networkx alone: bucket by Weisfeiler-Lehman hash, then test every
        pair within a bucket."""
        nx = pytest.importorskip("networkx")
        buckets = defaultdict(list)
        for g in generate(8, 7):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            buckets[nx.weisfeiler_lehman_graph_hash(h)].append(h)
        assert sum(len(bucket) for bucket in buckets.values()) == 12346
        for bucket in buckets.values():
            for a, b in combinations(bucket, 2):
                assert not nx.is_isomorphic(a, b)


class TestGenerateRegular:
    def test_two_regular_on_six(self):
        got = {canonical_form(g) for g in generate_regular(6, 2)}
        expected = {
            canonical_form(cycle(6)),
            canonical_form(disjoint_union(cycle(3), cycle(3))),
        }
        assert got == expected

    def test_cubic_on_four_is_k4(self):
        assert [canonical_form(g) for g in generate_regular(4, 3)] == [canonical_form(complete(4))]

    def test_odd_product_is_empty(self):
        assert list(generate_regular(5, 1)) == []

    def test_zero_regular(self):
        assert list(generate_regular(3, 0)) == [empty(3)]


class TestVerifyMain:
    def test_6_3(self):
        rep = verify_main(6, 3)
        assert rep.max_k == rep.bound == 19
        assert rep.extremal == (canonical_form(disjoint_union(complete(4), complete(2))),)
        assert rep.equality_matches_characterization

    def test_4_2_has_both_equality_graphs(self):
        rep = verify_main(4, 2)
        assert rep.max_k == 9
        assert set(rep.extremal) == {
            canonical_form(disjoint_union(complete(3), empty(1))),
            canonical_form(cycle(4)),
        }
        assert rep.equality_matches_characterization

    def test_5_2(self):
        rep = verify_main(5, 2)
        assert rep.max_k == 11
        assert set(rep.extremal) == expected_extremal_forms(5, 2)
        assert canonical_form(cycle(5)) in rep.extremal

    def test_report_invariants(self):
        rep = verify_main(7, 3)
        assert rep.bound_holds
        assert rep.extremal
        assert rep.graph_count == 150


class TestConsistencySweep:
    def test_core_predicates_clean_small(self):
        rep = consistency_sweep(6, 5)
        assert rep.tallies["outside_degree"][2] == 0
        assert rep.tallies["fill_gain_lower_bound"][2] == 0
        assert rep.tallies["extremal_bound"][2] == 0
        assert rep.tallies["double_counting"][2] == 0

    def test_literal_threshold_witnesses_include_cycle4(self):
        rep = consistency_sweep(4, 3)
        witnesses = rep.failures_for("fill_threshold_literal")
        c4 = canonical_form(cycle(4))
        assert any(w["graph6"] == c4 for w in witnesses)

    def test_counts_each_graph_once(self, clique_vector_calls):
        consistency_sweep(5, 4)
        # the predicates and rewrites are handed k(G): no graph object is
        # counted twice, and every class is counted
        assert len({id(g) for g in clique_vector_calls}) == len(clique_vector_calls)
        counted = {g.adj for g in clique_vector_calls}
        classes = [g for n in range(1, 6) for g in generate(n, min(4, max(n - 1, 1)))]
        assert len(classes) == 52
        assert all(g.adj in counted for g in classes)
        # 52 classes, 52 Turan graphs, and one count per fill and per K2 move
        assert len(clique_vector_calls) == 297

    def test_fixed_loss_computed_once_per_graph(self, monkeypatch):
        calls = []
        original = fixed_loss_module.fixed_loss

        def counted(g):
            calls.append(g)
            return original(g)

        for module in (fixed_loss_module, enumeration):
            monkeypatch.setattr(module, "fixed_loss", counted)
        p3 = path(3)  # both fixed-loss checks apply to P3
        records = enumeration._graph_records(p3, clique_vector(p3))
        assert {rec.predicate for rec in records if rec.applicable} >= {
            "fixed_loss_max",
            "fixed_loss_degree_one",
        }
        assert calls == [p3]

    def test_every_failure_has_a_witness(self):
        rep = consistency_sweep(5, 4)
        for failure in rep.failures:
            g = graph6.decode(failure["graph6"])  # must parse
            assert g.n <= 5

    def test_byte_identical_across_runs_and_workers(self):
        one = consistency_sweep(5, 4, workers=1).to_json()
        again = consistency_sweep(5, 4, workers=1).to_json()
        parallel = consistency_sweep(5, 4, workers=2).to_json()
        assert one == again == parallel

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        full = consistency_sweep(5, 4)
        partial_then_resumed = consistency_sweep(4, 4, checkpoint=path)
        resumed = consistency_sweep(5, 4, checkpoint=path)
        assert resumed.to_json() == full.to_json()
        # the checkpoint itself is line-oriented with a documented header
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 6  # header + one unit per n

    def test_torn_checkpoint_line_is_redone(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        full = consistency_sweep(4, 3).to_json()
        consistency_sweep(4, 3, checkpoint=str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # a write cut short in the n = 4 line
        first = consistency_sweep(4, 3, checkpoint=str(path)).to_json()
        second = consistency_sweep(4, 3, checkpoint=str(path)).to_json()
        assert first == second == full
        assert path.read_bytes() == data

    def test_mismatched_checkpoint_ignored(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        consistency_sweep(4, 3, checkpoint=path)
        rep = consistency_sweep(4, 4, checkpoint=path)
        assert rep.to_json() == consistency_sweep(4, 4).to_json()

    def test_cap(self):
        with pytest.raises(CapacityError):
            consistency_sweep(10, 3)
