import gc
import hashlib
import importlib
import sys
import tracemalloc
from collections import Counter, defaultdict
from itertools import combinations

import pytest

from cliquebound import enumeration, graph6, structure
from cliquebound.bounds import (
    associated_low_weight_check,
    bounded_clique_checks,
    chain_bound_check,
    cluster_loss_check,
    discharging_check,
    extremal_bound_check,
    strong_inequalities,
)
from cliquebound.canon import (
    _join_orbits,
    _root,
    canonical_form,
    labeling_from_root,
    root_partition,
)
from cliquebound.counting import clique_count, clique_vector
from cliquebound.enumeration import (
    GENERATION_MAX_VERTICES,
    class_keys,
    consistency_sweep,
    expected_extremal_forms,
    generate,
    generate_regular,
    verify_main,
)
from cliquebound.errors import CapacityError, InternalConsistencyError
from cliquebound.fixed_loss import fixed_loss_on_rows
from cliquebound.graphs import (
    Graph,
    bit_list,
    complete,
    cycle,
    disjoint_union,
    empty,
    from_edges,
)
from cliquebound.transform import apply_fill, fill_checks, k2_move_check
from helpers import edges, path

# the package exports the function ``fixed_loss`` under the module's name
fixed_loss_module = importlib.import_module("cliquebound.fixed_loss")


def _networkx_orbits(nx, g):
    """Vertex -> its orbit under Aut(g), from every networkx self-isomorphism."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    orbits = {v: set() for v in range(g.n)}
    for iso in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter():
        for v in range(g.n):
            orbits[v].add(iso[v])
    return orbits


def _child_form(rows):
    """``_canonical_child_form`` of ``rows``, given the neighbour lists of
    its parent, the graph without its last vertex."""
    u = len(rows) - 1
    return enumeration._canonical_child_form(rows, [bit_list(row & ~(1 << u)) for row in rows[:u]])


def _candidates(rows):
    """The vertices of largest invariant (degree, sorted neighbour degrees)."""
    deg = [row.bit_count() for row in rows]
    top = max(deg)
    invariant = {
        v: sorted(map(deg.__getitem__, bit_list(row))) for v, row in enumerate(rows) if deg[v] == top
    }
    best = max(invariant.values())
    return {v for v, neighbours in invariant.items() if neighbours == best}


def _labeled_child_form(rows):
    """The deletion test without the root-cell rule: the candidates of
    largest (degree, sorted neighbour degrees), one full canonical
    labeling, and the orbit test on the first candidate of the canonical
    order; a kept child's key, and its generators relabeled through the
    order."""
    n = len(rows)
    u = n - 1
    candidates = _candidates(rows)
    if u not in candidates:
        return None
    nbrs = [bit_list(row) for row in rows]
    key, order, gens = labeling_from_root(rows, nbrs, *root_partition(nbrs))
    first = next(w for w in order if w in candidates)
    orbit = list(range(n))
    for gamma in gens:
        _join_orbits(orbit, gamma)
    if _root(orbit, first) != _root(orbit, u):
        return None
    position = {v: i for i, v in enumerate(order)}
    return key, bytes(position[gamma[v]] for gamma in gens for v in order)


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
        "n, r, classes, labelings", [(7, 6, 1044, 1253), (8, 4, 2590, 3294)]
    )
    def test_deletion_test_labels_few_graphs(self, cold_labelings, n, r, classes, labelings):
        """Labeling every child took 11,290 canonical labelings for (7, 6)
        and 33,383 for (8, 4); one more per parent, for its generators, made
        1,507 and 4,387, and labeling each child that passes the degree
        test made 1,299 and 3,703.  Only the children whose new vertex is
        also in the least root cell of the candidates are labeled, and each
        parent's generators come from the labeling that made it."""
        assert len(class_keys(n, r)) == classes
        assert len(cold_labelings) == labelings

    def test_each_level_is_built_once(self, cold_labelings):
        """The sweep's set-up asks for every n in turn; each level is built
        from the one below, so this costs what a cold (7, 6) costs (building
        every level from K1 took 4,563 labelings)."""
        for n in range(1, 8):
            list(generate(n, min(6, max(n - 1, 1))))
        assert len(cold_labelings) == 1253

    def test_no_parent_is_searched_or_decoded(self, monkeypatch):
        """Every canonical labeling is of a child that passed the degree
        and root-cell tests, and no level is decoded from graph6."""
        callers = Counter()
        original = enumeration.labeling_from_root

        def counted(rows, nbrs, colors, count):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(rows, nbrs, colors, count)

        def no_decode(text):
            raise AssertionError(f"generation decoded {text}")

        monkeypatch.setattr(enumeration, "_class_cache", {})
        monkeypatch.setattr(enumeration, "labeling_from_root", counted)
        monkeypatch.setattr(graph6, "decode", no_decode)
        class_keys(8, 4)
        assert callers == {"_canonical_child_form": 3294}

    def test_missing_parent_generators_repeat_a_class(self, monkeypatch):
        """Without its automorphisms a parent is extended by isomorphic
        neighbourhoods, each child passes the orbit test alike, and the
        level check reports the repeated class instead of dropping it."""
        monkeypatch.setattr(enumeration, "_class_cache", {})
        parents = enumeration._level(6, 5)
        assert any(parents.generators)
        enumeration._class_cache[6, 5] = enumeration.Level(
            parents.n, parents.keys, [b""] * len(parents.keys)
        )
        with pytest.raises(InternalConsistencyError, match="generated twice"):
            class_keys(7, 6)

    def test_orbit_test_keeps_one_vertex_orbit_per_class(self, atlas_classes):
        """For every class C with 2 <= n <= 7, moving each vertex u in turn
        to the last position: the u whose child passes form exactly one
        orbit of Aut(C), as networkx finds it, and that orbit has the
        largest invariant (degree, sorted neighbour degrees).  A missed
        child generator would lose the class here."""
        nx = pytest.importorskip("networkx")
        for g in atlas_classes:
            n = g.n
            orbits = _networkx_orbits(nx, g)
            passed = set()
            for u in range(n):
                last = [v - (v > u) for v in range(n)]  # u last, the rest in order
                last[u] = n - 1
                kept = _child_form(g.relabel(last).adj)
                if kept is not None:
                    key, _ = kept
                    assert graph6.pack(n, key) == canonical_form(g)
                    passed.add(u)
            assert passed and passed == orbits[min(passed)], graph6.encode(g)
            invariant = [
                (g.degree(v), sorted(g.degree(x) for x in bit_list(g.adj[v]))) for v in range(n)
            ]
            assert invariant[min(passed)] == max(invariant)

    def test_degree_prefilter_is_exact(self, monkeypatch):
        """Given no generators, ``_child_canons`` tries every neighbourhood
        that the degree test lets through.  For every class on
        n <= 6 vertices and every cap it meets, each neighbourhood of
        vertices below the cap that it skips gives a child that the
        deletion test rejects."""
        tried = []
        original = enumeration._canonical_child_form

        def recorded(rows, parent_nbrs):
            tried.append(rows[-1])
            return original(rows, parent_nbrs)

        monkeypatch.setattr(enumeration, "_canonical_child_form", recorded)
        skipped = 0
        for n in range(1, 7):
            for g in generate(n, n - 1):
                nbrs = [bit_list(row) for row in g.adj]
                for r in range(g.max_degree(), n + 1):
                    tried.clear()
                    enumeration._child_canons(g.adj, b"", r)
                    eligible = [v for v in range(n) if g.degree(v) < r]
                    for size in range(min(r, len(eligible)) + 1):
                        for xs in combinations(eligible, size):
                            sub = sum(1 << v for v in xs)
                            if sub in tried:
                                continue
                            skipped += 1
                            child = tuple(
                                row | (1 << n) if v in xs else row for v, row in enumerate(g.adj)
                            ) + (sub,)
                            assert original(child, nbrs) is None, (graph6.encode(g), r, xs)
        assert skipped > 0

    def test_root_cell_rejection_is_exact(self, monkeypatch):
        """For every class on n <= 7 vertices and every neighbourhood of a
        new vertex, the child's ``_canonical_child_form`` equals the full
        labeling-and-orbit test's result.  A child depends only on its
        neighbourhood, and every neighbourhood a cap r >= the class's
        maximum degree allows is allowed at r = n, so this covers every cap
        the class meets.  Among the children whose new vertex is a
        candidate, some are rejected with no search: the full test rejects
        each of those too."""
        labeled = []
        original = enumeration.labeling_from_root

        def counted(rows, nbrs, colors, count):
            labeled.append(rows)
            return original(rows, nbrs, colors, count)

        monkeypatch.setattr(enumeration, "labeling_from_root", counted)
        unsearched = 0
        for n in range(1, 8):
            keys = set()
            for g in generate(n, n - 1):
                nbrs = [bit_list(row) for row in g.adj]
                for sub in range(1 << n):
                    child = tuple(
                        row | (1 << n) if (sub >> v) & 1 else row for v, row in enumerate(g.adj)
                    ) + (sub,)
                    labeled.clear()
                    got = enumeration._canonical_child_form(child, nbrs)
                    assert got == _labeled_child_form(child), (graph6.encode(g), sub)
                    if got is not None:
                        keys.add(got[0])
                    elif not labeled and n in _candidates(child):
                        unsearched += 1
            # every class on n + 1 vertices is kept from some child
            assert len(keys) == [2, 4, 11, 34, 156, 1044, 12346][n - 1]
        assert unsearched > 0

    def test_carried_generators_generate_the_automorphism_group(self):
        """Each class with n <= 7 carries maps that are automorphisms of its
        representative, and the orbits they generate are the orbits of its
        whole automorphism group, as networkx finds them."""
        nx = pytest.importorskip("networkx")
        for n in range(1, 8):
            level = enumeration._level(n, n - 1)
            assert len(level.keys) == len(level.generators)
            for key, packed in zip(level.keys, level.generators):
                g = Graph(n, graph6.unpack(n, key))
                orbit = list(range(n))  # union-find over the carried maps
                for i in range(0, len(packed), n):
                    gamma = packed[i:i + n]
                    assert sorted(gamma) == list(range(n))
                    assert g.relabel(gamma) == g, graph6.encode(g)
                    _join_orbits(orbit, gamma)
                carried = {v: {w for w in range(n) if _root(orbit, w) == _root(orbit, v)}
                           for v in range(n)}
                assert carried == _networkx_orbits(nx, g), graph6.encode(g)

    def test_representatives_are_canonically_labeled(self):
        """A representative's rows are carried from its child labeling, not
        decoded from its form: they must still encode to the form."""
        for g in generate(8, 4):
            assert graph6.encode(g) == canonical_form(g)

    def test_class_stream_digest(self):
        """sha256 of one line "n r graph6" per class, for n = 1..8 and every
        cap r < n from the widest down (r = 0 alone at n = 1): 37,268
        lines.  The value is the package's own output before levels were
        carried as rows, so any change to the class stream shows here."""
        digest = hashlib.sha256()
        lines = 0
        for n in range(1, 9):
            for r in range(max(n - 1, 0), -1, -1):
                for g in generate(n, r):
                    digest.update(f"{n} {r} {graph6.encode(g)}\n".encode())
                    lines += 1
        assert lines == 37268
        assert digest.hexdigest() == (
            "ca80e66beeb764b5a487d80402f365c4b2b4289dd31ca4cad344ef2acd3d3062"
        )

    def test_labeling_output_digest(self, monkeypatch):
        """sha256 of one repr((rows, form, order, generators)) line per
        canonical labeling that a cold (8, 4) build makes: 3,294 lines.
        They are the 3,703 lines of the package's output before the
        root-cell rule (pinned as a1050e31...), restricted to the children
        still labeled, so any change to a form, an order or a generator
        list shows here."""
        digest = hashlib.sha256()
        lines = []
        original = enumeration.labeling_from_root

        def hashed(rows, nbrs, colors, count):
            out = original(rows, nbrs, colors, count)
            key, order, generators = out
            digest.update(f"{(rows, graph6.pack(len(rows), key), order, generators)!r}\n".encode())
            lines.append(len(rows))
            return out

        monkeypatch.setattr(enumeration, "_class_cache", {})
        monkeypatch.setattr(enumeration, "labeling_from_root", hashed)
        class_keys(8, 4)
        assert len(lines) == 3294
        assert digest.hexdigest() == (
            "eb20b74b2c0ca156578bb8d325a63ff8674adacce7dca3dadaddf858d5248757"
        )

    def test_cached_level_keys_strictly_increase(self):
        """Every level in the class table holds its keys in increasing
        order with no repeat, one packed generator list per key: ``generate``
        reads them in canonical-form order, and a repeated class could only
        sit next to its twin, where the level check looks for it."""
        for n in range(1, 9):
            enumeration._level(n, n - 1)
            enumeration._level(n, 4)
        for (n, r), level in enumeration._class_cache.items():
            assert level.n == n
            assert len(level.keys) == len(level.generators)
            assert all(a < b for a, b in zip(level.keys, level.keys[1:])), (n, r)

    def test_level_retains_under_128_bytes_per_class(self, monkeypatch):
        """A cold (8, 4) level, built on the cached (7, 4) level, retains
        under 128 bytes per class (tracemalloc): a key and a packed
        generator list each.  A level of ``Graph`` objects retained about
        245."""
        monkeypatch.setattr(enumeration, "_class_cache", {})
        enumeration._level(7, 4)
        gc.collect()
        tracemalloc.start()
        try:
            level = enumeration._level(8, 4)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(level.keys) == 2590
        assert retained < 128 * len(level.keys), retained / len(level.keys)

    def test_generation_leaves_no_cyclic_garbage(self, monkeypatch):
        """A cold (7, 6) build with the cycle collector off leaves it fewer
        than 100 objects to free: 29,438 while each labeling's search
        closure held itself through its own cell."""
        monkeypatch.setattr(enumeration, "_class_cache", {})
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            class_keys(7, 6)
            assert gc.collect() < 100
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("n, r", [(8, 4), (8, 7)])
    def test_kept_classes_pass_graph_validation(self, monkeypatch, n, r):
        """Kept classes are built without ``Graph`` validation: each must
        still pass it, and be equal to the validated graph on its rows."""
        monkeypatch.setattr(enumeration, "_class_cache", {})
        for g in generate(n, r):
            assert Graph(g.n, g.adj) == g

    def test_narrower_levels_are_served_from_the_table(self, cold_labelings):
        class_keys(7, 6)
        built = len(cold_labelings)
        for m in range(1, 7):
            class_keys(m, m - 1)
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
    @pytest.mark.parametrize(
        "n, r, classes", [(8, 7, 12346), pytest.param(9, 8, 274668, marks=pytest.mark.slow)]
    )
    def test_classes_are_pairwise_non_isomorphic(self, n, r, classes):
        """No two of the classes on n vertices are isomorphic, checked by
        networkx alone: bucket by Weisfeiler-Lehman hash, then test every
        pair within a bucket.  At n = 9 this reads the level that criterion
        2 builds, and keeps only the graphs of this package in the buckets."""
        nx = pytest.importorskip("networkx")

        def networkx_graph(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(edges(g))
            return h

        buckets = defaultdict(list)
        for g in generate(n, r):
            buckets[nx.weisfeiler_lehman_graph_hash(networkx_graph(g))].append(g)
        assert sum(len(bucket) for bucket in buckets.values()) == classes
        for bucket in buckets.values():
            for a, b in combinations(map(networkx_graph, bucket), 2):
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

    @pytest.mark.parametrize("n, d", [(5, -1), (4, -2), (-1, 1)])
    def test_negative_argument_raises_whatever_the_parity(self, n, d):
        with pytest.raises(ValueError):
            generate_regular(n, d)


class TestVerifyMain:
    def test_6_3(self):
        (rep,) = verify_main(6, [3])
        assert rep.max_k == rep.bound == 19
        assert rep.extremal == (canonical_form(disjoint_union(complete(4), complete(2))),)
        assert rep.equality_matches_characterization

    def test_4_2_has_both_equality_graphs(self):
        (rep,) = verify_main(4, [2])
        assert rep.max_k == 9
        assert set(rep.extremal) == {
            canonical_form(disjoint_union(complete(3), empty(1))),
            canonical_form(cycle(4)),
        }
        assert rep.equality_matches_characterization

    def test_5_2(self):
        (rep,) = verify_main(5, [2])
        assert rep.max_k == 11
        assert set(rep.extremal) == expected_extremal_forms(5, 2)
        assert canonical_form(cycle(5)) in rep.extremal

    def test_report_invariants(self):
        (rep,) = verify_main(7, [3])
        assert rep.bound_holds
        assert rep.extremal
        assert rep.graph_count == 150

    def test_one_pass_matches_one_call_per_cap(self, monkeypatch):
        """Ascending caps on a cold table build every level rather than
        filter it from a wider one, so the one-pass reports are checked
        against counts over independently built class lists."""
        monkeypatch.setattr(enumeration, "_class_cache", {})
        for n in range(1, 8):
            per_cap = [verify_main(n, [r])[0] for r in range(n)]
            assert verify_main(n, range(n)) == per_cap
            assert [rep.r for rep in per_cap] == list(range(n))

    def test_caps_are_reported_in_the_order_asked(self):
        reps = verify_main(6, [3, 1, 5, 3])
        assert [rep.r for rep in reps] == [3, 1, 5, 3]
        assert reps[0] == reps[3] == verify_main(6, [3])[0]
        assert len({rep.runtime_seconds for rep in reps}) == 1

    def test_maximizers_encoded_once(self, monkeypatch):
        calls = []
        original = graph6.encode

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graph6, "encode", counted)
        (rep,) = verify_main(7, [3])
        assert len(calls) == len(rep.extremal) == 1


def _per_cap_records(g, r, kv):
    """Every record the sweep tallies for g under cap r, through the public
    checks alone: each tight clique is found on its own and gets its own
    fill gain, measured by counting the filled graph in full, and nothing
    is reused from another pair.  So a tight clique that the sweep skipped,
    a fill gain it shared wrongly, or a record it reused for the wrong pair
    would show.
    Every record comes from a predicate; none is built here."""
    n, total = g.n, kv.total
    records = [extremal_bound_check(n, r, total)]
    records += [rec for rec in bounded_clique_checks(n, r, kv) if rec.applicable]
    tights = structure.tight_structures(g, r)
    gains = {ts.T: apply_fill(g, ts, total).gain for ts in tights}
    for ts in tights:
        records.append(structure.outside_degree_check(g, ts))
        records += fill_checks(ts, total, gains[ts.T])
        if ts.t >= 2 and ts.k2_components:
            records.append(k2_move_check(g.adj, ts, total))
    clusters = structure.clusters(g, r)
    for cl in clusters:
        records.append(cluster_loss_check(cl, gains[cl.T]))
        records += [associated_low_weight_check(g, cl, c, gains[cl.T]) for c in range(2, cl.t + 1)]
    records.append(discharging_check(n, r, clusters, {cl.T: gains[cl.T] for cl in clusters}))
    if r >= 2 and not any(ts.t >= 2 for ts in tights):
        records.append(strong_inequalities(kv, n, r))
        records.append(chain_bound_check(n, r, total))
    return records


def _failure_order(failure):
    return tuple(failure[key] for key in ("predicate", "graph6", "subject", "lhs", "rhs"))


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
        # fills, K2 moves and Zykov's right side are not counted in full:
        # one count per class
        assert len(clique_vector_calls) == 52

    def test_tightness_decided_by_the_clique_scan(self, derive_calls):
        # the sweep reads every tight clique off the classes at once and
        # never looks one up
        consistency_sweep(5, 4)
        assert derive_calls == []
        structure.derive(cycle(4), 2, 0b0001)  # outside input is looked up
        assert len(derive_calls) == 1

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

    def test_fixed_loss_counted_once_per_graph_and_once_per_class(self, monkeypatch):
        """phi(R) is the same for every T of a class (K, X), and it reads
        only the rows of the core X - K restricted to the core, so the sweep
        computes it once per distinct core of each per-n chunk: fewer times
        than there are classes, and fewer than there are tight cliques."""
        calls = []
        original = fixed_loss_module.fixed_loss_on_rows

        def counted(rows, mask):
            calls.append(mask)
            return original(rows, mask)

        for name, module in list(sys.modules.items()):
            if name.startswith("cliquebound") and getattr(
                module, "fixed_loss_on_rows", None
            ) is original:
                monkeypatch.setattr(module, "fixed_loss_on_rows", counted)
        consistency_sweep(5, 4)
        graphs = [g for n in range(1, 6) for g in generate(n, min(4, max(n - 1, 1)))]
        keys = set()  # (n, core mask, the members' rows restricted to it)
        classes = tights = 0
        for g in graphs:
            for r in range(max(1, g.max_degree()), min(4, g.n - 1) + 1):
                for _, _, core in structure.tight_classes(g, r):
                    mask = core.mask
                    keys.add((g.n, mask, tuple(g.adj[v] & mask for v in bit_list(mask))))
                    classes += 1
                tights += len(structure.tight_structures(g, r))
        assert len(calls) == len(graphs) + len(keys)
        assert len(keys) < classes < tights  # some cores repeat; some class holds two T

    def test_shared_class_cores_are_exact(self, monkeypatch):
        """One chunk per n <= 7 of every class on n vertices, each under its
        maximum degree, hands some classes a core first built for another
        class.  The core each class is handed gives the clique count and
        the fixed loss of the class's own core, counted on its own graph's
        rows."""
        handed = []
        original = enumeration.class_structure

        def recorded(adj, k, x, t, core):
            if t == k:  # once per class, for its cluster
                handed.append((adj, x & ~k, core))
            return original(adj, k, x, t, core)

        monkeypatch.setattr(enumeration, "class_structure", recorded)
        for n in range(1, 8):
            enumeration._sweep_chunk((class_keys(n, n - 1), (n, 6)))
        for adj, mask, core in handed:
            assert core.mask == mask
            assert core.cliques == clique_count(adj, mask)
            assert core.phi == fixed_loss_on_rows(adj, mask).phi
        borrowed = sum(core.adj is not adj for adj, _, core in handed)
        distinct = len({id(core) for _, _, core in handed})
        assert (len(handed), distinct, borrowed) == (2082, 689, 1364)

    def test_every_failure_has_a_witness(self):
        rep = consistency_sweep(5, 4)
        for failure in rep.failures:
            g = graph6.decode(failure["graph6"])  # must parse
            assert g.n <= 5

    def test_caps_above_max_degree_admit_no_tight_clique(self):
        """A tight clique's members have degree r, so under a cap above the
        maximum degree there is none, and the sweep's reduced pass tallies
        exactly what every per-cap predicate, evaluated directly, gives."""
        pairs = 0
        for n in range(1, 8):
            for g in generate(n, min(6, max(n - 1, 1))):
                kv = clique_vector(g)
                top = g.max_degree()
                for r in range(top + 1, 7):
                    assert structure.tight_classes(g, r) == []
                    assert structure.clusters(g, r) == []
                    assert not discharging_check(g.n, r, [], {}).applicable
                    swept = ({}, [])
                    enumeration._tally(*swept, enumeration._vector_records(g.n, r, kv, True))
                    direct = ({}, [])
                    enumeration._tally(*direct, _per_cap_records(g, r, kv))
                    assert swept == direct
                    pairs += 1
        assert pairs == 2132  # 1,843 of them have r <= n - 1 and are swept

    def test_memo_changes_nothing(self, monkeypatch):
        """One chunk per n <= 7 of every class on n vertices tallies exactly
        what each (graph, cap) pair gives when every check is evaluated on
        its own, and evaluates the clique-vector checks once per distinct
        key (r, k-vector, closing records cluster-free): fewer times than
        there are pairs.  The closing records are cluster-free above the
        maximum degree, and at it when no cluster has two or more
        vertices; the strong inequalities are evaluated once per such key
        with r >= 2."""
        calls = []
        strong = []
        originals = enumeration.extremal_bound_check, enumeration.strong_inequalities

        def counted(n, r, k_total):
            calls.append((n, r, k_total))
            return originals[0](n, r, k_total)

        def counted_strong(kv, n, r):
            strong.append((kv.counts, r))
            return originals[1](kv, n, r)

        monkeypatch.setattr(enumeration, "extremal_bound_check", counted)
        monkeypatch.setattr(enumeration, "strong_inequalities", counted_strong)
        tallies, failures = {}, []
        for n in range(1, 8):
            part = enumeration._sweep_chunk((class_keys(n, min(6, max(n - 1, 1))), (n, 6)))
            enumeration._merge((tallies, failures), part)
        graphs = [g for n in range(1, 8) for g in generate(n, min(6, max(n - 1, 1)))]
        direct = ({}, [])
        keys = set()
        pairs = 0
        for g in graphs:
            kv = clique_vector(g)
            top = g.max_degree()
            first = len(direct[1])
            records = enumeration._graph_records(g, kv)
            for r in range(max(1, top), min(6, g.n - 1) + 1):
                records += _per_cap_records(g, r, kv)
                cluster_free = r > top or not any(cl.t >= 2 for cl in structure.clusters(g, r))
                keys.add((r, kv.counts, cluster_free))
                pairs += 1
            enumeration._tally(*direct, records)
            for failure in direct[1][first:]:
                failure["graph6"] = graph6.encode(g)
        assert tallies == direct[0]
        assert sorted(failures, key=_failure_order) == sorted(direct[1], key=_failure_order)
        assert len(failures) == 954
        assert pairs == 3088
        assert len(calls) == len(keys) == 675 < pairs
        assert len(strong) == len({key for key in keys if key[0] >= 2 and key[2]}) == 495

    def test_witnesses_encoded_only_for_failing_graphs(self, monkeypatch):
        calls = []

        class CountingGraph6:
            unpack = staticmethod(graph6.unpack)

            @staticmethod
            def encode(g):
                calls.append(g)
                return graph6.encode(g)

        monkeypatch.setattr(enumeration, "graph6", CountingGraph6)
        rep = consistency_sweep(7, 6)
        witnesses = {f["graph6"] for f in rep.failures}
        assert len(calls) == len(witnesses) == 65
        for g6 in witnesses:
            g = graph6.decode(g6)
            level = generate(g.n, min(6, max(g.n - 1, 1)))
            assert g.adj in {c.adj for c in level}
        for failure in rep.failures:
            g = graph6.decode(failure["graph6"])
            kv = clique_vector(g)
            top = g.max_degree()
            records = enumeration._graph_records(g, kv)
            for r in range(max(1, top), min(6, g.n - 1) + 1):
                records += _per_cap_records(g, r, kv)
            assert any(
                rec.applicable and not rec.passed
                and (rec.predicate, rec.subject, rec.lhs, rec.rhs)
                == tuple(failure[key] for key in ("predicate", "subject", "lhs", "rhs"))
                for rec in records
            )

    def test_report_digest(self):
        """sha256 of ``consistency_sweep(7, 6).to_json()``, the package's own
        output: any change to a tally, a failure record or the document's
        layout shows here."""
        text = consistency_sweep(7, 6).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "12143404af0934251a4a55dbe5baabb766215dc06490751c106268b3eec4e13d"
        )

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
