import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cliquebound import graph6
from cliquebound.counting import clique_count, clique_weights
from cliquebound.enumeration import generate
from cliquebound.errors import InternalConsistencyError
from cliquebound.fixed_loss import fixed_loss_on_rows, has_small_component
from cliquebound.graphs import (
    Graph,
    bit_list,
    complement,
    complete,
    common_neighbors,
    cycle,
    disjoint_union,
    from_edges,
    mask_of,
)
from cliquebound.structure import (
    TightStructure,
    associated_cliques,
    clusters,
    clusters_among,
    derive,
    outside_degree_check,
    tight_classes,
    tight_cliques,
    tight_structures,
)
from helpers import complete_bipartite, connected_components, induced, path

@st.composite
def graph_with_cap(draw):
    n = draw(st.integers(1, 7))
    edges = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]))
    )
    g = from_edges(n, edges)
    r = draw(st.integers(max(g.max_degree(), 1), n))
    return g, r


capped = graph_with_cap()


class TestTightness:
    def test_cycle4_singletons(self):
        assert list(tight_cliques(cycle(4), 2)) == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError, match="degree cap"):
            derive(complete(4), 2, 0b1)

    def test_non_clique_rejected(self):
        with pytest.raises(ValueError, match="derive requires a tight clique"):
            derive(path(3), 2, 0b101)

    def test_empty_clique_tight_iff_full_budget(self):
        assert derive(complete(4), 3, 0).S == 0b1111
        with pytest.raises(ValueError):
            derive(complete(4), 4, 0)

    def test_complete_graph_everything_tight(self):
        g = complete(4)
        assert len(list(tight_cliques(g, 3))) == 15  # all nonempty cliques


class TestDerive:
    def test_cycle4(self):
        ts = derive(cycle(4), 2, 0b0001)
        assert ts.S == 0b1010
        assert ts.t == 1 and ts.s == 2
        # vertices 1 and 3 are nonadjacent, so R = K_2
        assert ts.r_degree(1) == ts.r_degree(3) == 1
        assert ts.k2_components == (0b1010,)

    def test_sizes_always_sum_to_budget(self):
        g = disjoint_union(complete(3), complete(2))
        for t_mask in tight_cliques(g, 4):
            ts = derive(g, 4, t_mask)
            assert ts.t + ts.s == 5

    def test_r_degrees_in_original_labels(self):
        g = cycle(5)
        ts = derive(g, 2, 0b00001)
        assert bit_list(ts.S) == [1, 4]
        assert [ts.r_degree(x) for x in (1, 4)] == [1, 1]

    def test_requires_tight_input(self):
        with pytest.raises(ValueError):
            derive(cycle(5), 3, 0b00001)  # weight 2 != r+1-1


def test_derive_succeeds_exactly_on_the_tight_cliques():
    """Every vertex set of every class with n <= 6, under every cap
    max(1, Delta(G)) <= r <= n - 1: derive gives the structure that
    tight_structures builds, i(R) included, exactly on the cliques of
    weight r + 1 - |T|, and the empty clique's structure when n = r + 1;
    it raises ValueError on every other clique and on every non-clique."""
    cliques = derived = 0
    for n in range(1, 7):
        for g in generate(n, n - 1):
            weights = {mask: (size, weight) for mask, size, weight in clique_weights(g)}
            for r in range(max(1, g.max_degree()), n):
                structures = {ts.T: ts for ts in tight_structures(g, r)}
                found = set()
                for t_mask in range(1 << n):
                    if t_mask in weights:
                        cliques += t_mask != 0
                        size, weight = weights[t_mask]
                    if t_mask not in weights or weight != r + 1 - size:
                        with pytest.raises(ValueError, match="derive requires a tight clique"):
                            derive(g, r, t_mask)
                        continue
                    ts = derive(g, r, t_mask)
                    assert ts.i_R == clique_count(g.adj, ts.S)
                    if t_mask:
                        assert ts == structures[t_mask]
                        assert ts.i_R == structures[t_mask].i_R
                        found.add(t_mask)
                    else:
                        assert (ts.S, ts.is_cluster) == (g.vertex_mask, not structures)
                    derived += 1
                assert found == set(structures)
    assert (cliques, derived) == (6396, 918)


def walk_tight_cliques(g, r):
    """The nonempty tight cliques by definition, by size then mask: a walk
    over every clique of ``g``, keeping each C of weight r + 1 - |C|."""
    return [
        mask
        for size, mask in sorted(
            (size, mask)
            for mask, size, weight in clique_weights(g)
            if size >= 1 and weight == r + 1 - size
        )
    ]


def reference_facts(g, r):
    """Each tight clique's T, S, R-degree of each member of S, cluster flag
    and K_2 components, built the long way: the tight cliques come from a
    walk over every clique, maximality tests the weight of every one-vertex
    extension, and a K_2 component is an edge of R whose ends have
    no other R-neighbour."""
    facts = []
    for t_mask in walk_tight_cliques(g, r):
        s_mask = common_neighbors(g, t_mask)
        labels = [v for v in range(g.n) if (s_mask >> v) & 1]
        rows = [
            sum(1 << j for j, y in enumerate(labels) if y != x and not (g.adj[x] >> y) & 1)
            for x in labels
        ]
        # T + v is a clique for every v in S; it is tight at weight r - |T|
        maximal = not any(
            common_neighbors(g, t_mask | (1 << v)).bit_count() == r - t_mask.bit_count()
            for v in labels
        )
        k2 = [
            (1 << labels[i]) | (1 << labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if rows[i] == 1 << j and rows[j] == 1 << i
        ]
        degrees = tuple((x, row.bit_count()) for x, row in zip(labels, rows))
        facts.append((t_mask, s_mask, degrees, maximal, tuple(k2)))
    return facts


def structure_facts(structures):
    return [
        (
            ts.T,
            ts.S,
            tuple((x, ts.r_degree(x)) for x in bit_list(ts.S)),
            ts.is_cluster,
            ts.k2_components,
        )
        for ts in structures
    ]


class TestTightStructures:
    @settings(max_examples=200, deadline=None)
    @given(capped)
    def test_matches_reference(self, gr):
        g, r = gr
        assert structure_facts(tight_structures(g, r)) == reference_facts(g, r)

    def test_matches_reference_on_random_capped_graphs(self, random_capped_graph):
        rng = random.Random(2013)
        k2_components = 0
        for _ in range(150):
            r = rng.randint(2, 6)
            g = random_capped_graph(rng, rng.randint(r + 1, 18), r)
            structures = tight_structures(g, r)
            assert structure_facts(structures) == reference_facts(g, r)
            k2_components += sum(len(ts.k2_components) for ts in structures)
        assert k2_components >= 1

    def test_derive_agrees_with_the_scan(self):
        g = disjoint_union(complete(3), cycle(4))
        structures = tight_structures(g, 2)
        assert len(structures) == 7 + 4  # every clique of K_3, the vertices of C_4
        for ts in structures:
            assert derive(g, 2, ts.T) == ts

    def test_k2_components_in_original_labels(self):
        # C_5 with a singleton tight clique: R on {1, 4} is one edge
        assert derive(cycle(5), 2, 0b00001).k2_components == (0b10010,)


def explicit_r_facts(g, ts):
    """i(R), phi(R), the K_2 components, the R-degree of each member of S
    and whether R has a K_1 or K_2 component, read off R = complement(G[S])
    built as a Graph, by subset scans."""
    r_graph, labels = induced(g, ts.S)
    r_graph = complement(r_graph)
    independent = [
        sub
        for sub in range(1 << r_graph.n)
        if all(not r_graph.adj[v] & sub for v in bit_list(sub))
    ]
    phi = sum((1 << min(r_graph.degree(v) for v in bit_list(sub))) - 1 for sub in independent if sub)
    k2 = tuple(
        sum(1 << labels[i] for i in bit_list(comp))
        for comp in connected_components(r_graph)
        if comp.bit_count() == 2
    )
    degrees = tuple((x, r_graph.degree(i)) for i, x in enumerate(labels))
    return len(independent), phi, k2, degrees, has_small_component(r_graph)


def test_deficiency_data_matches_an_explicit_r():
    """Every tight structure of every class with n <= 7, under every cap
    the sweep uses (max(1, Delta) <= r <= n - 1): i(R), phi(R), the K_2
    components, the R-degrees and the small-component test read off G's
    rows equal the values on an explicitly built R."""
    structures = 0
    for n in range(1, 8):
        for g in generate(n, n - 1):
            for r in range(max(1, g.max_degree()), n):
                for ts in tight_structures(g, r):
                    degrees = tuple((x, ts.r_degree(x)) for x in bit_list(ts.S))
                    got = (ts.i_R, ts.phi, ts.k2_components, degrees, ts.has_small_component)
                    assert got == explicit_r_facts(g, ts)
                    structures += 1
    assert structures == 3392


class TestClusters:
    def test_k33_six_singletons(self):
        cls = clusters(complete_bipartite(3, 3), 3)
        assert len(cls) == 6
        assert all(cl.t == 1 for cl in cls)

    def test_k4_single_cluster(self):
        cls = clusters(complete(4), 3)
        assert [cl.T for cl in cls] == [0b1111]
        assert cls[0].is_cluster

    def test_p4_two_middle_singletons(self):
        cls = clusters(path(4), 2)
        assert sorted(cl.T for cl in cls) == [0b0010, 0b0100]

    @pytest.mark.parametrize(
        "g, r, cluster, fault",
        [
            # each flagged T breaks one clause of the definition only
            pytest.param(cycle(4), 3, (0b0101, 0b1010), "T=0x5 is not a", id="non-clique"),
            pytest.param(cycle(4), 2, (0b0001, 0b0110), "T=0x1 is not a", id="S-not-N(T)"),
            pytest.param(cycle(4), 3, (0b0001, 0b1010), "T=0x1 is not a", id="not-tight"),
            # {0} of K_4 extends to the tight {0, 1}
            pytest.param(complete(4), 3, (0b0001, 0b1110), "T=0x1 is not a", id="not-maximal"),
            # nothing flagged leaves the degree-3 vertices of K_4 uncovered
            pytest.param(complete(4), 3, None, "degree-3 vertices are 0xf", id="uncovered"),
        ],
    )
    def test_clusters_are_checked_against_the_definition(self, g, r, cluster, fault):
        tights = [] if cluster is None else [TightStructure(*cluster, g.adj, True)]
        with pytest.raises(InternalConsistencyError, match=fault):
            clusters_among(g, r, tights)

    @settings(max_examples=150, deadline=None)
    @given(capped)
    def test_clusters_partition_tight_vertices(self, gr):
        g, r = gr
        cls = clusters(g, r)
        covered = 0
        for cl in cls:
            assert covered & cl.T == 0  # pairwise disjoint
            covered |= cl.T
        tight_vertices = 0
        for t_mask in walk_tight_cliques(g, r):
            tight_vertices |= t_mask
        assert covered == tight_vertices

    @settings(max_examples=150, deadline=None)
    @given(capped)
    def test_every_tight_clique_in_exactly_one_cluster(self, gr):
        g, r = gr
        cls = [cl.T for cl in clusters(g, r)]
        for t_mask in walk_tight_cliques(g, r):
            assert sum(1 for c in cls if t_mask & c == t_mask) == 1


def test_no_tight_clique_above_the_maximum_degree():
    """A nonempty clique of size k has weight at most Delta(G) + 1 - k, so a
    cap above the maximum degree leaves no tight clique of size >= 1: every
    class with n <= 7, every such cap, checked on a clique scan of its own.
    Only the empty clique, of weight n, can still be tight there."""
    pairs = 0
    for n in range(1, 8):
        for g in generate(n, n - 1):
            delta = g.max_degree()
            scan = [(size, weight) for _, size, weight in clique_weights(g) if size >= 1]
            assert all(weight <= delta + 1 - size for size, weight in scan)
            for r in range(delta + 1, n):
                assert not any(weight == r + 1 - size for size, weight in scan)
                assert tight_structures(g, r) == []
                assert list(tight_cliques(g, r, 0)) == ([0] if r + 1 == n else [])
                pairs += 1
    # the (graph, cap) pairs of consistency_sweep(7, 6) with r > max degree
    assert pairs == 1843


def test_tight_cliques_are_the_subsets_of_closed_neighborhood_classes():
    """``tight_cliques(g, r, 0)`` equals the walk-and-weight definition on
    every class with n <= 8, under every cap Delta(G) <= r <= max(n, 1):
    the empty clique when n = r + 1, and the nonempty subsets of each class
    of degree-r vertices sharing a closed neighborhood."""
    pairs = 0
    for n in range(9):
        for g in generate(n, max(n - 1, 0)):
            walk = sorted((size, mask, weight) for mask, size, weight in clique_weights(g))
            for r in range(g.max_degree(), max(n, 1) + 1):
                expected = [mask for size, mask, weight in walk if weight == r + 1 - size]
                assert list(tight_cliques(g, r, 0)) == expected, (graph6.encode(g), r)
                pairs += 1
    assert pairs == 50868


def test_class_core_gives_i_R_and_phi_of_every_tight_clique():
    """Within a class (K, X) the vertices of K - T are isolated in R, so
    i(R) = 2^|K - T| k(G[X - K]) and phi(R) = phi(R(X - K)), counted once
    per class.  Checked against the direct count on S for every tight
    clique of every (graph, cap) pair of consistency_sweep(7, 6)."""
    classes = structures = 0
    for n in range(1, 8):
        for g in generate(n, min(6, max(n - 1, 1))):
            for r in range(max(1, g.max_degree()), min(6, n - 1) + 1):
                cores = {}
                for ts in tight_structures(g, r):
                    assert ts.i_R == clique_count(g.adj, ts.S)
                    assert ts.phi == fixed_loss_on_rows(g.adj, ts.S).phi
                    assert cores.setdefault(ts.K, ts.core) is ts.core
                    alone = derive(g, r, ts.T)  # a core of its own
                    assert alone == ts and (alone.i_R, alone.phi) == (ts.i_R, ts.phi)
                    structures += 1
                assert sorted(cores) == sorted(k for k, _, _ in tight_classes(g, r))
                classes += len(cores)
    assert (classes, structures) == (2082, 3392)


def test_tight_structure_is_a_value():
    """A TightStructure is frozen, compares and hashes on (T, S, adj,
    is_cluster, K) whatever core it holds, and stores |T| and |S| as
    ``t`` and ``s``: checked for every structure of every class with
    n <= 6, under every cap Delta(G) <= r <= n - 1."""
    g = cycle(5)
    ts = derive(g, 2, 0b00001)
    for name, value in (("T", 0b00010), ("t", 2), ("s", 1), ("core", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(ts, name, value)
    other = derive(g, 2, 0b00001)  # a core of its own
    assert other.core is not ts.core
    assert other == ts and hash(other) == hash(ts)
    structures = 0
    for n in range(1, 7):
        for g in generate(n, n - 1):
            for r in range(g.max_degree(), n):
                for ts in tight_structures(g, r):
                    assert (ts.t, ts.s) == (ts.T.bit_count(), ts.S.bit_count())
                    structures += 1
    assert structures == 732


def test_structures_built_without_a_class_count_on_s():
    """A structure given no class (K = 0) counts i(R) and phi(R) on all of
    S, as does the empty clique of derive."""
    g = complete(4)
    ts = TightStructure(0b0001, 0b1110, g.adj, False)
    assert (ts.i_R, ts.phi) == (8, 0) == (derive(g, 3, 0b0001).i_R, derive(g, 3, 0b0001).phi)
    empty_clique = derive(cycle(4), 3, 0)
    assert empty_clique.K == 0
    assert empty_clique.i_R == clique_count(cycle(4).adj, 0b1111) == 9
    assert empty_clique.phi == fixed_loss_on_rows(cycle(4).adj, 0b1111).phi


def test_clusters_partition_exhaustive_small():
    """Cluster structure on every graph with n <= 5, every degree cap."""
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = from_edges(n, [p for i, p in enumerate(pairs) if (code >> i) & 1])
            for r in range(max(g.max_degree(), 1), n):
                cls = clusters(g, r)
                covered = 0
                for cl in cls:
                    assert covered & cl.T == 0
                    covered |= cl.T
                for t_mask in tight_cliques(g, r):
                    assert sum(1 for cl in cls if t_mask & cl.T == t_mask) == 1


class TestAssociatedCliques:
    def test_whole_graph_cluster_has_none(self):
        assert list(associated_cliques(complete(4), 0b1111, 2)) == []

    def test_pendant_structure(self):
        # K_4 with a pendant vertex attached to vertex 0, cap r=4:
        # only vertex 0 reaches degree r, so the lone cluster is {0}
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        cls = clusters(g, 4)
        assert [cl.T for cl in cls] == [0b00001]
        assoc = list(associated_cliques(g, 0b00001, 2))
        # the associated 2-cliques are exactly the edges at vertex 0
        assert assoc == [0b00011, 0b00101, 0b01001, 0b10001]

    def test_small_c_rejected(self):
        with pytest.raises(ValueError):
            next(associated_cliques(complete(4), 0b0111, 1))

    def test_equal_the_walk_and_filter_definition(self):
        """For every cluster K of every class with n <= 7, under every cap
        Delta(G) <= r <= n - 1, and every 2 <= c <= |K|: the associated
        c-cliques are the c-cliques C of a walk over every clique with
        |C & K| = c - 1, in increasing mask order."""
        pairs = 0
        for n in range(1, 8):
            for g in generate(n, n - 1):
                walk = sorted((size, mask) for mask, size, _ in clique_weights(g))
                for r in range(g.max_degree(), n):
                    for k, _, _ in tight_classes(g, r):
                        for c in range(2, k.bit_count() + 1):
                            expected = [
                                mask
                                for size, mask in walk
                                if size == c and (mask & k).bit_count() == c - 1
                            ]
                            assert list(associated_cliques(g, k, c)) == expected
                            pairs += 1
        assert pairs == 387


class TestOutsideDegree:
    def test_passes_on_cycle(self):
        rec = outside_degree_check(cycle(4), derive(cycle(4), 2, 0b0001))
        assert rec.applicable and rec.passed

    @settings(max_examples=150, deadline=None)
    @given(capped)
    def test_never_fails(self, gr):
        g, r = gr
        for t_mask in tight_cliques(g, r):
            rec = outside_degree_check(g, derive(g, r, t_mask))
            assert rec.passed


def test_tight_structure_validates_flag_consistency():
    ts = derive(cycle(4), 2, 0b0001)
    assert isinstance(ts, TightStructure)
    assert ts.is_cluster  # singleton tight cliques of C_4 are maximal
