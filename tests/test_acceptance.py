"""Acceptance suite: the ten headline guarantees, one test per criterion.

Criterion 2 sweeps every isomorphism class on up to nine vertices; its
generated classes are cached at module scope and reused by the later
criteria, so this file is meant to run as a unit (plain `pytest` does that).
The criteria that take more than 10 s, and those that read criterion 2's
nine-vertex classes, are marked ``slow``.
"""

import hashlib
import random
import time
from itertools import combinations

import pytest

from cliquebound import graph6
from cliquebound.bounds import (
    bounded_clique_checks,
    chain_vs_main_compare,
    kahn_zhao_check,
    main_bound,
    min_ind_check,
    regular_independent_checks,
    strong_chain_bound,
    zykov_check,
)
from cliquebound.canon import canonical_form
from cliquebound.counting import (
    brute_force_clique_vector,
    clique_vector,
    independent_vector,
    weight_sums,
)
from cliquebound.enumeration import (
    _classes,
    _level,
    consistency_sweep,
    generate_regular,
    verify_main,
)
from cliquebound.fixed_loss import degree_one_bound_check, fixed_loss, max_bound_check
from cliquebound.graphs import (
    complete,
    cycle,
    disjoint_union,
    extremal_graph,
    from_edges,
)
from cliquebound.transform import hill_climb


def staging_graph():
    return from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])


@pytest.fixture(scope="module")
def sweep_n8():
    return consistency_sweep(8, 7)


def test_criterion_01_extremal_formula():
    """k(aK_{r+1} u K_b) = a(2^{r+1}-1) + 2^b for all n <= 20, r <= 10."""
    t0 = time.monotonic()
    for n in range(0, 21):
        for r in range(1, 11):
            a, b = divmod(n, r + 1)
            assert clique_vector(extremal_graph(n, r)).total == a * ((1 << (r + 1)) - 1) + (1 << b)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: extremal formula exact for n<=20, r<=10 ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_02_exhaustive_maximum():
    """Exhaustive maximum and equality characterization for n <= 9, all r."""
    t0 = time.monotonic()
    for n in range(1, 10):
        # descending r lets every smaller cap filter from the cached classes
        for r in range(max(n - 1, 1), 0, -1):
            rep = verify_main(n, r)
            assert rep.max_k == rep.bound, (n, r, rep.max_k, rep.bound)
            assert rep.equality_matches_characterization, (n, r, rep.extremal)
    assert len(_classes(9, 8)) == 274668  # OEIS A000088
    # the r=2 exceptional families carry the predicted totals
    for a in range(1, 4):
        c4_family = cycle(4)
        c5_family = cycle(5)
        for _ in range(a - 1):
            c4_family = disjoint_union(complete(3), c4_family)
            c5_family = disjoint_union(complete(3), c5_family)
        assert clique_vector(c4_family).total == 7 * a + 2
        assert clique_vector(c5_family).total == 7 * a + 4
    elapsed = time.monotonic() - t0
    assert elapsed < 15 * 60
    print(f"criterion 2 PASS: exhaustive maximum matches the bound for n<=9 ({elapsed:.0f}s)")


@pytest.mark.slow
def test_nine_vertex_level_digest():
    """sha256 of one line "graph6 generators-hex" per class of the (9, 8)
    level, in its order, reading the level criterion 2 built: 274,668
    lines.  The value is the package's own output before the root-cell
    rule, integer leaf keys and parent-derived neighbour lists, so any
    change to a class, its order or its carried generators shows here."""
    level = _level(9, 8)
    digest = hashlib.sha256()
    for g, packed in zip(level.graphs, level.generators):
        digest.update(f"{graph6.encode(g)} {packed.hex()}\n".encode())
    assert len(level.graphs) == 274668
    assert digest.hexdigest() == (
        "fc7861295c6b3712b80c3c5e2c11b40d1ca81d88d9b45b9f0e562edf523f553b"
    )


@pytest.mark.slow
def test_criterion_03_oracle_equivalence():
    """Pivoted counter equals the clique-listing oracle on 2^15 labeled n=6
    graphs and on 1000 seeded random n=20 graphs."""
    t0 = time.monotonic()
    pairs6 = list(combinations(range(6), 2))
    for code in range(1 << 15):
        g = from_edges(6, [p for i, p in enumerate(pairs6) if (code >> i) & 1])
        assert clique_vector(g) == brute_force_clique_vector(g)
    rng = random.Random(20)
    pairs20 = list(combinations(range(20), 2))
    for _ in range(1000):
        g = from_edges(20, [p for p in pairs20 if rng.random() < 0.5])
        assert clique_vector(g) == brute_force_clique_vector(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"criterion 3 PASS: oracle equivalence on 33768 graphs ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_04_weight_identity():
    """t k_t = sum of w(C) over (t-1)-cliques, on every graph of criterion 2's sweep."""
    checked = 0
    for n in range(1, 10):
        for g in _classes(n, max(n - 1, 1)):
            v = clique_vector(g)
            sums = weight_sums(g)
            for t in range(1, v.max_size + 2):
                expected = sums[t - 1] if t - 1 < len(sums) else 0
                assert t * v[t] == expected, (graph6.encode(g), t)
            checked += 1
    print(f"criterion 4 PASS: weight identity exact on {checked} classes")


@pytest.mark.slow
def test_criterion_05_fill_gain_bound(sweep_n8):
    """Proven fill-gain lower bound holds for every (G, tight T), n <= 8."""
    applicable, passed, failed = sweep_n8.tallies["fill_gain_lower_bound"]
    assert failed == 0 and applicable == passed and applicable > 0
    print(f"criterion 5 PASS: gain bound clean on all {applicable} tight cliques, n<=8")


def test_criterion_06_fixed_loss_bounds():
    """Loss ceiling phi(R) <= s(2^{s-1}-1) with equality at K_s, and the
    degree-one strengthening, for every R with at most 7 vertices."""
    t0 = time.monotonic()
    checked = 0
    for s in range(0, 8):
        for r_graph in _classes(s, max(s - 1, 1)):
            breakdown = fixed_loss(r_graph)
            rec = max_bound_check(r_graph, breakdown)
            assert not rec.applicable or rec.passed, graph6.encode(r_graph)
            rec = degree_one_bound_check(r_graph, breakdown)
            assert not rec.applicable or rec.passed, graph6.encode(r_graph)
            checked += 1
        if s >= 1:
            k_s = complete(s)
            rec = max_bound_check(k_s, fixed_loss(k_s))
            assert rec.lhs == rec.rhs == s * ((1 << (s - 1)) - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 5 * 60
    print(f"criterion 6 PASS: fixed-loss bounds clean on {checked} graphs ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_07_signposts():
    """Per-size regular lower bounds, per-size degree-capped upper bounds,
    the regular-graph power inequalities, and the triangle-count ceiling."""
    # per-size lower bounds on d-regular graphs with (d+1) | n
    for n in range(1, 10):
        for d in range(0, n):
            if n % (d + 1) or (n * d) % 2:
                continue
            for g in generate_regular(n, d):
                for rec in regular_independent_checks(g, d, independent_vector(g)):
                    assert not rec.applicable or rec.passed, (graph6.encode(g), d)
    # per-size upper bounds on capped graphs with (r+1) | n
    for n in range(1, 10):
        for r in range(1, n):
            if n % (r + 1):
                continue
            for g in _classes(n, r):
                for rec in bounded_clique_checks(g, r, clique_vector(g)):
                    assert not rec.applicable or rec.passed, (graph6.encode(g), r)
    # independent-set power bounds on all regular graphs
    for n in range(1, 10):
        for d in range(0, n):
            if (n * d) % 2:
                continue
            for g in generate_regular(n, d):
                ivec = independent_vector(g)
                assert kahn_zhao_check(g, d, ivec).passed is not False, graph6.encode(g)
                assert min_ind_check(g, d, ivec).passed is not False, graph6.encode(g)
    # triangle-count ceiling on all graphs with n <= 8
    for n in range(1, 9):
        for g in _classes(n, max(n - 1, 1)):
            assert zykov_check(g, clique_vector(g)).passed, graph6.encode(g)
    print("criterion 7 PASS: all signpost bounds clean for n<=9")


def test_criterion_08_known_equality_fixtures():
    two_k2 = disjoint_union(complete(2), complete(2))
    assert independent_vector(two_k2).total == 9 == 3 ** 2
    two_k4 = disjoint_union(complete(4), complete(4))
    assert clique_vector(two_k4).total == 31 == 1 + 2 * ((1 << 4) - 1)
    assert strong_chain_bound(6, 3) == main_bound(6, 3) == 19
    equality_points = []
    for r in range(3, 9):
        for a in range(1, 5):
            for b in range(0, r + 1):
                n = a * (r + 1) + b
                rec = chain_vs_main_compare(n, r)
                if rec.applicable and rec.lhs == rec.rhs:
                    equality_points.append((n, r))
    assert equality_points == [(6, 3)]
    print("criterion 8 PASS: known equality fixtures exact, chain/main equality unique at (6,3)")


@pytest.mark.slow
def test_criterion_09_consistency_report(sweep_n8):
    # (a) outside-degree bound, (b) strict gain of the edge-completion move
    assert sweep_n8.tallies["outside_degree"][2] == 0
    assert sweep_n8.tallies["k2_move_gain"][2] == 0
    # (c) the as-printed profitability threshold mispredicts on C_4 with T a singleton
    witnesses = sweep_n8.failures_for("fill_threshold_literal")
    assert witnesses
    c4 = canonical_form(cycle(4))
    assert any(w["graph6"] == c4 and w["subject"].endswith("T=0x1") for w in witnesses)
    # (d) cluster-predicate and discharging tallies restricted to size >= 2,
    #     every failure carrying a decodable graph6 witness
    for predicate in ("cluster_large_loss", "associated_low_weight", "discharging"):
        assert predicate in sweep_n8.tallies
    for failure in sweep_n8.failures:
        assert graph6.decode(failure["graph6"]).n <= 8
    # determinism: byte-identical across runs and worker counts
    text = sweep_n8.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c817cd4f4bbfcfec1fe07afa4ded921e1cfb68fecd231cc4def756fffb11863e"
    )
    assert consistency_sweep(8, 7, workers=1).to_json() == text
    assert consistency_sweep(8, 7, workers=2).to_json() == text
    print("criterion 9 PASS: consistency report clean, witnessed, and byte-identical")


def test_criterion_10_hill_climber():
    trace = hill_climb(staging_graph(), 3)
    assert trace and trace[0].k_after == 18
    assert hill_climb(cycle(4), 2) == []
    assert clique_vector(cycle(4)).total == 9
    print("criterion 10 PASS: hill climber reaches 18 in one move and fixes C_4 at 9")
