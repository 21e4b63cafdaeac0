"""The benchmark's three workloads: inputs, the timed unit, and the
correctness gates applied to its outputs.

Each workload has ``setup(seed, workdir)`` (untimed, builds the inputs),
``run(state)`` (the timed region, returns the outputs) and
``check(state, outputs, checks)`` (untimed, compares outputs with pinned
values and independent oracles).  Pinned values were measured on the
package as of the commit that added this benchmark; a change that alters
one of them changes a verified result.

Package functions are looked up through their modules at call time, so a
tracer installed before a unit starts sees every call the unit makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

import cliquebound.canon as canon
import cliquebound.cli as cli
import cliquebound.counting as counting
import cliquebound.enumeration as enumeration
import cliquebound.graph6 as graph6
import cliquebound.graphs as graphs
import cliquebound.structure as structure
import cliquebound.transform as transform


class Checks:
    """Correctness gate tally: every ``expect`` is one attempted check."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# independent oracles (share no code with the package's counters)


def oracle_cliques(adj: Tuple[int, ...], n: int) -> List[Tuple[int, int, int]]:
    """(mask, size, common-neighbor count) of every nonempty clique, found by
    plain extension in increasing vertex order."""
    out = []

    def extend(mask: int, size: int, common: int, lowest_next: int) -> None:
        cand = common & ~((1 << lowest_next) - 1)
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            new_common = common & adj[v]
            out.append((mask | low, size + 1, new_common.bit_count()))
            extend(mask | low, size + 1, new_common, v + 1)

    extend(0, 0, (1 << n) - 1, 0)
    return out


def oracle_clique_vector(adj: Tuple[int, ...], n: int) -> List[int]:
    counts = [1]
    for _, size, _ in oracle_cliques(adj, n):
        while len(counts) <= size:
            counts.append(0)
        counts[size] += 1
    return counts


def oracle_independent_count(adj: Tuple[int, ...], n: int) -> int:
    """i(G) by i(G) = i(G - v) + i(G - N[v]) on a max-degree vertex v, with
    memoization on the remaining vertex set."""
    memo: Dict[int, int] = {}

    def count(avail: int) -> int:
        if avail in memo:
            return memo[avail]
        best, best_deg = -1, 0
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & avail).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        if best < 0:
            result = 1 << avail.bit_count()
        else:
            rest = avail & ~(1 << best)
            result = count(rest) + count(rest & ~adj[best])
        memo[avail] = result
        return result

    return count((1 << n) - 1)


def oracle_main_bound(n: int, r: int) -> int:
    """k(aK_{r+1} u K_b) with n = a(r+1) + b, 0 <= b <= r."""
    a, b = divmod(n, r + 1)
    return a * ((1 << (r + 1)) - 1) + (1 << b)


def random_permutation(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# verify: exhaustive generation plus the extremal maximum, via the CLI

VERIFY_N, VERIFY_R = 8, 4
VERIFY_PINS = {"graph_count": 2590, "max_k": 39, "bound": 39}
VERIFY_SPOT_CHECKS = 16


class Verify:
    """``cliquebound verify 8 4`` in a fresh interpreter: 2,590 classes.

    The input is fixed by (n, r); the seed draws which classes get the
    relabeling and brute-force spot checks.
    """

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "out": os.path.join(workdir, f"verify-{os.getpid()}.json")}

    def run(self, state: dict) -> int:
        return cli.main(["--out", state["out"], "verify", str(VERIFY_N), str(VERIFY_R)])

    def check(self, state: dict, exit_code: int, checks: Checks) -> None:
        checks.expect(exit_code == 0, f"verify exit code {exit_code}")
        with open(state["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(state["out"])
        rec = doc["results"]["verifications"][0]
        for key, want in VERIFY_PINS.items():
            checks.expect(rec[key] == want, f"verify {key} {rec[key]} != pinned {want}")
        checks.expect(rec["max_k"] == rec["bound"], "verify max_k != bound")
        checks.expect(rec["equality_matches_characterization"] is True,
                      "verify equality cases do not match the characterization")
        checks.expect(rec["bound_holds"] is True, "verify bound_holds is false")

        # The class list is cached by the run above, so this regenerates nothing.
        classes = list(enumeration.generate(VERIFY_N, VERIFY_R))
        codes = [graph6.encode(g) for g in classes]
        checks.expect(len(set(codes)) == VERIFY_PINS["graph_count"],
                      f"verify emitted {len(set(codes))} distinct classes")
        checks.expect(all(g.max_degree() <= VERIFY_R for g in classes),
                      "verify emitted a class over the degree cap")
        rng = random.Random(state["seed"])
        for idx in sorted(rng.sample(range(len(classes)), VERIFY_SPOT_CHECKS)):
            g = classes[idx]
            relabeled = g.relabel(random_permutation(rng, g.n))
            checks.expect(canon.canonical_form(relabeled) == codes[idx],
                          f"class {codes[idx]} is not canonical under relabeling")
            checks.expect(list(counting.clique_vector(g)) == list(counting.brute_force_clique_vector(g)),
                          f"class {codes[idx]} clique vector disagrees with brute force")


# ---------------------------------------------------------------------------
# sweep: every predicate on every small graph, classes generated in set-up

SWEEP_N, SWEEP_R = 7, 6
SWEEP_TALLIES = {
    "associated_low_weight": [56, 0, 56],
    "bounded_clique_upper": [9901, 9901, 0],
    "chain_bound_no_tight": [2822, 2822, 0],
    "cluster_large_loss": [52, 0, 52],
    "cluster_large_loss_size1": [85, 0, 85],
    "discharging": [0, 0, 0],
    "double_counting": [1252, 1252, 0],
    "extremal_bound": [3088, 3088, 0],
    "fill_gain_lower_bound": [3392, 3392, 0],
    "fill_threshold_corrected": [1747, 1747, 0],
    "fill_threshold_literal": [3360, 2599, 761],
    "fixed_loss_degree_one": [1009, 1009, 0],
    "fixed_loss_max": [1252, 1252, 0],
    "k2_move_gain": [163, 163, 0],
    "kahn_zhao_upper": [19, 19, 0],
    "min_independent_lower": [26, 26, 0],
    "outside_degree": [3392, 3392, 0],
    "regular_independent_lower": [111, 111, 0],
    "strong_from_no_tight": [2822, 2822, 0],
    "zykov_upper": [1252, 1252, 0],
}
# Recorded, not gated: a new canonical labeling may pick other graph6
# witnesses without changing any tally.
SWEEP_DIGEST = "12143404af0934251a4a55dbe5baabb766215dc06490751c106268b3eec4e13d"


class Sweep:
    """``consistency_sweep(7, 6)``: 3,088 (graph, cap) pairs.

    The input is fixed by (n, r): every class on n <= 7 vertices.
    """

    def setup(self, seed: int, workdir: str) -> dict:
        for n in range(1, SWEEP_N + 1):
            list(enumeration.generate(n, min(SWEEP_R, max(n - 1, 1))))
        return {}

    def run(self, state: dict):
        return enumeration.consistency_sweep(SWEEP_N, SWEEP_R)

    def check(self, state: dict, report, checks: Checks) -> None:
        checks.expect(sorted(report.tallies) == sorted(SWEEP_TALLIES),
                      f"sweep predicate set {sorted(report.tallies)}")
        for pred, want in SWEEP_TALLIES.items():
            got = list(report.tallies.get(pred, []))
            checks.expect(got == want, f"sweep tally {pred} {got} != pinned {want}")
            failed = len(report.failures_for(pred))
            checks.expect(failed == want[2], f"sweep {pred} has {failed} failure records, pinned {want[2]}")
        state["digest"] = hashlib.sha256(report.to_json().encode()).hexdigest()
        state["digest_matches_pinned"] = state["digest"] == SWEEP_DIGEST


# ---------------------------------------------------------------------------
# corpus: larger degree-capped graphs through count, canon and hill_climb

# The corpus content is fixed: random degree-capped graphs drawn once from
# CORPUS_BUILD_SEED, plus symmetric unions, so every output can be pinned.
# Graphs drawn from the run seed could not be: hill_climb's final k even
# depends on vertex labels (3 of these 25 graphs end elsewhere under some
# relabeling).  Their cost also moved between seeds: the n = 40, r = 7 graph
# alone took 0.77 +- 0.23 s over 10 seeds.  The run seed draws the stream
# order and the relabeling under which the canonical form is checked.
CORPUS_BUILD_SEED = 0
# (n, r) of the random graphs.  No n falls in 21..24: there the brute-force
# oracle needs seconds per graph.
CORPUS_SIZES = [(n, r) for n in (16, 20, 28, 34, 40) for r in (3, 4, 5, 6, 7)]
# name -> (k(G), i(G), hill_climb final k), measured on the package.
CORPUS_PINS = {
    "random-n16-r3": (40, 2960, 42),
    "random-n16-r4": (56, 912, 77),
    "random-n16-r5": (109, 455, 136),
    "random-n16-r6": (102, 596, 257),
    "random-n16-r7": (139, 584, 274),
    "random-n20-r3": (56, 10400, 66),
    "random-n20-r4": (55, 10542, 80),
    "random-n20-r5": (63, 9934, 144),
    "random-n20-r6": (140, 1513, 273),
    "random-n20-r7": (297, 1782, 516),
    "random-n28-r3": (64, 764280, 82),
    "random-n28-r4": (113, 150264, 137),
    "random-n28-r5": (123, 198832, 210),
    "random-n28-r6": (218, 48832, 392),
    "random-n28-r7": (249, 21079, 546),
    "random-n34-r3": (70, 43251840, 85),
    "random-n34-r4": (81, 26778240, 125),
    "random-n34-r5": (118, 4079784, 225),
    "random-n34-r6": (235, 1125984, 402),
    "random-n34-r7": (417, 298134, 566),
    "random-n40-r3": (94, 553369600, 119),
    "random-n40-r4": (126, 118196928, 178),
    "random-n40-r5": (129, 34020888, 240),
    "random-n40-r6": (281, 8761248, 428),
    "random-n40-r7": (494, 3032001, 822),
    "3xC5": (31, 1331, 31),
    "C5+Petersen": (36, 836, 38),
    "4xC4": (33, 2401, 33),
    "2xC7": (29, 841, 29),
}


def _union(parts) -> graphs.Graph:
    g = graphs.empty(0)
    for part in parts:
        g = graphs.disjoint_union(g, part)
    return g


def _petersen() -> graphs.Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return graphs.from_edges(10, edges)


# name -> (graph builder, degree cap).  Unions of symmetric components hold
# canon's slow cases; 3xC5 is the slowest here.
CORPUS_SYMMETRIC = {
    "3xC5": (lambda: _union([graphs.cycle(5)] * 3), 2),
    "C5+Petersen": (lambda: _union([graphs.cycle(5), _petersen()]), 3),
    "4xC4": (lambda: _union([graphs.cycle(4)] * 4), 2),
    "2xC7": (lambda: _union([graphs.cycle(7)] * 2), 2),
}


def random_capped_graph(rng: random.Random, n: int, r: int) -> graphs.Graph:
    """Planted cliques of size 3..r+1, then random edges, never letting a
    degree exceed r."""
    degree = [0] * n
    edges = set()

    def add(u: int, v: int) -> None:
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
    return graphs.from_edges(n, sorted(edges))


def build_corpus(seed: int) -> List[dict]:
    """The corpus in a seed-drawn order, each graph with a seed-drawn
    relabeling for the canonical-form check."""
    build_rng = random.Random(CORPUS_BUILD_SEED)
    items = [
        {"name": f"random-n{n}-r{r}", "graph": random_capped_graph(build_rng, n, r), "r": r}
        for n, r in CORPUS_SIZES
    ]
    items += [{"name": name, "graph": build(), "r": r} for name, (build, r) in CORPUS_SYMMETRIC.items()]
    rng = random.Random(seed)
    rng.shuffle(items)
    for item in items:
        item["perm"] = random_permutation(rng, item["graph"].n)
    return items


def process_graph(g: graphs.Graph, r: int) -> dict:
    """The ``count --tight`` path, then canonical_form, then hill_climb."""
    kv = counting.clique_vector(g)
    iv = counting.independent_vector(g)
    return {
        "clique_vector": list(kv),
        "independent_vector": list(iv),
        "tight": list(structure.tight_cliques(g, r, 1)),
        "clusters": [cl.T for cl in structure.clusters(g, r)],
        "canonical": canon.canonical_form(g),
        "climb": transform.hill_climb(g, r),
    }


class Corpus:
    """25 degree-capped random graphs (n 16-40, r 3-7) and 4 symmetric unions."""

    def setup(self, seed: int, workdir: str) -> dict:
        return {"items": build_corpus(seed)}

    def run(self, state: dict) -> List[Tuple[dict, float]]:
        from time import perf_counter

        out = []
        for item in state["items"]:
            t0 = perf_counter()
            result = process_graph(item["graph"], item["r"])
            out.append((result, perf_counter() - t0))
        return out

    def check(self, state: dict, outputs, checks: Checks) -> None:
        state["latencies_s"] = [lat for _, lat in outputs]
        for item, (res, _) in zip(state["items"], outputs):
            self._check_graph(item, res, checks)

    @staticmethod
    def _check_graph(item: dict, res: dict, checks: Checks) -> None:
        g, r, name = item["graph"], item["r"], item["name"]
        kv, iv = res["clique_vector"], res["independent_vector"]
        checks.expect(kv == oracle_clique_vector(g.adj, g.n), f"{name}: clique vector != oracle")
        checks.expect(sum(iv) == oracle_independent_count(g.adj, g.n), f"{name}: i(G) != oracle")
        if g.n <= counting.BRUTE_FORCE_MAX_VERTICES:
            checks.expect(kv == list(counting.brute_force_clique_vector(g)),
                          f"{name}: clique vector != brute force")
            checks.expect(iv == list(counting.brute_force_clique_vector(graphs.complement(g))),
                          f"{name}: independent vector != brute force")

        cliques = oracle_cliques(g.adj, g.n)
        tight = sorted((size, mask) for mask, size, w in cliques if w == r + 1 - size)
        checks.expect(res["tight"] == [mask for _, mask in tight], f"{name}: tight cliques != oracle")
        tight_masks = [mask for _, mask in tight]
        maximal = sorted(t for t in tight_masks
                         if not any(u != t and u & t == t for u in tight_masks))
        checks.expect(res["clusters"] == maximal, f"{name}: clusters != maximal tight cliques")

        relabeled = g.relabel(item["perm"])
        checks.expect(canon.canonical_form(relabeled) == res["canonical"],
                      f"{name}: canonical form changes under relabeling")

        k_total = sum(kv)
        current = k_total
        for step in res["climb"]:
            recount = sum(oracle_clique_vector(step.after.adj, step.after.n))
            checks.expect(step.k_before == current and step.k_after == recount and recount > current,
                          f"{name}: hill_climb step {step.move} k {step.k_before}->{step.k_after}, "
                          f"expected {current}->{recount} increasing")
            checks.expect(step.after.max_degree() <= r, f"{name}: hill_climb broke the degree cap")
            current = recount
        checks.expect(current <= oracle_main_bound(g.n, r),
                      f"{name}: hill_climb reached k={current} above the bound")
        got = (k_total, sum(iv), current)
        checks.expect(got == CORPUS_PINS[name], f"{name}: (k, i, final k) = {got} != pinned {CORPUS_PINS[name]}")


WORKLOADS = {"verify": Verify, "sweep": Sweep, "corpus": Corpus}
