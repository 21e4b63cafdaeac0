"""Isomorph-free generation of degree-bounded graphs, plus the harness that
confronts every quantitative statement with every small graph.

Generation is McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 1998).  Each level representative (a parent) is
extended by one neighbourhood per orbit of its automorphism group.  A
neighbourhood is tried only if no vertex of the child would have a larger
degree than the new one; degrees are invariant, so this skips whole orbits
that the deletion test would reject.  A child is kept iff its
new vertex u is a canonical deletion vertex: u has the largest invariant
(degree, sorted neighbour degrees), and an automorphism of the child maps u
onto w*, the vertex of largest invariant that the child's canonical order
places first.  The orbit of w* does not depend on the labeling, so the
children of one class that are kept all delete to the same parent class and
extend it through neighbourhoods in one orbit: every class is kept exactly
once.  A class kept twice means generators were missed, and raises
``InternalConsistencyError``.

Before a child is searched for its canonical order, its root partition
(``canon.root_partition``) is computed once, on neighbour lists derived
from its parent's, and the search starts from it.  A leaf order lists the vertices by increasing root
colour, so w* has the least root colour among the candidates, and
automorphisms keep root colours: a child whose new vertex has a larger
root colour than some candidate is rejected with no search.  A kept
child's one labeling (``canon.labeling_from_root``) gives everything its
class needs as a parent: its canonical key, the least leaf's
``graph6.ordered_key``, and its automorphism generators, relabeled through
the canonical order and packed, so no parent is searched again.

The (n, r) levels form one cached table, each built once from the cached
level below.  A level keeps no graphs: it is the sorted keys of its classes
and their packed generators.  For one n the keys order exactly like the
canonical graph6 strings, so the sort gives canonical-form order, whatever
the worker count and iteration order, and equal neighbours after it are
the exact duplicate check.  A class's rows are unpacked from its key
(``graph6.unpack``) only when it is read: by ``generate`` or a sweep
chunk, one ``Graph`` at a time, or by the expansion of the level above,
one parent at a time.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import graph6
from .bounds import (
    associated_low_weight_check,
    bounded_clique_checks,
    chain_bound_check,
    cluster_loss_check,
    discharging_check,
    double_counting_check,
    extremal_bound_check,
    kahn_zhao_check,
    main_bound,
    min_ind_check,
    regular_independent_checks,
    strong_inequalities,
    zykov_check,
)
from .canon import canonical_form, labeling_from_root, root_partition
from .counting import CliqueVector, clique_count, clique_vector, independent_vector
from .errors import CapacityError, InternalConsistencyError
from .fixed_loss import degree_one_bound_check, fixed_loss, max_bound_check
from .graphs import Graph, bit_list, cycle, disjoint_union, extremal_graph
from .records import ConsistencyRecord
from .structure import (
    ClassCore,
    class_structure,
    clusters_among,
    outside_degree_check,
    tight_classes,
)
from .transform import fill_checks, fill_gain, k2_move_check

GENERATION_MAX_VERTICES = 12
SWEEP_MAX_VERTICES = 9


# ---------------------------------------------------------------------------
# generation


class Level(NamedTuple):
    """One (n, r) entry of the class table: the vertex count, each class's
    canonical key (the least leaf's ``graph6.ordered_key``) in increasing
    order, and for each the automorphism generators that its child
    labeling found, relabeled through the canonical order and packed as one
    ``bytes`` of n-byte vertex maps (empty for an asymmetric class)."""

    n: int
    keys: List[int]
    generators: List[bytes]


_class_cache: Dict[Tuple[int, int], Level] = {}


def _child_canons(
    parent_rows: Tuple[int, ...], generators: bytes, r: int
) -> List[Tuple[int, bytes]]:
    """The canonical (key, packed generators) of the one-vertex
    extensions of a level representative that keep all degrees <= r and
    whose new vertex is a canonical deletion vertex.

    One neighbourhood is tried per orbit of the parent's automorphisms,
    given by its packed ``generators``: an automorphism that maps one
    neighbourhood onto another extends, fixing the new vertex, to an
    isomorphism between the two children.  A neighbourhood that would
    leave some vertex of the child above the new vertex's degree is not
    tried, as the deletion test rejects it; degrees are invariant, so
    its whole orbit is rejected too."""
    m = len(parent_rows)
    deg = [row.bit_count() for row in parent_rows]
    top = max(deg)
    eligible = crowded = 0
    for v, d in enumerate(deg):
        if d < r:
            eligible |= 1 << v
        if d == top:
            crowded |= 1 << v
    nbrs = [bit_list(row) for row in parent_rows]
    # the bit each generator sends each vertex's bit to
    images = [[1 << w for w in generators[i:i + m]] for i in range(0, len(generators), m)]
    seen: Set[int] = set()  # the neighbourhoods in orbits already tried
    new_bit = 1 << m
    out: List[Tuple[int, bytes]] = []
    sub = eligible
    while True:
        size = sub.bit_count()
        if (top < size <= r or (size == top and not sub & crowded)) and sub not in seen:
            if images:
                _mark_orbit(sub, images, seen)
            # tuple() of a list takes an exact-size tuple that the last child
            # freed; of a generator it shrinks a larger one, and the freed
            # tuples pile up on the free list
            child = tuple(
                [row | new_bit if (sub >> v) & 1 else row for v, row in enumerate(parent_rows)]
            ) + (sub,)
            kept = _canonical_child_form(child, nbrs)
            if kept is not None:
                out.append(kept)
        if sub == 0:
            break
        sub = (sub - 1) & eligible
    return out


def _mark_orbit(sub: int, images: List[List[int]], seen: Set[int]) -> None:
    """Add to ``seen`` every image of the vertex set ``sub`` under the group
    that the generators given by their bit ``images`` generate."""
    seen.add(sub)
    todo = [sub]
    while todo:
        s = todo.pop()
        for image in images:
            t = 0
            m = s
            while m:
                low = m & -m
                t |= image[low.bit_length() - 1]
                m ^= low
            if t not in seen:
                seen.add(t)
                todo.append(t)


def _canonical_child_form(
    rows: Tuple[int, ...], parent_nbrs: List[List[int]]
) -> Optional[Tuple[int, bytes]]:
    """The canonical key of ``rows`` and its automorphism generators,
    relabeled through the canonical order and packed, if its last vertex u
    is a canonical deletion vertex; else None.  ``parent_nbrs`` are the
    neighbour lists of the parent, the graph without u.

    The candidates are the vertices of largest invariant (degree, sorted
    neighbour degrees); u must be one.  The canonical candidate w* is the
    one the canonical order places first, and u passes iff it lies in w*'s
    orbit.  Every class has such a vertex, and deleting it leaves a level
    representative's class, so the class is reached from that parent.

    The search starts from the child's root partition, computed once, and
    u is rejected with no search unless its root colour is the least among
    the candidates'.  That is exact: a leaf order lists the vertices by
    increasing root colour, so w* has the least one, and automorphisms keep
    root colours, so a vertex of another colour is not in w*'s orbit.
    """
    u = len(rows) - 1
    deg = [row.bit_count() for row in rows]
    d = deg[u]
    if max(deg) > d:
        return None
    # Sorted neighbour-degree lists of one length d order like the vectors
    # of negated counts per degree 0..d, so those stand in for the lists.
    by_degree = [0] * (d + 1)
    for v, k in enumerate(deg):
        by_degree[k] |= 1 << v
    top = [-(rows[u] & mask).bit_count() for mask in by_degree]
    tied = [u]
    for w in range(u):
        if deg[w] == d:
            key = [-(rows[w] & mask).bit_count() for mask in by_degree]
            if key > top:
                return None
            if key == top:
                tied.append(w)
    # the child's neighbour lists: u is the largest vertex, so appending it
    # keeps each list sorted
    new = bit_list(rows[u])
    nbrs = parent_nbrs + [new]
    for v in new:
        nbrs[v] = nbrs[v] + [u]
    colors, count = root_partition(nbrs)
    least = min(colors[w] for w in tied)
    if colors[u] != least:
        return None
    key, order, generators = labeling_from_root(rows, nbrs, colors, count)
    first = next(w for w in order if colors[w] == least)
    if first != u:
        orbit: Set[int] = set()
        _mark_orbit(1 << u, [[1 << w for w in gamma] for gamma in generators], orbit)
        if 1 << first not in orbit:
            return None
    # relabel so that order[i] becomes i, as in the rows ``key`` unpacks to
    position = [0] * (u + 1)
    for i, v in enumerate(order):
        position[v] = i
    return key, bytes(position[gamma[v]] for gamma in generators for v in order)


def _expand_chunk(args) -> List[Tuple[int, bytes]]:
    """The kept children of ``parents``, (key, packed generators) pairs of
    n-vertex classes, under cap r."""
    parents, (n, r) = args
    return [
        kept
        for key, generators in parents
        for kept in _child_canons(graph6.unpack(n, key), generators, r)
    ]


def _fan_out(chunk_fn, items: list, arg, workers: int) -> list:
    """``chunk_fn((chunk, arg))`` for each chunk ``items[i::workers]``, one
    worker process per chunk; a single in-process call on all of ``items``
    when ``workers`` is 1 or there are no more items than workers."""
    if workers > 1 and len(items) > workers:
        import multiprocessing  # only parallel runs pay for the import

        with multiprocessing.Pool(workers) as pool:
            return pool.map(chunk_fn, [(items[i::workers], arg) for i in range(workers)])
    return [chunk_fn((items, arg))]


def _expand_level(parents: Level, r: int, workers: int) -> Level:
    """The next level from this one, in canonical-form order.  Each child
    comes with its canonical key and generators, so no parent is searched
    again; a parent's rows are unpacked from its key when it is expanded.
    For one n the keys order like the canonical forms, so equal neighbours
    after the sort are the exact duplicate-class check."""
    items = list(zip(parents.keys, parents.generators))
    arg = (parents.n, r)
    children = [kept for part in _fan_out(_expand_chunk, items, arg, workers) for kept in part]
    children.sort(key=itemgetter(0))
    keys = [key for key, _ in children]
    generators = [packed for _, packed in children]
    del children
    n = parents.n + 1
    repeated = next((a for a, b in zip(keys, islice(keys, 1, None)) if a == b), None)
    if repeated is not None:
        raise InternalConsistencyError(
            f"class {graph6.pack(n, repeated)} generated twice: automorphism generators were missed"
        )
    return Level(n, keys, generators)


def class_keys(n: int, r: int, workers: int = 1) -> List[int]:
    """The canonical key of each isomorphism class of graphs on ``n``
    vertices with maximum degree at most ``r``, in increasing order:
    ``graph6.pack(n, key)`` is the class's canonical form, and
    ``graph6.unpack(n, key)`` the rows of its representative."""
    return _level(n, r, workers).keys


def generate(n: int, r: int, workers: int = 1) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on ``n`` vertices
    with maximum degree at most ``r``, in canonical-form order, each
    unpacked from its key as it is read.  The rows are those of a
    canonical graph6 string, so they are not checked again."""
    trusted, unpack = Graph._trusted, graph6.unpack
    return (trusted(unpack(n, key)) for key in class_keys(n, r, workers))


def _level(n: int, r: int, workers: int = 1) -> Level:
    """The class table: every (n, r) level is built once, from the level
    below, and kept.  A cap above n - 1 is clamped, so any cap may be asked
    for."""
    if n > GENERATION_MAX_VERTICES:
        raise CapacityError(f"exhaustive generation capped at n <= {GENERATION_MAX_VERTICES}")
    if r < 0 or n < 0:
        raise ValueError("n and r must be nonnegative")
    r = min(r, max(n - 1, 0))
    key = (n, r)
    if key in _class_cache:
        return _class_cache[key]
    wider = next((c for (cn, cr), c in _class_cache.items() if cn == n and cr > r), None)
    if wider is not None:
        # a wider cached level filters down without regenerating
        kept = [i for i, k in enumerate(wider.keys) if max(graph6.degrees(n, k)) <= r]
        level = Level(n, [wider.keys[i] for i in kept], [wider.generators[i] for i in kept])
    elif n <= 1:
        level = Level(n, [0], [b""])
    else:
        level = _expand_level(_level(n - 1, r, workers), r, workers)
    _class_cache[key] = level
    return level


def generate_regular(n: int, d: int, workers: int = 1) -> Iterator[Graph]:
    """Exactly-d-regular graphs up to isomorphism.

    An odd n*d admits no d-regular graph; the stream is simply empty then.
    A negative n or d raises ValueError, whatever the parity.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if (n * d) % 2 == 1:
        return iter(())
    # only the regular classes are unpacked, one at a time
    degrees, trusted, unpack = graph6.degrees, Graph._trusted, graph6.unpack
    return (
        trusted(unpack(n, key))
        for key in class_keys(n, d, workers)
        if all(x == d for x in degrees(n, key))
    )


# ---------------------------------------------------------------------------
# extremal-bound verification


@dataclass(frozen=True)
class VerificationReport:
    n: int
    r: int
    graph_count: int
    max_k: int
    bound: int
    extremal: Tuple[str, ...]  # canonical graph6 of all maximizers
    equality_matches_characterization: bool
    runtime_seconds: float = field(default=0.0, compare=False)

    @property
    def bound_holds(self) -> bool:
        return self.max_k <= self.bound


def expected_extremal_forms(n: int, r: int) -> Set[str]:
    """Canonical forms of the graphs characterized as equality cases."""
    a, b = divmod(n, r + 1)
    forms = {canonical_form(extremal_graph(n, r))}
    if r == 2 and a >= 1 and b in (1, 2):
        # (a - 1)K_3 u C_{3+b}: C4 or C5 in place of K_b and one triangle
        forms.add(canonical_form(disjoint_union(extremal_graph(n - 3 - b, 2), cycle(3 + b))))
    return forms


def verify_main(n: int, caps: Sequence[int], workers: int = 1) -> List[VerificationReport]:
    """One report per degree cap r in ``caps``, in that order: the observed
    clique-count maximum over the classes with max degree <= r (and its
    achievers), against the predicted bound and equality characterization.

    The widest cap's level is walked once and each class counted once.  A
    class of maximum degree d counts under every cap r >= d, so the classes
    are tallied per d; the widest cap admits them all, so d is read only if
    a narrower cap is asked for.  Maximizers are kept as Graphs and encoded
    once, at the end, and every report carries the time of the whole pass.
    """
    t0 = time.monotonic()
    split = min(caps) < max(caps)
    # per maximum degree d (all at 0 unless split): classes, max k, maximizers
    size, best, winners = [0] * (n + 1), [0] * (n + 1), [[] for _ in range(n + 1)]
    for g in generate(n, max(caps), workers):
        k = clique_count(g.adj, g.vertex_mask)
        d = g.max_degree() if split else 0
        size[d] += 1
        if k > best[d]:
            best[d], winners[d] = k, [g]
        elif k == best[d]:
            winners[d].append(g)
    forms = [[graph6.encode(g) for g in group] for group in winners]
    found = []
    for r in caps:
        admitted = range(min(r, n) + 1)
        max_k = max(best[d] for d in admitted)
        extremal = tuple(sorted(f for d in admitted if best[d] == max_k for f in forms[d]))
        bound = main_bound(n, r)
        matches = max_k == bound and set(extremal) == expected_extremal_forms(n, r)
        found.append((r, sum(size[d] for d in admitted), max_k, bound, extremal, matches))
    runtime = time.monotonic() - t0
    return [VerificationReport(n, *fields, runtime_seconds=runtime) for fields in found]


# ---------------------------------------------------------------------------
# consistency sweep


@dataclass
class SweepReport:
    n_max: int
    r_max: int
    tallies: Dict[str, List[int]]  # predicate -> [applicable, passed, failed]
    failures: List[dict]  # every failed record, with a graph6 witness

    def failures_for(self, predicate: str) -> List[dict]:
        return [f for f in self.failures if f["predicate"] == predicate]

    def to_jsonable(self) -> dict:
        return {
            "n_max": self.n_max,
            "r_max": self.r_max,
            "tallies": {k: list(v) for k, v in sorted(self.tallies.items())},
            "failures": self.failures,
        }

    def to_json(self) -> str:
        """Deterministic serialization; byte-identical across runs/workers."""
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


def _tally(tallies: Dict[str, List[int]], failures: List[dict],
           records: Sequence[ConsistencyRecord]) -> None:
    """Add ``records`` to the per-predicate tallies and append a failure
    dict for each failed one.  Its graph6 witness is left as None for the
    caller to fill in, so a graph is encoded only if something fails on it."""
    for rec in records:
        slot = tallies.setdefault(rec.predicate, [0, 0, 0])
        if rec.applicable:
            slot[0] += 1
            if rec.passed:
                slot[1] += 1
            else:
                slot[2] += 1
                failures.append(
                    {
                        "predicate": rec.predicate,
                        "graph6": None,
                        "subject": rec.subject,
                        "lhs": rec.lhs,
                        "rhs": rec.rhs,
                    }
                )


def _graph_records(g: Graph, kv: CliqueVector) -> List[ConsistencyRecord]:
    """Degree-cap-independent checks for one graph with clique vector ``kv``."""
    records = [double_counting_check(g, kv), zykov_check(g, kv)]
    breakdown = fixed_loss(g)
    records.append(max_bound_check(g, breakdown))
    records.append(degree_one_bound_check(g, breakdown))
    degrees = {g.degree(v) for v in range(g.n)} or {0}
    if len(degrees) == 1:
        d = degrees.pop()
        ivec = independent_vector(g)
        records.append(kahn_zhao_check(g, d, ivec))
        records.append(min_ind_check(g, d, ivec))
        records.extend(r for r in regular_independent_checks(g, d, ivec) if r.applicable)
    return records


def _vector_records(
    n: int, r: int, kv: CliqueVector, cluster_free: bool
) -> List[ConsistencyRecord]:
    """The checks under cap r that read only n, r and the clique vector
    ``kv`` of a graph on n vertices: the main bound and the per-size
    bounds, and with ``cluster_free`` the closing checks of a graph with no
    cluster of two or more vertices.  Those see no cluster that they read:
    the discharging check is then not applicable, and the others read only
    n, r and kv.  So every record of a pair whose cap is above the maximum
    degree (there is no tight clique then), and every closing record of a
    pair at the maximum degree with no such cluster, is a function of
    (r, kv, cluster_free).  No graph is passed, so ``_sweep_chunk``
    evaluates these once per distinct key."""
    records = [extremal_bound_check(n, r, kv.total)]
    records.extend(rec for rec in bounded_clique_checks(n, r, kv) if rec.applicable)
    if cluster_free:
        records.extend(_closing_records(n, r, kv, [], {}))
    return records


def _closing_records(
    n: int, r: int, kv: CliqueVector, clusters: list, fill_gains: Dict[int, int]
) -> List[ConsistencyRecord]:
    """The discharging check on the clusters of a graph on n vertices under
    cap r, and, when no cluster has two or more vertices, the strong
    inequalities and the chain bound on its clique vector ``kv``."""
    records = [discharging_check(n, r, clusters, fill_gains)]
    if r >= 2 and not any(cl.t >= 2 for cl in clusters):
        records.append(strong_inequalities(kv, n, r))
        records.append(chain_bound_check(n, r, kv.total))
    return records


def _tight_records(
    g: Graph, r: int, kv: CliqueVector, cores: Dict[int, ClassCore]
) -> Tuple[List[ConsistencyRecord], bool]:
    """The checks on the tight cliques of g under its maximum degree r, and
    whether no cluster has two or more vertices.  The closing checks on its
    clusters are among the records only if some cluster does: else they
    are the cluster-free ones of ``_vector_records``, which the caller
    tallies.  Each record comes from a predicate of ``bounds``,
    ``transform`` or ``structure``; this only picks which of them run.

    The tight cliques are read class by class (K, X): each nonempty T in K
    gets its per-T records, and the cluster T = K its own.  Every T fills X
    into the same graph, so a class counts one fill gain, on its cluster,
    given k(G), and none when K = X, the identity fill of a K_{r+1}
    component.  A class's core is the first in ``cores`` with its
    ``ClassCore.key`` in g.n-bit slots, so equal cores are counted once for
    all graphs on g.n vertices that share ``cores``."""
    k_total = kv.total
    adj = g.adj
    records = []
    clusters = []
    fill_gains: Dict[int, int] = {}
    for k, x, core in tight_classes(g, r):
        core = cores.setdefault(core.key(g.n), core)
        cluster = class_structure(adj, k, x, k, core)
        clusters.append(cluster)
        gain = fill_gains[k] = 0 if k == x else fill_gain(adj, cluster, k_total)
        t = k
        while t:
            ts = cluster if t == k else class_structure(adj, k, x, t, core)
            records.append(outside_degree_check(g, ts))
            records.extend(fill_checks(ts, k_total, gain))
            if ts.t >= 2 and ts.k2_components:
                records.append(k2_move_check(adj, ts, k_total))
            t = (t - 1) & k

    for cluster in clusters_among(g, r, clusters):
        gain = fill_gains[cluster.T]
        records.append(cluster_loss_check(cluster, gain))
        for c in range(2, cluster.t + 1):
            records.append(associated_low_weight_check(g, cluster, c, gain))

    cluster_free = not any(cluster.t >= 2 for cluster in clusters)
    if not cluster_free:
        records.extend(_closing_records(g.n, r, kv, clusters, fill_gains))
    return records, cluster_free


def _sweep_chunk(args) -> Tuple[Dict[str, List[int]], List[dict]]:
    """The tallies and failure dicts of the n-vertex classes with canonical
    ``keys``, each under every cap from its maximum degree up to ``r_max``.
    Each class is unpacked from its key when it is read.

    Each graph gets its cap-independent records and, under its maximum
    degree, its tight-clique records.  The records of ``_vector_records``
    are built once per distinct key (r, k-vector, closing records
    cluster-free) of the chunk: the last part holds above the maximum
    degree, and at it when no cluster has two or more vertices.  The chunk
    counts the pairs that hit each key and adds each key's tallies once,
    times that count, when it ends; the failure dicts are copied for every
    pair, so that each graph gets its own witness.  The class cores of
    ``_tight_records`` are shared likewise, one per distinct
    ``ClassCore.key``, so each is counted once per chunk.  A graph's
    graph6 witness is encoded only if one of its records fails."""
    keys, (n, r_max) = args
    tallies: Dict[str, List[int]] = {}
    failures: List[dict] = []
    # (r, k-vector, cluster-free) -> [pairs with the key, the (predicate,
    # applicable, passed, failed) tallies and the failure dicts of
    # _vector_records]
    memo: Dict[tuple, list] = {}
    # ClassCore.key -> the chunk's first core with that key
    cores: Dict[int, ClassCore] = {}
    trusted, unpack = Graph._trusted, graph6.unpack
    widest = min(r_max, n - 1)
    for key in keys:
        g = trusted(unpack(n, key))
        kv = clique_vector(g)
        top = g.max_degree()
        first = len(failures)
        _tally(tallies, failures, _graph_records(g, kv))
        for r in range(max(1, top), widest + 1):
            cluster_free = True
            if r == top:
                records, cluster_free = _tight_records(g, r, kv, cores)
                _tally(tallies, failures, records)
            shared = (r, kv.counts, cluster_free)
            part = memo.get(shared)
            if part is None:
                once: Dict[str, List[int]] = {}
                failed: List[dict] = []
                _tally(once, failed, _vector_records(n, r, kv, cluster_free))
                part = memo[shared] = [
                    0, tuple((pred, *slot) for pred, slot in once.items()), tuple(failed)
                ]
            part[0] += 1
            failures.extend(map(dict, part[2]))
        if len(failures) > first:
            g6 = graph6.encode(g)
            for failure in failures[first:]:
                failure["graph6"] = g6
    for hits, counts, _ in memo.values():
        for pred, a, p, f in counts:
            slot = tallies.setdefault(pred, [0, 0, 0])
            slot[0] += hits * a
            slot[1] += hits * p
            slot[2] += hits * f
    return tallies, failures


# the sweep's failure list is sorted by these keys of each record
_FAILURE_SORT_KEYS = ("predicate", "graph6", "subject")


def _merge(
    into: Tuple[Dict[str, List[int]], List[dict]],
    part: Tuple[Dict[str, List[int]], List[dict]],
) -> None:
    tallies, failures = into
    for pred, (a, p, f) in part[0].items():
        slot = tallies.setdefault(pred, [0, 0, 0])
        slot[0] += a
        slot[1] += p
        slot[2] += f
    failures.extend(part[1])


def consistency_sweep(
    n_max: int,
    r_max: int,
    workers: int = 1,
    checkpoint: Optional[str] = None,
) -> SweepReport:
    """Evaluate every predicate over all graphs with n <= n_max under every
    applicable degree cap r <= r_max.

    The report is deterministic: tallies are keyed by predicate id and the
    failure list is sorted, so serialized output is byte-identical across
    runs, worker counts, and checkpoint restarts.  With ``checkpoint``,
    completed per-n units are appended to the file and skipped on restart.
    """
    if n_max > SWEEP_MAX_VERTICES:
        raise CapacityError(f"full consistency sweeps are capped at n_max <= {SWEEP_MAX_VERTICES}")
    done: Dict[int, Tuple[Dict[str, List[int]], List[dict]]] = {}
    if checkpoint is not None:
        done = _load_checkpoint(checkpoint, r_max)
    tallies: Dict[str, List[int]] = {}
    failures: List[dict] = []
    for n in range(1, n_max + 1):
        if n in done:
            unit = done[n]
        else:
            unit = _sweep_unit(n, r_max, workers)
            if checkpoint is not None:
                emitted = len(class_keys(n, r_max))
                _append_checkpoint(checkpoint, n, r_max, emitted, unit)
        _merge((tallies, failures), unit)
    failures.sort(key=itemgetter(*_FAILURE_SORT_KEYS))
    return SweepReport(n_max=n_max, r_max=r_max, tallies=tallies, failures=failures)


def _sweep_unit(n: int, r_max: int, workers: int) -> Tuple[Dict[str, List[int]], List[dict]]:
    """The tallies and failure dicts of the n-vertex classes.  Workers are
    handed the classes' keys, and each unpacks one class at a time."""
    unit: Tuple[Dict[str, List[int]], List[dict]] = ({}, [])
    for part in _fan_out(_sweep_chunk, class_keys(n, r_max, workers), (n, r_max), workers):
        _merge(unit, part)
    return unit


# checkpoint format: '#'-prefixed header, then one JSON object per line with
# keys n / r_max / emitted (isomorphism classes processed) / tallies /
# failures describing one completed per-n unit.  On restart, lines whose
# r_max differs from the running sweep are ignored.
_CHECKPOINT_HEADER = "# cliquebound consistency-sweep checkpoint v1: one JSON line per finished n (keys: n, r_max, emitted, tallies, failures)"


def _append_checkpoint(path: str, n: int, r_max: int, emitted: int, unit) -> None:
    line = json.dumps(
        {"n": n, "r_max": r_max, "emitted": emitted, "tallies": unit[0], "failures": unit[1]},
        sort_keys=True,
        separators=(",", ":"),
    )
    write_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if write_header:
            fh.write(_CHECKPOINT_HEADER + "\n")
        fh.write(line + "\n")


def _load_checkpoint(path: str, r_max: int) -> Dict[int, Tuple[Dict[str, List[int]], List[dict]]]:
    """Finished units recorded in ``path``.

    A write cut short leaves an unterminated last line.  It is cut off the
    file, so its unit is redone and the next append starts on a line of its
    own.  Any complete line that is not a finished-unit record raises
    ValueError naming its 1-based line number.
    """
    done: Dict[int, Tuple[Dict[str, List[int]], List[dict]]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        data = fh.read()
    intact = data[: data.rfind(b"\n") + 1]
    if len(intact) < len(data):
        os.truncate(path, len(intact))
    for number, line in enumerate(intact.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith(b"#"):
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
            n, unit_r_max, unit = entry["n"], entry["r_max"], (entry["tallies"], entry["failures"])
            _check_unit_types(n, unit_r_max, unit)
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"checkpoint {path}, line {number}: not a finished-unit record") from None
        if unit_r_max == r_max:
            done[n] = unit
    return done


def _check_unit_types(n, r_max, unit) -> None:
    """Raise TypeError unless a checkpoint record's values have the types
    that ``_merge``, the failure sort and the report read: integer n and
    r_max, tallies mapping names to three integers, failures objects with
    string sort keys and integer sides."""
    tallies, failures = unit
    if not (
        type(n) is int
        and type(r_max) is int
        and isinstance(tallies, dict)
        and all(
            isinstance(counts, list) and len(counts) == 3 and all(type(c) is int for c in counts)
            for counts in tallies.values()
        )
        and isinstance(failures, list)
        and all(
            isinstance(f, dict)
            and all(isinstance(f.get(key), str) for key in _FAILURE_SORT_KEYS)
            and type(f.get("lhs")) is int
            and type(f.get("rhs")) is int
            for f in failures
        )
    ):
        raise TypeError("checkpoint record has values of the wrong type")
