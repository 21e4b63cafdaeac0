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
class needs as a parent: the child's rows and automorphism generators are
relabeled through the canonical order and kept with the class, so no parent
is searched again and no form is decoded.  Level representatives are the
canonically relabeled graphs, so the output stream is independent of worker
count and iteration order.  The (n, r) levels form one cached table of
representatives and their packed generators: each level is built once, from
the cached level below.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import graph6
from .bounds import (
    associated_low_weight_check,
    bounded_clique_checks,
    cluster_loss_check,
    discharging_check,
    kahn_zhao_check,
    main_bound,
    min_ind_check,
    regular_independent_checks,
    strong_chain_bound,
    strong_inequalities,
    zykov_check,
)
from .canon import canonical_form, labeling_from_root, root_partition
from .counting import CliqueVector, clique_count, clique_vector, independent_vector, weight_sums
from .errors import CapacityError, InternalConsistencyError
from .fixed_loss import degree_one_bound_check, fixed_loss, max_bound_check
from .graphs import Graph, bit_list, complete, cycle, disjoint_union, extremal_graph
from .records import ConsistencyRecord
from .structure import clusters_among, outside_degree_check, tight_structures
from .transform import fill_gain, fill_profitable, gain_lower_bound, k2_gain

GENERATION_MAX_VERTICES = 12
SWEEP_MAX_VERTICES = 9


# ---------------------------------------------------------------------------
# generation


class Level(NamedTuple):
    """One (n, r) entry of the class table: the canonically labeled
    representatives, and for each the automorphism generators that its
    child labeling found, relabeled to match and packed as one ``bytes``
    of n-byte vertex maps (empty for an asymmetric class)."""

    graphs: List[Graph]
    generators: List[bytes]


_class_cache: Dict[Tuple[int, int], Level] = {}


def _child_canons(
    parent_rows: Tuple[int, ...], generators: bytes, r: int
) -> List[Tuple[str, Tuple[int, ...], bytes]]:
    """The canonical (form, rows, packed generators) of the one-vertex
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
    out: List[Tuple[str, Tuple[int, ...], bytes]] = []
    sub = eligible
    while True:
        size = sub.bit_count()
        if (top < size <= r or (size == top and not sub & crowded)) and sub not in seen:
            if images:
                _mark_orbit(sub, images, seen)
            child = tuple(
                row | new_bit if (sub >> v) & 1 else row
                for v, row in enumerate(parent_rows)
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
) -> Optional[Tuple[str, Tuple[int, ...], bytes]]:
    """The canonical form of ``rows``, its canonically relabeled rows and its
    packed automorphism generators, if its last vertex u is a canonical
    deletion vertex; else None.  ``parent_nbrs`` are the neighbour lists of
    the parent, the graph without u.

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
    form, order, generators = labeling_from_root(rows, nbrs, colors, count)
    first = next(w for w in order if colors[w] == least)
    if first != u:
        orbit: Set[int] = set()
        _mark_orbit(1 << u, [[1 << w for w in gamma] for gamma in generators], orbit)
        if 1 << first not in orbit:
            return None
    # relabel so that order[i] becomes i: the rows then encode to ``form``
    position = [0] * (u + 1)
    for i, v in enumerate(order):
        position[v] = i
    moved = [1 << i for i in position]  # the bit that vertex w's bit becomes
    relabeled = tuple([sum(map(moved.__getitem__, nbrs[v])) for v in order])
    packed = bytes(position[gamma[v]] for gamma in generators for v in order)
    return form, relabeled, packed


def _expand_chunk(args) -> List[Tuple[str, Tuple[int, ...], bytes]]:
    parents, r = args
    return [kept for rows, generators in parents for kept in _child_canons(rows, generators, r)]


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
    comes with its canonical rows and generators, so no class is decoded
    and no parent is searched again."""
    items = list(zip((g.adj for g in parents.graphs), parents.generators))
    children: list = [kept for part in _fan_out(_expand_chunk, items, r, workers) for kept in part]
    children.sort(key=itemgetter(0))
    repeated = next((a[0] for a, b in zip(children, children[1:]) if a[0] == b[0]), None)
    if repeated is not None:
        raise InternalConsistencyError(
            f"class {repeated} generated twice: automorphism generators were missed"
        )
    generators = [packed for _, _, packed in children]
    # each child becomes its Graph in place, so its form is freed as the
    # Graph is built and a level's forms and Graphs are never all held at once
    for i, (_, rows, _) in enumerate(children):
        children[i] = Graph(len(rows), rows)
    return Level(children, generators)


def generate(n: int, r: int, workers: int = 1) -> Iterator[Graph]:
    """One representative per isomorphism class of graphs on ``n`` vertices
    with maximum degree at most ``r``, in canonical-form order."""
    return iter(_classes(n, r, workers))


def _classes(n: int, r: int, workers: int = 1) -> List[Graph]:
    """The representatives of the (n, r) level of the class table."""
    return _level(n, r, workers).graphs


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
        kept = [i for i, g in enumerate(wider.graphs) if g.max_degree() <= r]
        level = Level([wider.graphs[i] for i in kept], [wider.generators[i] for i in kept])
    elif n <= 1:
        level = Level([Graph(n, (0,) * n)], [b""])
    else:
        level = _expand_level(_level(n - 1, r, workers), r, workers)
    _class_cache[key] = level
    return level


def generate_regular(n: int, d: int, workers: int = 1) -> Iterator[Graph]:
    """Exactly-d-regular graphs up to isomorphism.

    An odd n*d admits no d-regular graph; the stream is simply empty then.
    """
    if (n * d) % 2 == 1:
        return iter(())
    return iter(
        [g for g in _classes(n, d, workers) if all(g.degree(v) == d for v in range(g.n))]
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
    if r == 2 and a >= 1:
        if b == 1:
            g = cycle(4)
            for _ in range(a - 1):
                g = disjoint_union(complete(3), g)
            forms.add(canonical_form(g))
        elif b == 2:
            g = cycle(5)
            for _ in range(a - 1):
                g = disjoint_union(complete(3), g)
            forms.add(canonical_form(g))
    return forms


def verify_main(n: int, r: int, workers: int = 1) -> VerificationReport:
    """Sweep all isomorphism classes with max degree <= r and compare the
    observed clique-count maximum (and its achievers) to the predicted bound
    and equality characterization."""
    t0 = time.monotonic()
    cls = _classes(n, r, workers)
    bound = main_bound(n, r)
    max_k = 0
    extremal: List[str] = []
    for g in cls:
        k = clique_count(g.adj, g.vertex_mask)
        if k > max_k:
            max_k = k
            extremal = [graph6.encode(g)]
        elif k == max_k:
            extremal.append(graph6.encode(g))
    matches = max_k == bound and set(extremal) == expected_extremal_forms(n, r)
    return VerificationReport(
        n=n,
        r=r,
        graph_count=len(cls),
        max_k=max_k,
        bound=bound,
        extremal=tuple(sorted(extremal)),
        equality_matches_characterization=matches,
        runtime_seconds=time.monotonic() - t0,
    )


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


def _tally(tallies: Dict[str, List[int]], failures: List[dict], g6: str,
           records: Sequence[ConsistencyRecord]) -> None:
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
                        "graph6": g6,
                        "subject": rec.subject,
                        "lhs": rec.lhs,
                        "rhs": rec.rhs,
                    }
                )


def _double_counting_record(g: Graph, kv: CliqueVector) -> ConsistencyRecord:
    """t * k_t equals the weight sum over (t-1)-cliques, for every t >= 1."""
    sums = weight_sums(g)
    lhs = rhs = 0
    ok = True
    for t in range(1, kv.max_size + 2):
        left = t * kv[t]
        right = sums[t - 1] if t - 1 < len(sums) else 0
        if left != right:
            ok, lhs, rhs = False, left, right
            break
    return ConsistencyRecord("double_counting", f"n={g.n}", lhs, rhs, True, ok)


def _graph_records(g: Graph, kv: CliqueVector) -> List[ConsistencyRecord]:
    """Degree-cap-independent checks for one graph with clique vector ``kv``."""
    records = [_double_counting_record(g, kv), zykov_check(g, kv)]
    breakdown = fixed_loss(g)
    records.append(max_bound_check(g, breakdown))
    records.append(degree_one_bound_check(g, breakdown))
    degrees = {g.degree(v) for v in range(g.n)} or {0}
    if len(degrees) == 1:
        d = degrees.pop()
        ivec = independent_vector(g)
        records.append(kahn_zhao_check(g, d, ivec))
        records.append(min_ind_check(g, d, ivec))
        recs = regular_independent_checks(g, d, ivec)
        records.extend(r for r in recs if r.applicable)
    return records


def _capped_records(g: Graph, r: int, kv: CliqueVector) -> List[ConsistencyRecord]:
    """Checks for one graph, with clique vector ``kv``, under one cap r >= max degree."""
    records: List[ConsistencyRecord] = []
    k_total = kv.total

    bound = main_bound(g.n, r)
    records.append(
        ConsistencyRecord(
            "extremal_bound", f"n={g.n},r={r}", k_total, bound, True, k_total <= bound
        )
    )
    records.extend(rec for rec in bounded_clique_checks(g, r, kv) if rec.applicable)

    tights = tight_structures(g, r)
    fill_gains = {}
    # every T of a class fills T u S = X into the same graph: one count per X
    class_gains = {}
    for ts in tights:
        subject = f"r={r},T={ts.T:#x}"
        records.append(outside_degree_check(g, ts))
        x = ts.T | ts.S
        if x not in class_gains:
            class_gains[x] = fill_gain(g.adj, ts)
        gain = fill_gains[ts.T] = class_gains[x]
        k_after = k_total + gain
        lower = gain_lower_bound(ts)
        records.append(
            ConsistencyRecord(
                "fill_gain_lower_bound",
                subject,
                k_total + lower,
                k_after,
                True,
                k_after >= k_total + lower,
            )
        )
        profitable = fill_profitable(ts, lower)
        if profitable.literal:
            records.append(
                ConsistencyRecord("fill_threshold_literal", subject, gain, 1, True, gain > 0)
            )
        if profitable.corrected:
            records.append(
                ConsistencyRecord("fill_threshold_corrected", subject, gain, 1, True, gain > 0)
            )
        if ts.t >= 2 and ts.k2_components:
            k2_after = k_total + k2_gain(g.adj, ts)
            records.append(
                ConsistencyRecord(
                    "k2_move_gain", subject, k2_after, k_total, True, k2_after > k_total
                )
            )

    for cluster in clusters_among(g, r, tights):
        gain = fill_gains[cluster.T]
        rec = cluster_loss_check(cluster, gain)
        if rec.applicable and cluster.t == 1:
            rec = ConsistencyRecord(
                "cluster_large_loss_size1", rec.subject, rec.lhs, rec.rhs,
                True, rec.passed, rec.detail,
            )
        records.append(rec)
        for c in range(2, cluster.t + 1):
            records.append(associated_low_weight_check(g, cluster, c, gain))

    records.append(discharging_check(g, r, tights, fill_gains))

    if r >= 2 and not any(ts.t >= 2 for ts in tights):
        strong = strong_inequalities(kv, r)
        records.append(
            ConsistencyRecord(
                "strong_from_no_tight",
                f"n={g.n},r={r}",
                sum(rec.lhs for rec in strong),
                sum(rec.rhs for rec in strong),
                True,
                all(rec.passed for rec in strong),
            )
        )
        chain = strong_chain_bound(g.n, r)
        records.append(
            ConsistencyRecord(
                "chain_bound_no_tight",
                f"n={g.n},r={r}",
                k_total * chain.denominator,
                chain.numerator,
                True,
                k_total * chain.denominator <= chain.numerator,
            )
        )
    return records


def _sweep_chunk(args) -> Tuple[Dict[str, List[int]], List[dict]]:
    graphs, r_max = args
    tallies: Dict[str, List[int]] = {}
    failures: List[dict] = []
    for g in graphs:
        g6 = graph6.encode(g)
        kv = clique_vector(g)
        _tally(tallies, failures, g6, _graph_records(g, kv))
        for r in range(max(1, g.max_degree()), min(r_max, g.n - 1) + 1):
            _tally(tallies, failures, g6, _capped_records(g, r, kv))
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
                emitted = len(_classes(n, r_max))
                _append_checkpoint(checkpoint, n, r_max, emitted, unit)
        _merge((tallies, failures), unit)
    failures.sort(key=itemgetter(*_FAILURE_SORT_KEYS))
    return SweepReport(n_max=n_max, r_max=r_max, tallies=tallies, failures=failures)


def _sweep_unit(n: int, r_max: int, workers: int) -> Tuple[Dict[str, List[int]], List[dict]]:
    unit: Tuple[Dict[str, List[int]], List[dict]] = ({}, [])
    for part in _fan_out(_sweep_chunk, _classes(n, r_max, workers), r_max, workers):
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
    for number, line in enumerate(intact.decode("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            entry = json.loads(line)
            n, unit_r_max, unit = entry["n"], entry["r_max"], (entry["tallies"], entry["failures"])
            _check_unit_types(n, unit_r_max, unit)
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"checkpoint {path}, line {number}: not a finished-unit record") from None
        if unit_r_max == r_max:
            done[n] = unit
    return done


def _check_unit_types(n, r_max, unit) -> None:
    """Raise TypeError unless a checkpoint record's values have the types
    that ``_merge`` and the failure sort read: integer n and r_max, tallies
    mapping names to three integers, failures objects with string sort keys."""
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
            isinstance(f, dict) and all(isinstance(f.get(key), str) for key in _FAILURE_SORT_KEYS)
            for f in failures
        )
    ):
        raise TypeError("checkpoint record has values of the wrong type")
