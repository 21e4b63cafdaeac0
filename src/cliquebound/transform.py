"""Clique-increasing rewrites and a greedy hill climber built from them.

The clique-fill rewrite turns T u S into a K_{r+1} by adding every missing
pair inside S and cutting all edges from S to the rest of the graph.  The
K2 move is the cheaper variant available when the deficiency graph has a
K_2 component: add that one edge and cut the two endpoints loose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .counting import clique_count, clique_vector, cliques_meeting
from .errors import InternalConsistencyError
from .graphs import Graph, bit_list
from .records import ConsistencyRecord
from .structure import TightStructure, class_structure, tight_classes

# the hill climber's cap on moves taken
MAX_STEPS = 64


@dataclass(frozen=True)
class RewriteReport:
    after: Graph
    move: str  # "fill" | "k2"
    k_before: int
    k_after: int
    gain_lower_bound: int
    tight_structure: TightStructure

    @property
    def gain(self) -> int:
        return self.k_after - self.k_before


def _check_cap(rows, ts: TightStructure, move: str) -> None:
    """Raise unless every row of the rewritten graph keeps the degree cap."""
    if max(row.bit_count() for row in rows) > ts.r:
        raise InternalConsistencyError(f"{move} at T={ts.T:#x} breaks the degree cap {ts.r}")


def _fill_rows(adj, ts: TightStructure) -> List[int]:
    """Rows after the fill: each S row becomes (T|S) - x, and S is cut off
    from every vertex outside T u S.  Postconditions checked on the rows;
    a structure whose S is not the common neighborhood of T fails them."""
    inside = ts.T | ts.S
    rows = list(adj)
    for x in bit_list(ts.S):
        for y in bit_list(adj[x] & ~inside):
            rows[y] &= ~(1 << x)
        rows[x] = inside & ~(1 << x)
    if inside.bit_count() != ts.r + 1 or any(
        rows[v] != inside & ~(1 << v) for v in bit_list(inside)
    ):
        raise InternalConsistencyError(
            f"fill at T={ts.T:#x} leaves T u S no K_{ts.r + 1} component"
        )
    _check_cap(rows, ts, "fill")
    return rows


def _report(g: Graph, rows, move: str, ts: TightStructure, k_before: int) -> RewriteReport:
    """The rewritten graph built from ``rows`` and counted in full."""
    after = Graph(g.n, tuple(rows))
    return RewriteReport(
        after, move, k_before, clique_vector(after).total, gain_lower_bound(ts), ts
    )


def fill_gain(adj, ts: TightStructure, k_total: int) -> int:
    """k(G') - k(G) for the fill of ``ts``, on the adjacency rows of a graph
    G with k_total cliques: the fill changes edges only at S and leaves
    T u S a K_{r+1} component, whose 2^(r+1) - 2^t subsets meeting S are
    then the cliques meeting S.

    The cliques of G that meet S are counted on the smaller side: as
    k_total - k(G - S), one count of the vertices outside S, when there
    are at most r + 1 of them, and else as ``cliques_meeting``, one count
    per member of S, each on a neighbourhood of at most r vertices.

    Every T of a class (K, X) has T u S = X, so every T of the class fills X
    into the same graph, with the same gain.  K = X exactly when X is
    already a K_{r+1} component: that fill is the identity and gains 0, and
    callers skip it rather than count it here."""
    n = len(adj)
    if n - ts.s <= ts.r + 1:
        meeting = k_total - clique_count(adj, ((1 << n) - 1) & ~ts.S)
    else:
        meeting = cliques_meeting(adj, ts.S)
    return (1 << (ts.r + 1)) - (1 << ts.t) - meeting


def apply_fill(g: Graph, ts: TightStructure, k_before: int) -> RewriteReport:
    """Fill S into a clique with T and cut S off from the rest.  The caller
    passes k(g) as ``k_before``; only the rewritten graph is counted."""
    return _report(g, _fill_rows(g.adj, ts), "fill", ts, k_before)


def _k2_pair(ts: TightStructure) -> int:
    """The pair the K2 move joins: the first K_2 component of R."""
    if ts.t < 2:
        raise ValueError("the K2 move needs a tight clique of size >= 2")
    if not ts.k2_components:
        raise ValueError("the deficiency graph has no K_2 component")
    return ts.k2_components[0]


def _k2_rows(adj, ts: TightStructure) -> List[int]:
    """Rows after the K2 move: add the missing edge of the first K_2
    component of R and cut both its endpoints off from every vertex
    outside T u S."""
    pair = _k2_pair(ts)
    inside = ts.T | ts.S
    rows = list(adj)
    for x in bit_list(pair):
        for y in bit_list(adj[x] & ~inside):
            rows[y] &= ~(1 << x)
        rows[x] = (adj[x] & inside) | (pair & ~(1 << x))
    _check_cap(rows, ts, "k2")
    return rows


def k2_gain(adj, ts: TightStructure) -> int:
    """k(G') - k(G) for the K2 move of ``ts``, on adjacency rows; the move
    changes edges only at its pair.  Afterwards both ends of the pair are
    adjacent to all of T u S and to nothing else, so the cliques meeting the
    pair number 3 k(G[T u S - pair]) = 3 2^t i(R - pair), the empty clique
    included.  The pair is a K_2 component of R, so i(R) = 3 i(R - pair)
    and that count is 2^t i(R)."""
    return (1 << ts.t) * ts.i_R - cliques_meeting(adj, _k2_pair(ts))


def apply_k2_move(g: Graph, ts: TightStructure, k_before: int) -> RewriteReport:
    """Add the missing edge of a K_2 component of R and cut its endpoints
    off from everything outside T u S.  The strict clique gain is checked,
    not assumed; a non-gain is surfaced via the report.  ``k_before`` is k(g)."""
    return _report(g, _k2_rows(g.adj, ts), "k2", ts, k_before)


def gain_lower_bound(ts: TightStructure) -> int:
    """Proven lower bound on the clique-count change of the fill rewrite:
    2^(r+1) - 2^t i(R) - phi(R)."""
    return (1 << (ts.r + 1)) - (1 << ts.t) * ts.i_R - ts.phi


def fill_checks(ts: TightStructure, k_total: int, gain: int) -> List[ConsistencyRecord]:
    """The fill's measured ``gain`` on a graph with k_total cliques against
    the proven lower bound, plus a record for each reading of the strict-gain
    threshold that predicts a gain, which must then be positive.

    ``fill_threshold_literal`` uses the denominator 2^s - i(R) + s + 1 as
    printed (a non-positive one raises ValueError); ``fill_threshold_corrected``
    uses 2^s - i(R), which is exactly the condition that the proven lower
    bound is positive.  The two disagree on real inputs (C_4 with a singleton
    tight clique is a witness), so both are checked.  Cross-multiplied by
    2^t, as 2^t 2^s = 2^(r+1), corrected is ``lower > 0`` and literal adds
    2^t (s + 1) to it."""
    if (1 << ts.s) - ts.i_R + ts.s + 1 <= 0:
        raise ValueError("literal threshold needs a positive denominator")
    subject = f"r={ts.r},T={ts.T:#x}"
    lower = gain_lower_bound(ts)
    records = [ConsistencyRecord(
        "fill_gain_lower_bound", subject, k_total + lower, k_total + gain, True, gain >= lower
    )]
    for predicate, predicts_gain in (
        ("fill_threshold_literal", lower + (1 << ts.t) * (ts.s + 1) > 0),
        ("fill_threshold_corrected", lower > 0),
    ):
        if predicts_gain:
            records.append(ConsistencyRecord(predicate, subject, gain, 1, True, gain > 0))
    return records


def k2_move_check(adj, ts: TightStructure, k_total: int) -> ConsistencyRecord:
    """The K2 move of ``ts``, on adjacency rows of a graph with k_total
    cliques, strictly increases the clique count."""
    k_after = k_total + k2_gain(adj, ts)
    return ConsistencyRecord(
        "k2_move_gain", f"r={ts.r},T={ts.T:#x}", k_after, k_total, True, k_after > k_total
    )


def hill_climb(g: Graph, r: int) -> List[RewriteReport]:
    """Greedy local search over the two rewrites.

    K2 moves are exhausted before fill moves (mirroring how the K_2
    deficiency components are eliminated first in the underlying argument);
    within a move class the strictly improving rewrite with the largest
    gain wins, ties broken by lexicographically least tight clique.
    Moves that leave the count unchanged are never taken, so the
    C_4 / K_3 u K_1 equality family cannot cycle.

    Candidates are scored on adjacency rows by ``k2_gain`` and
    ``fill_gain``, the latter given the current count.  Only the move
    taken is built as a Graph and counted in full, through
    ``apply_k2_move`` or ``apply_fill``; a full count that disagrees with
    the local one raises InternalConsistencyError.  At most ``MAX_STEPS``
    moves are taken.

    Candidates come from the classes (K, X) of ``tight_classes``, not
    from every tight clique.  Every nonempty T in K has T u S = X, so its
    fill builds the same graph with the same gain; and for |T| >= 2 its
    K2 move does too, since R's K_2 components lie in X - K and
    2^t i(R) = 2^|K| k(G[X - K]).  So each class scores one fill, at the
    least vertex of K, and at most one K2 move, at the two least vertices
    of K: the tight cliques the least-T tie-break picks among equal
    gains.  A class with K = X is a K_{r+1} component, where the fill is
    the identity and R is edgeless, and is not scored.
    """
    if g.max_degree() > r:
        raise ValueError("hill climbing needs the degree cap to hold")
    trace: List[RewriteReport] = []
    current, k_current = g, clique_vector(g).total
    for _ in range(MAX_STEPS):
        adj = current.adj
        # (move class, -gain, T, structure): K2 moves sort before fills
        scored = []
        for k, x, core in tight_classes(current, r):
            if k == x:
                continue
            low = k & -k
            rest = k ^ low
            if rest:
                pair = low | (rest & -rest)
                ts = class_structure(adj, k, x, pair, core)
                if ts.k2_components:
                    scored.append((0, -k2_gain(adj, ts), pair, ts))
            ts = class_structure(adj, k, x, low, core)
            scored.append((1, -fill_gain(adj, ts, k_current), low, ts))
        improving = [entry for entry in scored if entry[1] < 0]
        if not improving:
            break
        move_class, neg_gain, _, ts = min(improving, key=lambda entry: entry[:3])
        apply = apply_k2_move if move_class == 0 else apply_fill
        report = apply(current, ts, k_current)
        if report.k_after != k_current - neg_gain:
            raise InternalConsistencyError(
                f"{report.move} at T={ts.T:#x}: full count {report.k_after}, "
                f"local count {k_current - neg_gain}"
            )
        trace.append(report)
        current, k_current = report.after, report.k_after
    return trace
