"""Clique-increasing rewrites and a greedy hill climber built from them.

The clique-fill rewrite turns T u S into a K_{r+1} by adding every missing
pair inside S and cutting all edges from S to the rest of the graph.  The
K2 move is the cheaper variant available when the deficiency graph has a
K_2 component: add that one edge and cut the two endpoints loose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .counting import clique_vector, cliques_meeting
from .errors import InternalConsistencyError
from .graphs import Graph, bit_list, bits, connected_components
from .structure import TightStructure, derive, tight_cliques


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


@dataclass(frozen=True)
class Profitability:
    """Both readings of the strict-gain threshold for the fill rewrite.

    ``literal`` uses denominator 2^s - i(R) + s + 1 as printed; ``corrected``
    uses 2^s - i(R), which is exactly the condition that the proven gain
    lower bound is positive.  The two disagree on real inputs (C_4 with a
    singleton tight clique is a witness), so both are exposed.
    """

    literal: bool
    corrected: bool


def _fill_rows(adj, ts: TightStructure) -> List[int]:
    """Rows after the fill: each S row becomes (T|S) - x, and S is cut off
    from every vertex outside T u S.  Postconditions asserted on the rows."""
    inside = ts.T | ts.S
    rows = list(adj)
    for x in bits(ts.S):
        for y in bits(adj[x] & ~inside):
            rows[y] &= ~(1 << x)
        rows[x] = inside & ~(1 << x)
    assert inside.bit_count() == ts.r + 1
    assert all(rows[v] == inside & ~(1 << v) for v in bits(inside))
    assert max(row.bit_count() for row in rows) <= ts.r
    return rows


def fill_graph(g: Graph, ts: TightStructure) -> Graph:
    """The rewritten graph itself, postconditions asserted, no counting."""
    return Graph(g.n, tuple(_fill_rows(g.adj, ts)))


def apply_fill(g: Graph, ts: TightStructure, k_before: int) -> RewriteReport:
    """Fill S into a clique with T and cut S off from the rest.  The caller
    passes k(g) as ``k_before``; only the rewritten graph is counted."""
    after = fill_graph(g, ts)
    return RewriteReport(
        after=after,
        move="fill",
        k_before=k_before,
        k_after=clique_vector(after).total,
        gain_lower_bound=gain_lower_bound(ts),
        tight_structure=ts,
    )


def _k2_components(ts: TightStructure) -> List[int]:
    """K_2 components of R, as masks in original G labels."""
    out = []
    for comp in connected_components(ts.R):
        if comp.bit_count() == 2:
            i, j = bit_list(comp)
            if ts.R.has_edge(i, j):
                out.append((1 << ts.label_map[i]) | (1 << ts.label_map[j]))
    return out


def _k2_rows(adj, ts: TightStructure, pair: int) -> List[int]:
    """Rows after the K2 move on ``pair``: add its missing edge and cut both
    endpoints off from every vertex outside T u S."""
    inside = ts.T | ts.S
    rows = list(adj)
    for x in bits(pair):
        for y in bits(adj[x] & ~inside):
            rows[y] &= ~(1 << x)
        rows[x] = (adj[x] & inside) | (pair & ~(1 << x))
    assert max(row.bit_count() for row in rows) <= ts.r
    return rows


def apply_k2_move(g: Graph, ts: TightStructure, k_before: int) -> RewriteReport:
    """Add the missing edge of a K_2 component of R and cut its endpoints
    off from everything outside T u S.  The strict clique gain is checked,
    not assumed; a non-gain is surfaced via the report.  ``k_before`` is k(g)."""
    if ts.t < 2:
        raise ValueError("the K2 move needs a tight clique of size >= 2")
    comps = _k2_components(ts)
    if not comps:
        raise ValueError("the deficiency graph has no K_2 component")
    after = Graph(g.n, tuple(_k2_rows(g.adj, ts, comps[0])))
    return RewriteReport(
        after=after,
        move="k2",
        k_before=k_before,
        k_after=clique_vector(after).total,
        gain_lower_bound=gain_lower_bound(ts),
        tight_structure=ts,
    )


def gain_lower_bound(ts: TightStructure) -> int:
    """Proven lower bound on the clique-count change of the fill rewrite:
    2^(r+1) - 2^t i(R) - phi(R)."""
    return (1 << (ts.r + 1)) - (1 << ts.t) * ts.i_R - ts.phi


def fill_profitable(ts: TightStructure) -> Profitability:
    """Evaluate both strict-gain thresholds in exact cross-multiplied form."""
    t, s, i_r, phi = ts.t, ts.s, ts.i_R, ts.phi
    literal_denominator = (1 << s) - i_r + s + 1
    if literal_denominator <= 0:
        raise ValueError("literal threshold needs a positive denominator")
    return Profitability(
        literal=(1 << t) * literal_denominator > phi,
        corrected=(1 << t) * ((1 << s) - i_r) > phi,
    )


def _local_gain(before, after, xs: int) -> int:
    """k(after) - k(before) for two row sets that differ only in edges at
    ``xs``: every clique avoiding ``xs`` is in both."""
    return cliques_meeting(after, xs) - cliques_meeting(before, xs)


def hill_climb(g: Graph, r: int, max_steps: int = 64) -> List[RewriteReport]:
    """Greedy local search over the two rewrites.

    K2 moves are exhausted before fill moves (mirroring how the K_2
    deficiency components are eliminated first in the underlying argument);
    within a move class the strictly improving rewrite with the largest
    gain wins, ties broken by lexicographically least tight clique.
    Moves that leave the count unchanged are never taken, so the
    C_4 / K_3 u K_1 equality family cannot cycle.

    Candidates are scored on adjacency rows by a local count: a fill
    changes edges only at S and a K2 move only at its pair, so the gain is
    the change in the number of cliques meeting that set.  Only the move
    taken is built as a Graph and counted in full, through ``apply_k2_move``
    or ``apply_fill``; a full count that disagrees with the local one
    raises InternalConsistencyError.
    """
    if g.max_degree() > r:
        raise ValueError("hill climbing needs the degree cap to hold")
    trace: List[RewriteReport] = []
    current, k_current = g, clique_vector(g).total
    for _ in range(max_steps):
        adj = current.adj
        # (move class, -gain, T, structure): K2 moves sort before fills
        scored = []
        for tight in tight_cliques(current, r, 1):
            ts = derive(current, r, tight)
            comps = _k2_components(ts) if ts.t >= 2 else []
            if comps:
                gain = _local_gain(adj, _k2_rows(adj, ts, comps[0]), comps[0])
                scored.append((0, -gain, ts.T, ts))
            gain = _local_gain(adj, _fill_rows(adj, ts), ts.S)
            scored.append((1, -gain, ts.T, ts))
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
