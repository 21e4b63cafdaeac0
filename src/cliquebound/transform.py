"""Clique-increasing rewrites and a greedy hill climber built from them.

The clique-fill rewrite turns T u S into a K_{r+1} by adding every missing
pair inside S and cutting all edges from S to the rest of the graph.  The
K2 move is the cheaper variant available when the deficiency graph has a
K_2 component: add that one edge and cut the two endpoints loose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from .counting import clique_vector
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


def _rewrite_edges(g: Graph, ts: TightStructure) -> Tuple[list, list]:
    inside = ts.T | ts.S
    added = [
        (u, v)
        for u, v in combinations(bit_list(ts.S), 2)
        if not g.has_edge(u, v)
    ]
    removed = [
        (u, v)
        for u in bits(ts.S)
        for v in bits(g.adj[u] & ~inside)
    ]
    return added, removed


def fill_graph(g: Graph, ts: TightStructure) -> Graph:
    """The rewritten graph itself, postconditions asserted, no counting."""
    added, removed = _rewrite_edges(g, ts)
    after = g.without_edges(removed).with_edges(added)
    inside, r = ts.T | ts.S, ts.r
    assert after.is_clique(inside) and inside.bit_count() == r + 1
    assert all(after.degree(v) == r for v in bits(inside))
    assert after.max_degree() <= r
    return after


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


def apply_k2_move(g: Graph, ts: TightStructure, k_before: int) -> RewriteReport:
    """Add the missing edge of a K_2 component of R and cut its endpoints
    off from everything outside T u S.  The strict clique gain is checked,
    not assumed; a non-gain is surfaced via the report.  ``k_before`` is k(g)."""
    if ts.t < 2:
        raise ValueError("the K2 move needs a tight clique of size >= 2")
    comps = _k2_components(ts)
    if not comps:
        raise ValueError("the deficiency graph has no K_2 component")
    pair = comps[0]
    u, v = bit_list(pair)
    inside = ts.T | ts.S
    removed = [
        (x, y) for x in (u, v) for y in bits(g.adj[x] & ~inside)
    ]
    after = g.without_edges(removed).with_edges([(u, v)])
    assert after.max_degree() <= ts.r
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


def hill_climb(g: Graph, r: int, max_steps: int = 64) -> List[RewriteReport]:
    """Greedy local search over the two rewrites, by actual recount.

    K2 moves are exhausted before fill moves (mirroring how the K_2
    deficiency components are eliminated first in the underlying argument);
    within a move class the strictly improving rewrite with the largest
    actual gain wins, ties broken by lexicographically least tight clique.
    Moves that leave the count unchanged are never taken, so the
    C_4 / K_3 u K_1 equality family cannot cycle.
    """
    if g.max_degree() > r:
        raise ValueError("hill climbing needs the degree cap to hold")
    trace: List[RewriteReport] = []
    current, k_current = g, clique_vector(g).total
    for _ in range(max_steps):
        best_k2: Optional[RewriteReport] = None
        best_fill: Optional[RewriteReport] = None

        def better(report, incumbent) -> bool:
            if incumbent is None:
                return True
            return (-report.gain, report.tight_structure.T) < (
                -incumbent.gain,
                incumbent.tight_structure.T,
            )

        for tight in tight_cliques(current, r, 1):
            ts = derive(current, r, tight)
            if ts.t >= 2 and _k2_components(ts):
                report = apply_k2_move(current, ts, k_current)
                if report.gain > 0 and better(report, best_k2):
                    best_k2 = report
            report = apply_fill(current, ts, k_current)
            if report.gain > 0 and better(report, best_fill):
                best_fill = report
        best = best_k2 if best_k2 is not None else best_fill
        if best is None:
            break
        trace.append(best)
        current, k_current = best.after, best.k_after
    return trace
