"""The fixed-loss functional and its two extremal bounds.

For a graph R, the fixed loss is the sum of 2^(min degree over I) - 1 over
all nonempty independent sets I of R.  It upper-bounds the number of
cliques destroyed by the clique-fill rewrite whose deficiency graph is R.
A deficiency graph is the complement of some G[S], so it is counted on G's
rows as the cliques of G[S]; a graph given as R itself is read the same
way through its complement's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_list
from .records import ConsistencyRecord, not_applicable


@dataclass(frozen=True)
class FixedLossBreakdown:
    """The fixed loss phi, with what the two bound checks read beside it.

    ell = |L|, the number of degree-one vertices; s = |V(R)|.  weighted_sum
    is sum |I| * (2^(delta_I) - 1), the strengthened quantity from the
    complete-graph bound's proof.
    """

    phi: int
    ell: int
    s: int
    weighted_sum: int


def fixed_loss(r_graph: Graph) -> FixedLossBreakdown:
    """Exact fixed loss of the graph ``r_graph``, taken as R itself.

    A degree-0 vertex contributes 2^0 - 1 = 0, so graphs with no edges have
    fixed loss zero; the formula is applied literally.  The complement's
    rows are handed to ``fixed_loss_on_rows``; no Graph is built.
    """
    full = r_graph.vertex_mask
    rows = [full & ~row & ~(1 << v) for v, row in enumerate(r_graph.adj)]
    return fixed_loss_on_rows(rows, full)


def fixed_loss_on_rows(rows, mask: int) -> FixedLossBreakdown:
    """Exact fixed loss of R, the complement of the subgraph that the
    adjacency rows ``rows`` induce on ``mask``.

    The independent sets of R are the cliques of that subgraph, and the
    R-degree of x is |mask| - 1 - |N(x) & mask|, so R is never built: the
    cliques are enumerated on ``rows``, carrying the least R-degree.
    """
    s = mask.bit_count()
    degree = [0] * len(rows)
    ell = 0
    for x in bit_list(mask):
        degree[x] = s - 1 - (rows[x] & mask).bit_count()
        ell += degree[x] == 1
    phi = weighted = 0
    # (candidates, size, least R-degree) of each clique to extend
    stack = [(mask, 0, s)]
    while stack:
        allowed, size, least = stack.pop()
        while allowed:
            low = allowed & -allowed
            v = low.bit_length() - 1
            allowed ^= low
            d = min(least, degree[v])
            term = (1 << d) - 1
            phi += term
            weighted += (size + 1) * term
            if allowed & rows[v]:
                stack.append((allowed & rows[v], size + 1, d))
    return FixedLossBreakdown(phi=phi, ell=ell, s=s, weighted_sum=weighted)


def complete_graph_fixed_loss(s: int) -> int:
    """Fixed loss of K_s: s * (2^(s-1) - 1)."""
    return s * ((1 << (s - 1)) - 1) if s >= 1 else 0


def max_bound_check(r_graph: Graph, breakdown: FixedLossBreakdown) -> ConsistencyRecord:
    """phi(R) <= phi(K_s), with the strengthened weighted form alongside;
    ``breakdown`` is ``fixed_loss(r_graph)``.

    The weighted form sum |I| (2^(delta_I) - 1) <= s (2^(s-1) - 1) is
    strictly stronger and checked too; the record passes only if both hold.
    """
    ceiling = complete_graph_fixed_loss(r_graph.n)
    return ConsistencyRecord(
        predicate="fixed_loss_max",
        subject=f"s={r_graph.n}",
        lhs=breakdown.phi,
        rhs=ceiling,
        applicable=True,
        passed=breakdown.phi <= ceiling and breakdown.weighted_sum <= ceiling,
    )


def has_small_component(r_graph: Graph) -> bool:
    """True if R has a K_1 or K_2 component, read off the rows: an empty
    row, or a single neighbor whose own row is just that vertex."""
    adj = r_graph.adj
    return any(
        not row or (not row & (row - 1) and adj[row.bit_length() - 1] == 1 << v)
        for v, row in enumerate(adj)
    )


def degree_one_bound_check(r_graph: Graph, breakdown: FixedLossBreakdown) -> ConsistencyRecord:
    """phi(R) <= 2^s + (s - ell - 2) 2^(s-ell-1) when R has neither a K_1
    nor a K_2 component; not applicable otherwise.  ``breakdown`` is
    ``fixed_loss(r_graph)``."""
    if r_graph.n == 0 or has_small_component(r_graph):
        return not_applicable("fixed_loss_degree_one", f"s={r_graph.n}")
    s, ell = breakdown.s, breakdown.ell
    # no K_1/K_2 components forces ell <= s-1, so the shift is safe
    bound = (1 << s) + (s - ell - 2) * (1 << (s - ell - 1))
    return ConsistencyRecord(
        predicate="fixed_loss_degree_one",
        subject=f"s={s},ell={ell}",
        lhs=breakdown.phi,
        rhs=bound,
        applicable=True,
        passed=breakdown.phi <= bound,
    )
