"""The fixed-loss functional and its two extremal bounds.

For a graph R, the fixed loss is the sum of 2^(min degree over I) - 1 over
all nonempty independent sets I of R.  It upper-bounds the number of
cliques destroyed by the clique-fill rewrite whose deficiency graph is R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import clique_weights
from .graphs import Graph, bits, complement, connected_components
from .records import ConsistencyRecord, not_applicable


@dataclass(frozen=True)
class FixedLossBreakdown:
    """phi split by whether the independent set meets the degree-one set L.

    phi = phi_L + phi_rest; ell = |L|; s = |V(R)|.  weighted_sum is
    sum |I| * (2^(delta_I) - 1), the strengthened quantity from the
    complete-graph bound's proof.
    """

    phi: int
    phi_L: int
    phi_rest: int
    ell: int
    s: int
    weighted_sum: int

    def __post_init__(self):
        if self.phi != self.phi_L + self.phi_rest:
            raise ValueError("fixed-loss split does not add up")


def fixed_loss(r_graph: Graph) -> FixedLossBreakdown:
    """Exact fixed loss by enumerating the independent sets of R.

    A degree-0 vertex contributes 2^0 - 1 = 0, so graphs with no edges have
    fixed loss zero; the formula is applied literally.
    """
    degree_one = 0
    degrees = []
    for v in range(r_graph.n):
        d = r_graph.degree(v)
        degrees.append(d)
        if d == 1:
            degree_one |= 1 << v
    phi_l = 0
    phi_rest = 0
    weighted = 0
    for mask, size, _ in clique_weights(complement(r_graph)):
        if size == 0:
            continue
        term = (1 << min(degrees[v] for v in bits(mask))) - 1
        weighted += size * term
        if mask & degree_one:
            phi_l += term
        else:
            phi_rest += term
    return FixedLossBreakdown(
        phi=phi_l + phi_rest,
        phi_L=phi_l,
        phi_rest=phi_rest,
        ell=degree_one.bit_count(),
        s=r_graph.n,
        weighted_sum=weighted,
    )


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
        detail={"weighted_sum": breakdown.weighted_sum},
    )


def has_small_component(r_graph: Graph) -> bool:
    """True if R has a K_1 or K_2 component."""
    return any(comp.bit_count() <= 2 for comp in connected_components(r_graph))


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
        detail={"phi_L": breakdown.phi_L, "phi_rest": breakdown.phi_rest},
    )
