"""Every closed-form bound of the problem as an exact integer predicate.

Real-exponent statements are restated in integer power form (cross-
multiplied where rational), so no floating point appears anywhere here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Tuple

from .counting import CliqueVector, clique_weights, weight_sums
from .graphs import Graph, common_neighbors
from .records import ConsistencyRecord, not_applicable
from .structure import TightStructure, associated_cliques


def main_bound(n: int, r: int) -> int:
    """a(2^(r+1) - 1) + 2^b: the total clique count of aK_{r+1} u K_b, where
    n = a(r+1) + b with 0 <= b <= r."""
    if n < 0 or r < 0:
        raise ValueError("main_bound needs nonnegative n and r")
    a, b = divmod(n, r + 1)
    return a * ((1 << (r + 1)) - 1) + (1 << b)


def extremal_bound_check(n: int, r: int, k_total: int) -> ConsistencyRecord:
    """k(G) <= main_bound(n, r) for a graph on n vertices with maximum
    degree at most r and clique count ``k_total``."""
    bound = main_bound(n, r)
    return ConsistencyRecord(
        "extremal_bound", f"n={n},r={r}", k_total, bound, True, k_total <= bound
    )


def double_counting_check(g: Graph, kvec: CliqueVector) -> ConsistencyRecord:
    """t * k_t equals the weight sum over (t-1)-cliques, for every t >= 1:
    ``kvec`` counts g, and a second clique walk, ``weight_sums``, gives the
    weights.  The sides are those of the first size that disagrees, else 0."""
    sums = weight_sums(g)
    for t in range(1, kvec.max_size + 2):
        left = t * kvec[t]
        right = sums[t - 1] if t - 1 < len(sums) else 0
        if left != right:
            return ConsistencyRecord("double_counting", f"n={g.n}", left, right, True, False)
    return ConsistencyRecord("double_counting", f"n={g.n}", 0, 0, True, True)


def strong_inequalities(kvec: CliqueVector, n: int, r: int) -> ConsistencyRecord:
    """t * k_t <= (r - t + 1) * k_{t-1} for every t >= 3, as one record for
    a graph on n vertices counted by ``kvec``: the sides summed over t,
    passing iff every one of the inequalities holds."""
    lhs = rhs = 0
    passed = True
    for t in range(3, kvec.max_size + 1):
        left = t * kvec[t]
        right = (r - t + 1) * kvec[t - 1]
        lhs += left
        rhs += right
        passed = passed and left <= right
    return ConsistencyRecord("strong_from_no_tight", f"n={n},r={r}", lhs, rhs, True, passed)


@lru_cache(maxsize=None)
def strong_chain_bound(n: int, r: int) -> Fraction:
    """1 + n(2^r - 2)/(r - 1): the clique ceiling implied by the strong
    inequalities together with the trivial k_0, k_1, k_2 bounds.  Memoized:
    a sweep asks for it once per distinct (cap, clique vector) of each of
    its chunks, and those meet few (n, r)."""
    if r < 2:
        raise ValueError("the chain bound needs r >= 2")
    return 1 + Fraction(n, r - 1) * ((1 << r) - 2)


def chain_bound_check(n: int, r: int, k_total: int) -> ConsistencyRecord:
    """k(G) <= strong_chain_bound(n, r), cross-multiplied by the chain
    bound's denominator, for a graph on n vertices with clique count
    ``k_total``."""
    chain = strong_chain_bound(n, r)
    lhs = k_total * chain.denominator
    return ConsistencyRecord(
        "chain_bound_no_tight", f"n={n},r={r}", lhs, chain.numerator, True,
        lhs <= chain.numerator,
    )


def chain_vs_main_compare(n: int, r: int) -> ConsistencyRecord:
    """Chain bound <= main bound, cross-multiplied by the chain bound's
    denominator; equality is expected exactly at (r, n) = (3, 6)."""
    if r < 3 or n < r + 1:
        return not_applicable("chain_vs_main", f"n={n},r={r}")
    chain = strong_chain_bound(n, r)
    lhs, rhs = chain.numerator, chain.denominator * main_bound(n, r)
    return ConsistencyRecord(
        "chain_vs_main", f"n={n},r={r}", lhs, rhs, True,
        lhs < rhs or (lhs == rhs and (r, n) == (3, 6)),
    )


def _is_regular(g: Graph, d: int) -> bool:
    return all(g.degree(v) == d for v in range(g.n))


def kahn_zhao_check(g: Graph, d: int, ivec: CliqueVector) -> ConsistencyRecord:
    """i(G)^(2d) <= (2^(d+1) - 1)^n for d-regular G, in integer power form;
    ``ivec`` counts the independent sets of g."""
    if d < 1 or not _is_regular(g, d):
        return not_applicable("kahn_zhao_upper", f"n={g.n},d={d}")
    i_total = ivec.total
    lhs = i_total ** (2 * d)
    rhs = ((1 << (d + 1)) - 1) ** g.n
    return ConsistencyRecord(
        predicate="kahn_zhao_upper",
        subject=f"n={g.n},d={d}",
        lhs=lhs,
        rhs=rhs,
        applicable=True,
        passed=lhs <= rhs,
    )


def min_ind_check(g: Graph, d: int, ivec: CliqueVector) -> ConsistencyRecord:
    """i(G)^(d+1) >= (d+2)^n for d-regular G, where ``ivec`` counts the
    independent sets of g."""
    if not _is_regular(g, d):
        return not_applicable("min_independent_lower", f"n={g.n},d={d}")
    i_total = ivec.total
    lhs = i_total ** (d + 1)
    rhs = (d + 2) ** g.n
    return ConsistencyRecord(
        predicate="min_independent_lower",
        subject=f"n={g.n},d={d}",
        lhs=lhs,
        rhs=rhs,
        applicable=True,
        passed=lhs >= rhs,
    )


def regular_independent_checks(
    g: Graph, d: int, ivec: CliqueVector
) -> List[ConsistencyRecord]:
    """Per-size lower bounds i_t(G) >= (d+1)^t C(a, t) plus the total
    i(G) >= (d+2)^a, for d-regular G on n = a(d+1) vertices; ``ivec``
    counts the independent sets of g."""
    if not _is_regular(g, d) or g.n % (d + 1) != 0:
        return [not_applicable("regular_independent_lower", f"n={g.n},d={d}")]
    a = g.n // (d + 1)
    records = [
        ConsistencyRecord(
            predicate="regular_independent_lower",
            subject=f"n={g.n},d={d},total",
            lhs=ivec.total,
            rhs=(d + 2) ** a,
            applicable=True,
            passed=ivec.total >= (d + 2) ** a,
        )
    ]
    for t in range(g.n + 1):
        rhs = (d + 1) ** t * comb(a, t)
        records.append(
            ConsistencyRecord(
                predicate="regular_independent_lower",
                subject=f"n={g.n},d={d},t={t}",
                lhs=ivec[t],
                rhs=rhs,
                applicable=True,
                passed=ivec[t] >= rhs,
            )
        )
    return records


@lru_cache(maxsize=None)
def _bounded_clique_table(n: int, r: int) -> Tuple[Tuple[int, str, int], ...]:
    """(t, subject, a C(r+1, t)) for t = 1..n, with n = a(r+1).  Memoized:
    a sweep checks many graphs under few (n, r)."""
    a = n // (r + 1)
    return tuple((t, f"n={n},r={r},t={t}", a * comb(r + 1, t)) for t in range(1, n + 1))


def bounded_clique_checks(n: int, r: int, kvec: CliqueVector) -> List[ConsistencyRecord]:
    """Per-size upper bounds k_t(G) <= a C(r+1, t) plus the total k(G) <=
    main_bound(n, r), for a graph G on n vertices with maximum degree at
    most r, counted by ``kvec``; applicable when (r+1) | n."""
    if n % (r + 1) != 0:
        return [not_applicable("bounded_clique_upper", f"n={n},r={r}")]
    total, total_rhs = kvec.total, main_bound(n, r)
    records = [
        ConsistencyRecord(
            "bounded_clique_upper", f"n={n},r={r},total", total, total_rhs, True,
            total <= total_rhs,
        )
    ]
    counts = kvec.counts + (0,) * (n + 1 - len(kvec.counts))
    for t, subject, rhs in _bounded_clique_table(n, r):
        k = counts[t]
        records.append(ConsistencyRecord("bounded_clique_upper", subject, k, rhs, True, k <= rhs))
    return records


def zykov_check(g: Graph, kvec: CliqueVector) -> ConsistencyRecord:
    """k(G) <= k(T_{n, omega}) with omega the clique number of G; ``kvec`` counts g.
    A clique of the Turan graph picks at most one vertex from each part, so
    k(T_{n, omega}) = (q+2)^rho (q+1)^(omega-rho) with (q, rho) = divmod(n, omega)."""
    if g.n == 0:
        return not_applicable("zykov_upper", "n=0")
    omega = kvec.max_size
    q, rho = divmod(g.n, omega)
    rhs = (q + 2) ** rho * (q + 1) ** (omega - rho)
    return ConsistencyRecord(
        predicate="zykov_upper",
        subject=f"n={g.n},omega={omega}",
        lhs=kvec.total,
        rhs=rhs,
        applicable=True,
        passed=kvec.total <= rhs,
    )


def galvin_bound(n: int, d: int) -> int:
    """i(K_{d, n-d}) = 2^d + 2^(n-d) - 1, the conjectured ceiling for
    min degree >= d (proved via the main result)."""
    if not 0 <= d <= n:
        raise ValueError("galvin_bound needs 0 <= d <= n")
    return (1 << d) + (1 << (n - d)) - 1


def cluster_loss_check(cluster: TightStructure, fill_gain: int) -> ConsistencyRecord:
    """When filling a cluster does not increase the clique count (``fill_gain``,
    the measured change, is at most 0), its deficiency graph must carry large
    fixed loss: phi(R) >= 2^r + s 2^t, and 2^t < s (the log statement in
    integer form).  A cluster of size 1 is tallied under its own id,
    ``cluster_large_loss_size1``."""
    if not cluster.is_cluster or fill_gain > 0:
        return not_applicable("cluster_large_loss", f"T={cluster.T:#x}")
    phi = cluster.phi
    t, s = cluster.t, cluster.s
    rhs = (1 << cluster.r) + s * (1 << t)
    return ConsistencyRecord(
        predicate="cluster_large_loss_size1" if t == 1 else "cluster_large_loss",
        subject=f"T={cluster.T:#x},t={t},s={s}",
        lhs=phi,
        rhs=rhs,
        applicable=True,
        passed=phi >= rhs and (1 << t) < s,
    )


def associated_low_weight_check(
    g: Graph, cluster: TightStructure, c: int, fill_gain: int
) -> ConsistencyRecord:
    """A non-gaining cluster (measured ``fill_gain`` at most 0) with no K_2
    deficiency component must have at least 2 C(t, c) associated c-cliques
    of weight at most r - c - 1."""
    t, r = cluster.t, cluster.r
    if (
        r < 3
        or not cluster.is_cluster
        or not 2 <= c <= t
        or cluster.has_small_component
        or fill_gain > 0
    ):
        return not_applicable("associated_low_weight", f"T={cluster.T:#x},c={c}")
    count = sum(
        1
        for mask in associated_cliques(g, cluster.T, c)
        if common_neighbors(g, mask).bit_count() <= r - c - 1
    )
    rhs = 2 * comb(t, c)
    return ConsistencyRecord(
        predicate="associated_low_weight",
        subject=f"T={cluster.T:#x},c={c}",
        lhs=count,
        rhs=rhs,
        applicable=True,
        passed=count >= rhs,
    )


def discharging_check(
    n: int, r: int, clusters: List[TightStructure], fill_gains: Dict[int, int]
) -> ConsistencyRecord:
    """Reweighting check behind the final case of the main result, for a
    graph G on n vertices with maximum degree at most r.

    ``clusters`` holds every cluster of G under ``r``, derived, and
    ``fill_gains`` maps each one's mask to the measured clique-count change
    of its fill rewrite.  A clique is tight exactly when it is a nonempty
    subset of a cluster.  The cliques of G are walked on the rows that the
    clusters carry, so no Graph is passed: with no cluster the record
    reads only n and r.

    Tight cliques lose 1; cliques associated with one cluster (of size >= 2)
    gain one half; 2-cliques associated with two clusters gain 1.  Weights
    are kept doubled so the halves stay in exact integers.  Applicable only
    when G has a tight clique of size >= 2, contains no K_{r+1}, and every
    cluster both fails to gain under the fill rewrite and has no K_2
    deficiency component.  Checks, for clique sizes >= 2:
      (i)  per size, the doubled weight sum does not drop, and
      (ii) every doubled new weight is at most 2(r - size).
    A clique over the ceiling is reported by the one furthest over it (the
    later one in ``clique_weights`` order on ties): its doubled new weight
    and ceiling as lhs and rhs, and its mask in the subject.
    """
    subject = f"n={n},r={r}"
    if (
        # under the cap a K_{r+1} has weight 0 = r+1-(r+1): a tight clique of
        # size r+1, which is a cluster
        any(cl.t == r + 1 for cl in clusters)
        or not any(cl.t >= 2 for cl in clusters)
        or any(cl.k2_components or fill_gains[cl.T] > 0 for cl in clusters)
    ):
        return not_applicable("discharging", subject)

    big_clusters = [cl.T for cl in clusters if cl.t >= 2]
    old_sums = {}
    new_sums = {}
    # the clique furthest over the ceiling, the later one on ties: (mask,
    # doubled new weight, doubled ceiling)
    worst = None
    excess = 1
    for mask, size, weight in clique_weights(Graph(n, clusters[0].adj)):
        if size < 2:
            continue
        # the clique is tight if it lies in a cluster, associated if it
        # meets one in all but one vertex
        shared = [(mask & t_mask).bit_count() for t_mask in big_clusters]
        doubled_new = 2 * weight - 2 * shared.count(size) + shared.count(size - 1)
        old_sums[size] = old_sums.get(size, 0) + 2 * weight
        new_sums[size] = new_sums.get(size, 0) + doubled_new
        ceiling = 2 * (r - size)
        if doubled_new - ceiling >= excess:
            excess = doubled_new - ceiling
            worst = (mask, doubled_new, ceiling)
    sums_ok = all(old_sums[t] <= new_sums[t] for t in old_sums)
    if worst is None:
        return ConsistencyRecord("discharging", subject, 0, 0, True, sums_ok)
    mask, doubled_new, ceiling = worst
    return ConsistencyRecord(
        "discharging", f"{subject},clique={mask:#x}", doubled_new, ceiling, True, False
    )
