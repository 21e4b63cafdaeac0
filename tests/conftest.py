import random
import sys

import pytest

from cliquebound import canon, counting, enumeration, structure
from cliquebound.graphs import from_edges


@pytest.fixture
def clique_vector_calls(monkeypatch):
    """Every graph handed to ``clique_vector`` during the test, in call order.

    The wrapper replaces the function in every ``cliquebound`` module that
    imported it, so a count made from any layer above ``counting`` is seen.
    ``independent_vector`` counts on the graph itself and never calls it.
    """
    calls = []
    original = counting.clique_vector

    def counted(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("cliquebound.")
            and module is not counting
            and getattr(module, "clique_vector", None) is original
        ):
            monkeypatch.setattr(module, "clique_vector", counted)
    return calls


@pytest.fixture
def cold_labelings(monkeypatch):
    """The vertex count of every canonical labeling generation makes during
    the test, of parents and children alike, starting from an empty class
    table."""
    calls = []
    original = enumeration.labeling_from_root

    def counted(rows, nbrs, colors, count):
        calls.append(len(rows))
        return original(rows, nbrs, colors, count)

    monkeypatch.setattr(enumeration, "_class_cache", {})
    monkeypatch.setattr(enumeration, "labeling_from_root", counted)
    return calls


@pytest.fixture(scope="session")
def atlas_classes():
    """One graph per isomorphism class with 2 <= n <= 7, from the networkx
    graph atlas, so that tests of canon and of the generator's orbit test
    do not take their inputs from the generator."""
    nx = pytest.importorskip("networkx")
    return [
        from_edges(h.number_of_nodes(), list(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() >= 2
    ]


@pytest.fixture
def canon_leaves(monkeypatch):
    """The vertex count of every search-tree leaf canonical labeling reads
    the graph6 key of during the test, one entry per leaf."""
    calls = []
    original = canon.ordered_key

    def counted(nbrs, order):
        calls.append(len(order))
        return original(nbrs, order)

    monkeypatch.setattr(canon, "ordered_key", counted)
    return calls


@pytest.fixture
def is_tight_calls(monkeypatch):
    """The arguments of every ``is_tight`` call made during the test."""
    calls = []
    original = structure.is_tight

    def counted(g, r, c):
        calls.append((g, r, c))
        return original(g, r, c)

    monkeypatch.setattr(structure, "is_tight", counted)
    return calls


def _random_capped_graph(rng: random.Random, n: int, r: int):
    """Planted cliques of size 3..r+1, then random edges, never letting a
    degree exceed r."""
    degree = [0] * n
    edges = set()

    def add(u, v):
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
    return from_edges(n, sorted(edges))


@pytest.fixture
def random_capped_graph():
    """``random_capped_graph(rng, n, r)``: a seeded degree-capped graph with
    planted cliques, so tight cliques of size >= 2 and K_2 deficiency
    components turn up."""
    return _random_capped_graph
