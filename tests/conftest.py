import sys

import pytest

from cliquebound import counting, enumeration


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: takes more than 10 s; deselect with -m \"not slow\" for a quick loop",
    )


@pytest.fixture
def clique_vector_calls(monkeypatch):
    """Every graph handed to ``clique_vector`` during the test, in call order.

    The wrapper replaces the function in every ``cliquebound`` module that
    imported it, so a count made from any layer above ``counting`` is seen.
    The complements that ``independent_vector`` counts inside ``counting``
    are not.
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
    the test, which starts from an empty class table."""
    calls = []
    original = enumeration.canonical_form_raw

    def counted(m, rows):
        calls.append(m)
        return original(m, rows)

    monkeypatch.setattr(enumeration, "_class_cache", {})
    monkeypatch.setattr(enumeration, "canonical_form_raw", counted)
    return calls
