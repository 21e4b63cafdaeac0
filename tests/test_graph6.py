import pytest
from hypothesis import given, strategies as st

from cliquebound import graph6
from cliquebound.errors import Graph6ParseError
from cliquebound.graphs import Graph, complete, cycle, empty, from_edges


def test_k2_encoding():
    assert graph6.encode(complete(2)) == "A_"


def test_known_small_encodings():
    assert graph6.encode(empty(0)) == "?"
    assert graph6.encode(empty(1)) == "@"
    assert graph6.encode(complete(4)) == "C~"


def test_optional_header_is_stripped():
    assert graph6.decode(">>graph6<<A_") == complete(2)


def test_large_n_uses_long_form():
    g = empty(63)
    s = graph6.encode(g)
    assert s.startswith("~")
    assert graph6.decode(s) == g


@pytest.mark.parametrize(
    "text, offset",
    [
        ("", 0),          # no header byte at all
        ("A", 1),         # truncated body
        ("A_X", 2),       # trailing garbage
        ("A" + chr(30), 1),  # byte below printable range
        ("A\u00e9", 1),   # non-ASCII character, not read as a legal '?'
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(Graph6ParseError) as exc_info:
        graph6.decode(text)
    assert exc_info.value.offset == offset


def test_nonzero_padding_bits_rejected():
    # K_2's body byte is '_' = 0b100000; force a padding bit on
    bad = "A" + chr(ord("_") + 1)
    with pytest.raises(Graph6ParseError):
        graph6.decode(bad)


@given(
    st.integers(0, 9).flatmap(
        lambda n: st.builds(
            lambda edges: from_edges(n, edges),
            st.sets(
                st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                    lambda e: e[0] < e[1]
                )
            ),
        )
    )
)
def test_roundtrip(g: Graph):
    assert graph6.decode(graph6.encode(g)) == g


def test_roundtrip_exhaustive_n4():
    # every labeled graph on 4 vertices survives a roundtrip
    for code in range(64):
        edges = [(i, j) for b, (i, j) in enumerate(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]) if (code >> b) & 1]
        g = from_edges(4, edges)
        assert graph6.decode(graph6.encode(g)) == g


def test_cycle_roundtrips_at_boundary_sizes():
    for n in (61, 62, 63, 64):
        g = cycle(n)
        assert graph6.decode(graph6.encode(g)) == g
