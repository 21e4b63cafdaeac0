import random

import pytest
from hypothesis import given, strategies as st

from cliquebound import graph6
from cliquebound.enumeration import class_keys
from cliquebound.errors import Graph6ParseError
from cliquebound.graphs import Graph, bit_list, complete, cycle, empty, from_edges


def per_bit_encode(n, adj, order):
    """graph6 of the graph relabeled so that order[k] becomes k, one bit at
    a time: each column's bits appended to 6-bit chunks, the last chunk
    zero-padded.  The oracle for ``ordered_key`` and ``pack``."""
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    chunks = []
    acc = nbits = 0
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            acc = (acc << 1) | ((row >> order[i]) & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        chunks.append(chr((acc << (6 - nbits)) + 63))
    return header + "".join(chunks)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 62, 63, 64])
def test_ordered_key_packs_to_the_per_bit_encoding(n):
    """On seeded graphs of every density and seeded vertex orders: the
    packed key is the per-bit encoder's string, keys order like those
    strings, and ``encode`` still round-trips through ``decode``."""
    rng = random.Random(n)
    keyed = []
    for _ in range(40):
        p = rng.random()
        g = from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        nbrs = [bit_list(row) for row in g.adj]
        for order in (list(range(n)), rng.sample(range(n), n)):
            key = graph6.ordered_key(nbrs, order)
            text = per_bit_encode(n, g.adj, order)
            assert graph6.pack(n, key) == text
            keyed.append((key, text))
        assert graph6.encode(g) == per_bit_encode(n, g.adj, range(n))
        assert graph6.decode(graph6.encode(g)) == g
    by_key = [text for _, text in sorted(keyed)]
    assert by_key == sorted(text for _, text in keyed)


def test_unpack_inverts_ordered_key():
    """``unpack`` gives back the rows whose identity-order key it is given,
    and the per-bit encoder writes those rows as ``pack`` writes the key:
    on every stored class with n <= 8 (the package's own keys) and on
    seeded random graphs with n <= 12.  ``decode`` of the packed key is the
    same graph, and ``degrees`` reads that graph's degrees off the key."""
    keyed = [(n, key) for n in range(1, 9) for key in class_keys(n, n - 1)]
    rng = random.Random(1306)
    for _ in range(600):
        n = rng.randint(0, 12)
        p = rng.random()
        g = from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        keyed.append((n, graph6.ordered_key([bit_list(row) for row in g.adj], range(n))))
    assert len(keyed) == 13598 + 600
    for n, key in keyed:
        rows = graph6.unpack(n, key)
        assert graph6.ordered_key([bit_list(row) for row in rows], range(n)) == key
        assert per_bit_encode(n, rows, range(n)) == graph6.pack(n, key)
        assert graph6.decode(graph6.pack(n, key)) == Graph(n, rows)
        assert graph6.degrees(n, key) == [row.bit_count() for row in rows]


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
