"""graph6 text encoding for graphs on up to 64 vertices.

The format packs the upper triangle of the adjacency matrix, read column
by column (bit (i, j) for i < j, columns in increasing j), into 6-bit
chunks offset by 63.  One graph per line in all file interfaces.

``ordered_key`` reads those bits, for any vertex order, as one integer,
``pack`` is the one routine that turns such an integer into text, and
``unpack`` the one that turns it back into adjacency rows; ``degrees``
reads the vertex degrees off such an integer.  Canonical labeling
compares its leaves by the integer, and the generator keeps each class as
the integer of its least leaf, unpacked when the class is read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .errors import CapacityError, Graph6ParseError
from .graphs import MAX_VERTICES, Graph, bit_list


def encode(g: Graph) -> str:
    return pack(g.n, ordered_key([bit_list(row) for row in g.adj], range(g.n)))


def ordered_key(nbrs, order) -> int:
    """The graph6 bits of the graph relabeled so that order[k] becomes k,
    read as one integer with the first bit most significant; ``nbrs[v]``
    lists the neighbours of v.

    For one vertex count the bit string has one length, so these integers
    order exactly like the graph6 strings that ``pack`` makes of them.
    Vertex v stands for bit n - 1 - (its position) of a relabeled row, so
    the column of position j, its bits for positions i < j with i = 0
    first, is that row shifted right by n - j.
    """
    n = len(order)
    top = 1 << n >> 1
    shifted = [0] * n
    for k, v in enumerate(order):
        shifted[v] = top >> k
    key = 0
    for j in range(1, n):
        key = key << j | sum(map(shifted.__getitem__, nbrs[order[j]])) >> n - j
    return key


def pack(n: int, key: int) -> str:
    """The graph6 string of the n-vertex graph whose bits ``ordered_key``
    gives: the size header, then the bits, zero-padded to whole 6-bit
    chunks, each offset by 63."""
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    length = n * (n - 1) // 2
    pad = -length % 6
    key <<= pad
    return header + bytes([(key >> s & 0x3F) + 63 for s in range(length + pad - 6, -1, -6)]).decode()


def unpack(n: int, key: int) -> Tuple[int, ...]:
    """The adjacency rows of the n-vertex graph whose graph6 bits, read as
    one integer, are ``key``: the inverse of ``ordered_key`` under the
    identity order.  The last n - 1 bits are the column of vertex n - 1,
    the n - 2 bits before them that of vertex n - 2, and so on; in the
    column of j, bit j - 1 - i stands for the edge (i, j)."""
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        column = key & ((1 << j) - 1)
        key >>= j
        bit = 1 << j
        below = 0  # the neighbours i < j of j
        while column:
            low = column & -column
            column ^= low
            i = j - low.bit_length()
            adj[i] |= bit
            below |= 1 << i
        adj[j] |= below
    return tuple(adj)


def degrees(n: int, key: int) -> List[int]:
    """The degree of each vertex of the n-vertex graph that ``unpack(n,
    key)`` gives, read off the key: the bits of the pairs that hold v are
    the key of the star at v."""
    return [(key & star).bit_count() for star in _stars(n)]


@lru_cache(maxsize=None)
def _stars(n: int) -> Tuple[int, ...]:
    """The key of the star at each vertex of n, under the identity order."""
    return tuple(
        ordered_key([[u for u in range(n) if u != v] if w == v else [v] for w in range(n)], range(n))
        for v in range(n)
    )


def decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6ParseError(f"invalid graph6 character {ch!r}", off)
    data = s.encode("ascii")
    if data[0] == 126:  # '~': long form size
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("graphs over 258047 vertices unsupported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated graph6 size field", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body_start = 4
    else:
        n = data[0] - 63
        body_start = 1
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 input has {n} vertices; capacity is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = data[body_start:]
    if len(body) != expected:
        raise Graph6ParseError(
            f"graph6 body has {len(body)} bytes, expected {expected}",
            body_start + min(len(body), expected),
        )
    key = 0
    for byte in body:
        key = key << 6 | (byte - 63)
    pad = 6 * expected - nbits
    if key & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", body_start + len(body) - 1)
    return Graph(n, unpack(n, key >> pad))
