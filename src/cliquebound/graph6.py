"""graph6 text encoding for graphs on up to 64 vertices.

The format packs the upper triangle of the adjacency matrix, read column
by column (bit (i, j) for i < j, columns in increasing j), into 6-bit
chunks offset by 63.  One graph per line in all file interfaces.

``ordered_key`` reads those bits, for any vertex order, as one integer,
and ``pack`` is the one routine that turns such an integer into text.
Canonical labeling compares its leaves by the integer and packs only the
least one.
"""

from __future__ import annotations

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
    adj = [0] * n
    i, j = 0, 1  # the cell the next bit fills: columns j in order, rows i < j
    for byte in body:
        value = byte - 63
        for k in range(5, -1, -1):
            bit = (value >> k) & 1
            if j >= n:
                if bit:
                    raise Graph6ParseError("nonzero padding bits", body_start + len(body) - 1)
                continue
            if bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(adj))
