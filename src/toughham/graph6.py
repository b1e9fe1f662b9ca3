"""graph6 encoding: the compact printable format small-graph corpora ship in.

Upper-triangle bits in column order (0,1),(0,2),(1,2),(0,3),... packed six
per byte, each byte offset by 63.  The optional ``>>graph6<<`` header is
stripped on parse.
"""

from __future__ import annotations

from .graph import Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


def _parse_size(line: str) -> tuple[int, int]:
    if not line:
        raise Graph6Error("empty graph6 line", 0)
    c = ord(line[0])
    if c == 126:
        if len(line) < 4:
            raise Graph6Error("truncated extended size field", len(line))
        if ord(line[1]) == 126:
            raise Graph6Error("graphs beyond 258047 vertices unsupported", 1)
        n = 0
        for i in (1, 2, 3):
            d = ord(line[i]) - 63
            if not 0 <= d < 64:
                raise Graph6Error("size byte out of range", i)
            n = n << 6 | d
        return n, 4
    if not 63 <= c <= 125:
        raise Graph6Error("size byte out of range", 0)
    return c - 63, 1


def parse_graph6(line: str) -> Graph:
    line = line.strip()
    if line.startswith(HEADER):
        line = line[len(HEADER):]
    n, pos = _parse_size(line)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(line) - pos != need_bytes:
        raise Graph6Error(
            f"expected {need_bytes} adjacency bytes for n={n}, got {len(line) - pos}",
            pos)
    stream = 0
    for i in range(need_bytes):
        d = ord(line[pos + i]) - 63
        if not 0 <= d < 64:
            raise Graph6Error("adjacency byte out of range", pos + i)
        stream = stream << 6 | d
    stream >>= need_bytes * 6 - need_bits  # drop padding
    edges = []
    idx = need_bits - 1
    for v in range(1, n):
        for u in range(v):
            if idx >= 0 and stream >> idx & 1:
                edges.append((u, v))
            idx -= 1
    return Graph.from_edges(n, edges)


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise Graph6Error("graphs beyond 258047 vertices unsupported")
    chunks = []
    acc = 0
    count = 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | (g.adj[u] >> v & 1)
            count += 1
            if count == 6:
                chunks.append(chr(acc + 63))
                acc, count = 0, 0
    if count:
        chunks.append(chr((acc << (6 - count)) + 63))
    return head + "".join(chunks)


def read_graph6_lines(path: str) -> list[Graph | Graph6Error]:
    """Per non-empty line of a graph6 file, its graph or the Graph6Error it
    raised, so that a malformed line fails only its own graph."""
    graphs: list[Graph | Graph6Error] = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    graphs.append(parse_graph6(line))
                except Graph6Error as exc:
                    graphs.append(exc)
    return graphs
