"""graph6 encoding: the compact printable format small-graph corpora ship in.

Upper-triangle bits in column order (0,1),(0,2),(1,2),(0,3),... packed six
per byte, each byte offset by 63.  The optional ``>>graph6<<`` header is
stripped on parse.  Both directions are linear in the line: the parser
turns the bytes into a bit string with one ``str.translate``, cuts the
lower-triangle rows out of it and ORs in their transpose; the writer packs
the lower-triangle rows into one int and formats it once.
"""

from __future__ import annotations

from .graph import Graph, transpose

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


# each adjacency byte as its six bits, most significant first; any other
# character is left as itself, one character where six were due
_BITS = {63 + d: format(d, "06b") for d in range(64)}
_BYTES = {format(d, "06b"): chr(63 + d) for d in range(64)}


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
    stream = line[pos:].translate(_BITS)
    if len(stream) != 6 * need_bytes:
        for i in range(pos, len(line)):
            if ord(line[i]) not in _BITS:
                raise Graph6Error("adjacency byte out of range", i)
    # reversed and unpadded, the pairs (u, v) of row v run from u = v - 1
    # down to u = 0, most significant bit first
    stream = stream[:need_bits][::-1]
    lower = [0] * n
    for v in range(1, n):
        end = need_bits - v * (v - 1) // 2
        lower[v] = int(stream[end - v:end], 2)
    return Graph(n, [a | b for a, b in zip(lower, transpose(lower, n))])


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise Graph6Error("graphs beyond 258047 vertices unsupported")
    # bit k of the int is pair k in column order, so the lower row of v
    # starts at bit v(v-1)/2
    pairs = 0
    for v in range(n - 1, 0, -1):
        pairs = pairs << v | g.adj[v] & ((1 << v) - 1)
    need_bits = n * (n - 1) // 2
    # pair 0 first: reversed, past a guard bit that keeps the leading zeros
    stream = format(pairs | 1 << need_bits, "b")[:0:-1]
    stream += "0" * (-need_bits % 6)
    return head + "".join([_BYTES[stream[i:i + 6]] for i in range(0, len(stream), 6)])


def read_graph6_lines(path: str) -> list[Graph | Graph6Error]:
    """Per non-empty line of a graph6 file, its graph or the Graph6Error it
    raised, so that a malformed line, a byte past ASCII included (it reads
    as out of range at its offset), fails only its own graph."""
    graphs: list[Graph | Graph6Error] = []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    graphs.append(parse_graph6(line))
                except Graph6Error as exc:
                    graphs.append(exc)
    return graphs
