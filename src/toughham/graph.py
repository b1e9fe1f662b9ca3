"""Bitset-backed simple undirected graphs.

Vertices are dense integers 0..n-1.  Vertex sets are plain Python ints used
as bit masks (bit v set <=> vertex v in the set), so every set operation is
word-parallel for free.  Graphs are immutable after construction; all the
solvers in this package share them freely.

There is one traversal, ``reach``, over any list of neighbour masks: the
component methods run it on a graph's rows, ``metrics.independence`` on its
complement's rows, so no complement graph is ever built.

There is one bit-matrix primitive, ``transpose``, behind the constructor's
symmetry check, the graph6 decoder and the generators' random draws and
relabelling, so none of them loops over edges.  It packs an n x n
matrix into one int, row i at bit i*w for the power-of-two stride w >= n,
and swaps the row and column index bits in log2(w) word-parallel delta
swaps; the (shift, mask) table of each of the ten strides up to
``MAX_VERTICES`` is built on first use.

The constructor checks every row.  The builders above and ``add_edges``,
whose rows are symmetric and loop-free by construction, store them
through ``Graph._of_rows`` instead, which checks nothing (the decoder and
the draws through ``Graph._closed_under_transpose``, which first ORs each
row with its transpose).
"""

from __future__ import annotations

from functools import cache

MAX_VERTICES = 512


class GraphError(ValueError):
    """Malformed graph construction or out-of-range argument."""


def bit(v: int) -> int:
    return 1 << v


def bits(mask: int):
    """Iterate set bit positions of a mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def reach(adj, start: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from the vertex mask ``start``, a
    subset of ``allowed``, along paths inside ``allowed``; ``adj[v]`` is the
    neighbour mask of v."""
    seen = frontier = start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def _stride(n: int) -> int:
    """Row stride of a packed n x n matrix: the least power of two >= n."""
    return 1 << max(n - 1, 0).bit_length()


@cache
def _swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per delta swap of the w x w transpose: swap j exchanges
    bit j of the row and of the column index, and its mask marks the
    positions whose row bit is 0 and column bit is 1."""
    table = []
    j = 1
    while j < w:
        # most significant bit first: columns, then rows, from w - 1 down
        row = ("1" * j + "0" * j) * (w // (2 * j))
        table.append((j * (w - 1), int(("0" * w * j + row * j) * (w // (2 * j)), 2)))
        j <<= 1
    return tuple(table)


def _pack(rows, w: int) -> int:
    m = 0
    for row in reversed(rows):
        m = m << w | row
    return m


def _flip(m: int, w: int) -> int:
    """Transpose of the packed w x w matrix m."""
    for shift, mask in _swaps(w):
        t = (m ^ m >> shift) & mask
        m ^= t | t << shift
    return m


def transpose(rows, n: int) -> list[int]:
    """Columns of the bit matrix with the given rows (a sequence of at most
    n, each below 2**n): column c has bit i exactly when rows[i] has bit c."""
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    w = _stride(n)
    m = _flip(_pack(rows, w), w)
    row = (1 << w) - 1
    return [m >> i & row for i in range(0, n * w, w)]


def lex_key(mask: int) -> tuple[int, ...]:
    """Sorted vertex tuple of a mask, used as the canonical ordering key."""
    return tuple(bits(mask))


class Graph:
    """Immutable simple graph; ``adj[u]`` is the neighbor mask of u."""

    __slots__ = ("n", "adj", "full")

    def __init__(self, n: int, adj):
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError("adjacency list length does not match n")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"adjacency row {u} has bits beyond n")
            if row >> u & 1:
                raise GraphError(f"loop at vertex {u}")
        w = _stride(n)
        m = _pack(adj, w)
        # the lowest one-way bit is the first one-way pair in row-major order
        oneway = m & ~_flip(m, w)
        if oneway:
            u, v = divmod((oneway & -oneway).bit_length() - 1, w)
            raise GraphError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = adj
        self.full = full

    @classmethod
    def _of_rows(cls, n: int, rows) -> "Graph":
        """Graph over rows that are symmetric, loop-free and below 2**n by
        construction, stored without the constructor's checks."""
        g = cls.__new__(cls)
        g.n, g.adj, g.full = n, tuple(rows), (1 << n) - 1
        return g

    @classmethod
    def _closed_under_transpose(cls, n: int, rows) -> "Graph":
        """Loop-free rows ORed with their transpose: an edge needs one bit."""
        return cls._of_rows(n, [a | b for a, b in zip(rows, transpose(rows, n))])

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_multipartite(cls, sizes) -> "Graph":
        n = sum(sizes)
        rows = [0] * n
        start = 0
        full = (1 << n) - 1
        for size in sizes:
            part = ((1 << size) - 1) << start
            for v in range(start, start + size):
                rows[v] = full & ~part
            start += size
        return cls(n, rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def _check_mask(self, mask: int):
        if mask & ~self.full:
            raise GraphError("vertex set has bits beyond n")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def min_degree(self) -> int:
        return min(map(int.bit_count, self.adj), default=0)

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_complete(self) -> bool:
        return all(self.adj[v] == self.full ^ (1 << v) for v in range(self.n))

    def set_neighborhood(self, s: int) -> int:
        """Union of neighborhoods of s, minus s itself."""
        self._check_mask(s)
        out = 0
        for v in bits(s):
            out |= self.adj[v]
        return out & ~s

    def components(self, removed: int = 0) -> list[int]:
        """Connected components of G - removed, ordered by minimum vertex."""
        self._check_mask(removed)
        remaining = self.full & ~removed
        comps = []
        while remaining:
            comp = reach(self.adj, remaining & -remaining, remaining)
            comps.append(comp)
            remaining ^= comp
        return comps

    def component_count(self, removed: int = 0) -> int:
        """c(G - removed); unchecked, as it runs once per enumerated cutset."""
        remaining = self.full & ~removed
        count = 0
        while remaining:
            remaining ^= reach(self.adj, remaining & -remaining, remaining)
            count += 1
        return count

    def add_edges(self, edges) -> "Graph":
        """g plus the edges, OR-ed both ways into valid rows: still symmetric."""
        rows = list(self.adj)
        for u, v in edges:
            self._check_vertex(u)
            self._check_vertex(v)
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._of_rows(self.n, rows)
