import random

import pytest

from oracles import all_graphs
from toughham.graph import Graph
from toughham.graph6 import Graph6Error, _parse_size, parse_graph6, write_graph6

# strides of the packed matrix and graph6's own boundaries: the one-byte
# size field ends at 62, and the pairs of n = 7 and n = 8 fill whole bytes
CODEC_SIZES = (0, 1, 2, 7, 8, 9, 31, 32, 33, 62, 63, 64, 65, 127, 128, 129, 257, 512)


def parse_by_pair(line):
    """Reference decoder: one shift of the whole bit stream per vertex pair."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
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
    stream >>= need_bytes * 6 - need_bits
    edges = []
    idx = need_bits - 1
    for v in range(1, n):
        for u in range(v):
            if stream >> idx & 1:
                edges.append((u, v))
            idx -= 1
    return Graph.from_edges(n, edges)


def write_by_pair(g):
    """Reference encoder: six pairs to a byte, in column order."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63)
                                                     for s in (12, 6, 0))
    chunks, acc, count = [], 0, 0
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


def outcome(parse, line):
    try:
        return parse(line)
    except Graph6Error as exc:
        return (str(exc), exc.offset)


def test_parse_examples():
    assert parse_graph6("C~") == Graph.complete(4)
    assert parse_graph6("D??") == Graph.empty(5)
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_header_stripped():
    assert parse_graph6(">>graph6<<C~") == Graph.complete(4)


def test_malformed_inputs_report_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C~~")  # one byte too many
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C" + chr(20))  # byte below the printable range
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6(chr(5) + "abc")
    assert err.value.offset == 0
    # a byte just either side of the range, in the middle of a line
    for bad in (62, 127):
        line = "H~~" + chr(bad) + "~~~"  # n = 9: 36 pairs, 6 bytes
        with pytest.raises(Graph6Error) as err:
            parse_graph6(line)
        assert err.value.offset == 3
        assert str(err.value) == "adjacency byte out of range (byte 3)"


def test_known_encodings():
    assert write_graph6(Graph.complete(4)) == "C~"
    assert write_graph6(Graph.empty(5)) == "D??"
    assert write_graph6(Graph.empty(0)) == "?"


def test_round_trip_all_graphs_up_to_six():
    # full labeled corpus: encode(decode(x)) = x and decode(encode(g)) = g
    for n in range(0, 7):
        for g in all_graphs(n):
            line = write_graph6(g)
            assert parse_graph6(line) == g
            assert write_graph6(parse_graph6(line)) == line


def test_large_vertex_count_uses_extended_size():
    g = Graph.empty(63)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_codec_matches_the_per_pair_reference():
    rng = random.Random(6)
    for n in CODEC_SIZES:
        for p in (0.0, 0.1, 0.5, 1.0):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
            line = write_graph6(g)
            assert line == write_by_pair(g), (n, p)
            assert parse_graph6(line) == parse_by_pair(line) == g, (n, p)
        # padding bits that are set are ignored by both decoders
        line = write_graph6(g)
        if n * (n - 1) // 2 % 6:
            last = chr(ord(line[-1]) | 1)
            assert parse_graph6(line[:-1] + last) == parse_by_pair(line[:-1] + last)


def test_too_many_vertices_is_a_size_field_error():
    # raised at the size field, before the adjacency bytes are read
    for line, n in (("~?G@" + "?" * (513 * 512 // 2 // 6), 513), ("~?G@", 513), ("~?HW", 600)):
        for parse in (parse_graph6, parse_by_pair):
            with pytest.raises(Graph6Error) as exc:
                parse(line)
            assert (str(exc.value), exc.value.offset) == (
                f"vertex count {n} outside 0..512 (byte 0)", 0)


def test_malformed_lines_match_the_reference():
    rng = random.Random(7)
    lines = ["", "~", "~~", "~?", "~??", "~~~~", "?" + "?", "A" + chr(127), "C~" + " x"]
    for n in (2, 5, 9, 64, 65):
        good = write_graph6(Graph.complete(n))
        size = 1 if n <= 62 else 4
        lines += [good[:-1], good + "~", good[:size] + chr(0) + good[size + 1:]]
        for bad in (0, 31, 48, 49, 62, 127, 200, 1000):
            at = rng.randrange(size, len(good))
            lines.append(good[:at] + chr(bad) + good[at + 1:])
    for line in lines:
        assert outcome(parse_graph6, line) == outcome(parse_by_pair, line), repr(line)
