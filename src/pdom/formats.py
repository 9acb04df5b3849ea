"""graph6, edge-list, and DOT serialization.

graph6 packs the upper triangle of the adjacency matrix column by column into
printable characters (values 63..126, six bits each, zero padded). Each
direction holds the bits as one int with the first bit on top. The writer
shifts the triangle in one column at a time, reverses its bits once, puts the
order above them and emits six-bit groups from the top; the parser shifts the
characters in, tests the padding as the low bits and reads the columns back
down. A token may start with the optional ">>graph6<<" header, which networkx
writes by default.

Errors give the position of the first problem as written. Lines end at "\n"
alone and are numbered from 1; a "\r", lone or before "\n", is blank space,
as are the other characters that str.splitlines also breaks at. _lines is
the one place where text is split into lines: both readers and the command
line's scan take their lines and line numbers from it. An offset counts
characters from the first character of the text parse_graph6 was given, or
of the line read_graph6_lines gave it: leading blanks and the header count.
parse_graph6 reports the offset, read_graph6_lines adds the line number,
and parse_edge_list reports the line number alone. Both put the line
number in front of a VertexCapError's message too; in an edge list the cap
is hit by an order header over it or, without a header, by the first edge
with an endpoint of MAX_VERTICES or more.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .graphs import MAX_VERTICES, Graph, VertexCapError, from_edges


class FormatError(ValueError):
    """Malformed serialized graph; carries position info when available."""

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        super().__init__(message)
        self.line = line
        self.offset = offset

    def __str__(self) -> str:
        where = ", ".join(f"{k} {v}" for k, v in (("line", self.line), ("offset", self.offset)) if v is not None)
        return f"{where}: {self.args[0]}" if where else self.args[0]


def write_graph6(g: Graph) -> str:
    n = g.order
    long = n > 62  # cap is 64, so the 18-bit order form always suffices
    stream = length = 0
    for j in range(1, n):  # column j: the edges i-j for i < j, bit i of adj[j]
        stream |= (g.adj[j] & (1 << j) - 1) << length
        length += j
    # Reversed, the stream's first bit is on top, and the order goes above
    # it, in one six-bit group or in three after "~".
    bits = n << length | int(f"{stream:0{length}b}"[::-1], 2)
    length += 18 if long else 6
    pad = -length % 6
    bits <<= pad  # zero padding in the final group
    return "~" * long + "".join(chr((bits >> k & 63) + 63) for k in range(length + pad - 6, -1, -6))


def _six_bit_groups(text: str, start: int, stop: int) -> int:
    """text[start:stop] as one int, six bits a character, the first on top."""
    out = 0
    for pos in range(start, stop):
        c = ord(text[pos]) - 63
        if not 0 <= c < 64:
            raise FormatError(f"character {text[pos]!r} outside the graph6 range", offset=pos)
        out = out << 6 | c
    return out


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 token (surrounding whitespace ignored)."""
    start = len(text) - len(text.lstrip())  # the token is text[start:end]
    end = len(text.rstrip())
    start += 10 * text.startswith(">>graph6<<", start)  # the optional header
    if start >= end:
        raise FormatError("empty graph6 token")
    if text.startswith("~~", start):
        raise VertexCapError(f"order beyond {MAX_VERTICES} (long-form graph6 header)")
    long = text.startswith("~", start)  # the order in the three characters after "~"
    body_start = start + (4 if long else 1)
    if end < body_start:
        raise FormatError("truncated graph6 order header", offset=end)
    n = _six_bit_groups(text, start + long, body_start)
    if n > MAX_VERTICES:
        raise VertexCapError(f"order {n} exceeds the cap of {MAX_VERTICES}")
    edge_bits = n * (n - 1) // 2
    expected = body_start + (edge_bits + 5) // 6
    if end != expected:
        raise FormatError(
            f"body length {end - body_start} does not match order {n} "
            f"(expected {expected - body_start} character{'s' * (expected - body_start != 1)})",
            offset=min(end, expected),
        )
    bits = _six_bit_groups(text, body_start, expected)
    pad = -edge_bits % 6
    if bits & (1 << pad) - 1:
        raise FormatError("nonzero padding bits", offset=end - 1)
    adj = [0] * n
    k = edge_bits + pad
    for j in range(1, n):
        k -= j
        col = bits >> k & (1 << j) - 1  # bit j - 1 - i: the edge i-j
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return Graph(tuple(adj))


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each nonblank line of text, numbered from 1."""
    return ((lineno, raw) for lineno, raw in enumerate(text.split("\n"), start=1) if raw.strip())


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse one graph6 token per nonblank line."""
    out = []
    for lineno, raw in _lines(text):
        try:
            out.append(parse_graph6(raw))
        except FormatError as exc:
            exc.line = lineno
            raise
        except VertexCapError as exc:
            raise VertexCapError(f"line {lineno}: {exc}") from None
    return out


def _decimal(token: str) -> int:
    """int(token) for ASCII decimal digits after an optional minus sign;
    int() alone also takes "+5", "1_0" and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one ``u v`` pair per line, 0-indexed vertices,
    with an optional leading ``n <order>`` line. Without the header the order
    is one more than the largest index seen."""
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in _lines(text):
        tokens = raw.split()
        if not edges and declared is None and tokens[0] == "n":
            if len(tokens) != 2:
                raise FormatError("order header must be exactly 'n <count>'", line=lineno)
            try:
                declared = _decimal(tokens[1])
            except ValueError:
                raise FormatError(f"order {tokens[1]!r} is not an integer", line=lineno) from None
            if declared < 0:
                raise FormatError(f"negative order {declared}", line=lineno)
            if declared > MAX_VERTICES:
                raise VertexCapError(f"line {lineno}: order {declared} exceeds the cap of {MAX_VERTICES}")
            continue
        if len(tokens) != 2:
            raise FormatError(f"expected 'u v', got {len(tokens)} tokens", line=lineno)
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {raw.strip()!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise FormatError(f"negative vertex in edge ({u}, {v})", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        if declared is not None and (u >= declared or v >= declared):
            raise FormatError(f"edge ({u}, {v}) out of range for declared order {declared}", line=lineno)
        if max(u, v) >= MAX_VERTICES:
            raise VertexCapError(f"line {lineno}: order {max(u, v) + 1} exceeds the cap of {MAX_VERTICES}")
        edges.append((u, v))
    if declared is None:
        if not edges:
            raise FormatError("empty edge list and no 'n <order>' header")
        declared = max(map(max, edges)) + 1
    return from_edges(declared, edges)


def write_dot(g: Graph) -> str:
    """DOT text for Graphviz."""
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.order):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
