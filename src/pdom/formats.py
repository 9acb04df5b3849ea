"""graph6, edge-list, and DOT serialization.

graph6 packs the upper triangle of the adjacency matrix column by column into
printable characters (values 63..126, six bits each, zero padded). Each
direction holds the bits as one int with the first bit on top. The writer
shifts the triangle in one column at a time, reverses its bits once, puts the
order above them and emits six-bit groups from the top; the parser shifts the
characters in, tests the padding as the low bits and reads the columns back
down. A token may start with the optional ">>graph6<<" header, which networkx
writes by default; offsets count from the token's first character, the
header included. Parsers report the byte offset and, for multi-line input,
the 1-based line number of the first problem.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, VertexCapError, from_edges


class FormatError(ValueError):
    """Malformed serialized graph; carries position info when available."""

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        self.line = line
        self.offset = offset
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


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


def _char_value(text: str, pos: int, line: int | None) -> int:
    c = ord(text[pos])
    if not 63 <= c <= 126:
        raise FormatError(f"character {text[pos]!r} outside the graph6 range", line=line, offset=pos)
    return c - 63


def parse_graph6(text: str, *, _line: int | None = None) -> Graph:
    """Parse a single graph6 token (surrounding whitespace ignored)."""
    token = text.strip()
    start = 10 if token.startswith(">>graph6<<") else 0
    if start == len(token):
        raise FormatError("empty graph6 token", line=_line)
    if token.startswith("~~", start):
        raise VertexCapError(f"order beyond {MAX_VERTICES} (long-form graph6 header)")
    long = token.startswith("~", start)  # the order in the three characters after "~"
    body_start = start + (4 if long else 1)
    if len(token) < body_start:
        raise FormatError("truncated graph6 order header", line=_line, offset=len(token))
    n = 0
    for pos in range(start + long, body_start):
        n = n << 6 | _char_value(token, pos, _line)
    if n > MAX_VERTICES:
        raise VertexCapError(f"order {n} exceeds the cap of {MAX_VERTICES}")
    edge_bits = n * (n - 1) // 2
    expected = body_start + (edge_bits + 5) // 6
    if len(token) != expected:
        raise FormatError(
            f"body length {len(token) - body_start} does not match order {n} "
            f"(expected {expected - body_start} characters)",
            line=_line,
            offset=min(len(token), expected),
        )
    bits = 0
    for pos in range(body_start, expected):
        bits = bits << 6 | _char_value(token, pos, _line)
    pad = -edge_bits % 6
    if bits & (1 << pad) - 1:
        raise FormatError("nonzero padding bits", line=_line, offset=len(token) - 1)
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


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse one graph6 token per nonblank line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            out.append(parse_graph6(raw, _line=lineno))
    return out


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one ``u v`` pair per line, 0-indexed vertices,
    with an optional leading ``n <order>`` line. Without the header the order
    is one more than the largest index seen."""
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not edges and declared is None and tokens[0] == "n":
            if len(tokens) != 2:
                raise FormatError("order header must be exactly 'n <count>'", line=lineno)
            try:
                declared = int(tokens[1])
            except ValueError:
                raise FormatError(f"order {tokens[1]!r} is not an integer", line=lineno) from None
            if declared < 0:
                raise FormatError(f"negative order {declared}", line=lineno)
            continue
        if len(tokens) != 2:
            raise FormatError(f"expected 'u v', got {len(tokens)} tokens", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {raw.strip()!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise FormatError(f"negative vertex in edge ({u}, {v})", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        if declared is not None and (u >= declared or v >= declared):
            raise FormatError(f"edge ({u}, {v}) out of range for declared order {declared}", line=lineno)
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
