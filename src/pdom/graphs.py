"""Bitset-backed simple undirected graphs, generators, and Cartesian products.

Vertices are integers 0..n-1 and every vertex set is a plain int bitmask, so
neighborhood unions, coverage counts, and membership tests are single machine
operations. Order is capped at MAX_VERTICES to keep masks within one word.

Rows are checked where they enter. Graph(adj) checks each row in vertex
order for range, then a self-loop, then each neighbour upward for its
partner, and names the first faulty row; the enumerator and every parser
build through it. The one exception is cartesian_product: a product of two
Graphs is symmetric, loop-free and in range by construction, and its order
is bounded before it is built, so it skips a check that cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class VertexCapError(ValueError):
    """Raised when a construction would exceed MAX_VERTICES vertices."""


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertices set."""
    out = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex {v}")
        out |= 1 << v
    return out


def members(mask: int) -> tuple[int, ...]:
    """Vertices of a bitmask in increasing order."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _byte_labels() -> tuple[tuple[str, ...], ...]:
    """Row k, entry b: the labels of byte k of a mask whose value is b, each
    followed by a comma ("8,10," for k = 1, b = 5). The entries with top bit
    h are those below 2**h with the label of bit h appended."""
    rows = []
    for k in range(MAX_VERTICES // 8):
        row = [""]
        for v in range(8 * k, 8 * k + 8):
            label = f"{v},"
            row += [r + label for r in row]
        rows.append(tuple(row))
    return tuple(rows)


_BYTE_LABELS = _byte_labels()


def format_vertex_set(mask: int) -> str:
    """Render a bitmask as ``{0,3,5}`` (no spaces, increasing order)."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    text = ""
    for row in _BYTE_LABELS:
        if not mask:
            break
        text += row[mask & 255]
        mask >>= 8
    if mask:  # vertices beyond the table, from MAX_VERTICES on
        text += "".join(f"{v + MAX_VERTICES}," for v in members(mask))
    return "{" + text[:-1] + "}"


@dataclass(frozen=True)
class Graph:
    """Immutable graph; ``adj[v]`` is the open-neighborhood bitmask of v.

    Construction checks the rows: an order over MAX_VERTICES raises
    VertexCapError, and a negative row, a row with a bit at n or above, a
    self-loop, or an edge missing from its partner's row raises ValueError
    naming the first faulty row. Only cartesian_product builds a Graph
    without the check (see the module docstring)."""

    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        adj = tuple(self.adj)
        object.__setattr__(self, "adj", adj)
        n = len(adj)
        if n > MAX_VERTICES:
            raise VertexCapError(f"order {n} exceeds the cap of {MAX_VERTICES}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"neighborhood of vertex {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    @property
    def order(self) -> int:
        return len(self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.adj)) - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.adj):
            raise ValueError(f"vertex {v} out of range for order {len(self.adj)}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        if not self.adj:
            raise ValueError("max_degree of an empty graph")
        return max(row.bit_count() for row in self.adj)

    def min_degree(self) -> int:
        if not self.adj:
            raise ValueError("min_degree of an empty graph")
        return min(row.bit_count() for row in self.adj)

    def max_degree_vertices(self) -> int:
        """Bitmask of the vertices attaining the maximum degree."""
        top = self.max_degree()
        return mask_of(v for v in range(self.order) if self.adj[v].bit_count() == top)

    def closed_neighborhood_of_set(self, s: int) -> int:
        """N[S]: S together with every neighbor of a member of S."""
        if s & ~self.full_mask:
            raise ValueError("set mask mentions vertices outside the graph")
        out = s
        t = s
        while t:
            low = t & -t
            out |= self.adj[low.bit_length() - 1]
            t ^= low
        return out

    def closed_two_ball(self, v: int) -> int:
        """Vertices at distance at most two from v (v included)."""
        self._check_vertex(v)
        return self.closed_neighborhood_of_set(self.adj[v] | 1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.order):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in members(row):
                yield (u, v)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph of order n with the given edge list (range errors rejected here,
    loops by Graph)."""
    if n < 0:
        raise ValueError(f"negative order {n}")
    if n > MAX_VERTICES:
        raise VertexCapError(f"order {n} exceeds the cap of {MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: side one is 0..m-1, side two is m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError(f"complete bipartite sides must be positive, got {m}, {n}")
    return from_edges(m + n, ((u, m + v) for u in range(m) for v in range(n)))


def star(k: int) -> Graph:
    """Star with center 0 and leaves 1..k."""
    if k < 1:
        raise ValueError(f"star needs at least 1 leaf, got {k}")
    return from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def subdivided_star(k: int) -> Graph:
    """Star on k legs with every edge subdivided: center 0, inner vertices
    1..k, and the outer leaf of inner i is k+i."""
    if k < 1:
        raise ValueError(f"subdivided star needs at least 1 leg, got {k}")
    return from_edges(2 * k + 1, (e for i in range(1, k + 1) for e in ((0, i), (i, k + i))))


def twin_hub_graph() -> Graph:
    """Nine vertices: apex 0 joined to mids 1-4; hub 5 joins mids 1,2 and hub 6
    joins mids 3,4; leaf 7 hangs on hub 5 and leaf 8 on hub 6. The unique pair
    covering eight vertices is the two hubs."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),  # apex to mids
        (1, 5), (2, 5),                  # hub 5 under mids 1,2
        (3, 6), (4, 6),                  # hub 6 under mids 3,4
        (5, 7), (6, 8),                  # pendant leaves of the hubs
    ]
    return from_edges(9, edges)


def pendant_wheel_graph() -> Graph:
    """Hub 0 joined to ring 1-4 (a 4-cycle), each ring vertex carrying a
    pendant leaf: the leaf of ring vertex i is i+4."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),  # hub spokes
        (1, 2), (2, 3), (3, 4), (1, 4),  # ring
        (1, 5), (2, 6), (3, 7), (4, 8),  # pendant leaves
    ]
    return from_edges(9, edges)


def twin_broom_tree() -> Graph:
    """Tree on 11 vertices: root 0 with leaf children 1 and 4 and broom
    children 2 and 3; broom 2 carries leaves 5-7, broom 3 carries leaves
    8-10."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (2, 5), (2, 6), (2, 7),
        (3, 8), (3, 9), (3, 10),
    ]
    return from_edges(11, edges)


def _check_product_order(n: int, m: int) -> None:
    """Reject factor orders n and m whose product cannot be built: an empty
    factor, or a product over the vertex cap."""
    if n == 0 or m == 0:
        raise ValueError("product factors must be nonempty")
    if n * m > MAX_VERTICES:
        raise VertexCapError(f"product order {n * m} exceeds the cap of {MAX_VERTICES}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (i, j) of G x H maps to index i*|H| + j."""
    n, m = g.order, h.order
    _check_product_order(n, m)
    # spread[i]: vertex (k, 0) for each neighbour k of i in G. Row (i, j) is
    # (i, j') for the neighbours j' of j in H and (k, j) for those k of i in G.
    spread = []
    for row in g.adj:
        out = shift = 0
        while row:
            if row & 1:
                out |= 1 << shift
            row >>= 1
            shift += m
        spread.append(out)
    product = object.__new__(Graph)  # unchecked: it cannot fail (module docstring)
    object.__setattr__(product, "adj", tuple(h.adj[j] << i * m | spread[i] << j for i in range(n) for j in range(m)))
    return product
