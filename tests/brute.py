"""Brute-force reference implementations for the test suite.

Deliberately simple and separate from the package internals: plain Python
sets, itertools.combinations, no pruning, no bit tricks. Only the Graph
container is shared; adjacency is re-read into sets here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from pdom.graphs import MAX_VERTICES, Graph, VertexCapError, from_edges


def brute_adjacency_error(adj: tuple[int, ...]) -> tuple[type, str] | None:
    """The exception type and message Graph(adj) should raise, or None. Rows
    are checked in vertex order, each for range, then a self-loop, then each
    neighbour upward for its partner, before the next row."""
    n = len(adj)
    if n > MAX_VERTICES:
        return VertexCapError, f"order {n} exceeds the cap of {MAX_VERTICES}"
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return ValueError, f"neighborhood of vertex {v} mentions vertices >= {n}"
        if row >> v & 1:
            return ValueError, f"self-loop at vertex {v}"
        for u in range(n):
            if row >> u & 1 and not adj[u] >> v & 1:
                return ValueError, f"asymmetric adjacency between {u} and {v}"
    return None


def neighbor_sets(g: Graph) -> list[set[int]]:
    n = g.order
    return [{u for u in range(n) if g.adj[v] >> u & 1} for v in range(n)]


def brute_target(n: int, p: Fraction) -> int:
    if n == 0:
        return 0
    c = 0
    while Fraction(c, n) < p:
        c += 1
    return c


def brute_coverage(nbrs: list[set[int]], chosen: set[int]) -> set[int]:
    out = set(chosen)
    for v in chosen:
        out |= nbrs[v]
    return out


def brute_gamma(g: Graph, p: Fraction) -> int:
    target = brute_target(g.order, p)
    nbrs = neighbor_sets(g)
    for k in range(g.order + 1):
        for combo in combinations(range(g.order), k):
            if len(brute_coverage(nbrs, set(combo))) >= target:
                return k
    raise AssertionError("the full vertex set always covers everything")


def brute_minimum_sets(g: Graph, p: Fraction) -> list[tuple[int, ...]]:
    target = brute_target(g.order, p)
    k = brute_gamma(g, p)
    nbrs = neighbor_sets(g)
    return [combo for combo in combinations(range(g.order), k)
            if len(brute_coverage(nbrs, set(combo))) >= target]


def brute_influencing(g: Graph, p: Fraction) -> set[int]:
    out: set[int] = set()
    for combo in brute_minimum_sets(g, p):
        out |= set(combo)
    return out


def brute_intersection(g: Graph) -> set[int]:
    out = set(range(g.order))
    for k in range(1, g.order + 1):
        out &= brute_influencing(g, Fraction(k, g.order))
    return out


def brute_connected(g: Graph) -> bool:
    if g.order == 0:
        return True
    nbrs = neighbor_sets(g)
    seen = {0}
    stack = [0]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.order


def brute_canonical(g: Graph) -> tuple[tuple[int, int], ...]:
    """Lexicographically least relabeled edge list over all permutations."""
    edges = list(g.edges())
    best = None
    for perm in permutations(range(g.order)):
        relabeled = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges
        ))
        if best is None or relabeled < best:
            best = relabeled
    return best if best is not None else ()


def brute_edge_mask(g: Graph, perm) -> int:
    """The edge mask of g relabelled by perm: the pair (a, b), a < b, sets
    the bit whose index is the pair's rank in lexicographic order."""
    rank = {pair: i for i, pair in enumerate(combinations(range(g.order), 2))}
    return sum(1 << rank[tuple(sorted((perm[u], perm[v])))] for u, v in g.edges())


def brute_least_mask(g: Graph) -> int:
    """The least edge mask over all relabellings of g."""
    return min(brute_edge_mask(g, perm) for perm in permutations(range(g.order)))


def random_graph(rng: random.Random, n: int, edge_probability: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < edge_probability]
    return from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, edge_probability: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, edge_probability)
        if brute_connected(g):
            return g
