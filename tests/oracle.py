"""An order-free oracle for partial domination on graphs too large for
tests/brute.py, which stops near order 9.

A cover-driven branching search that shares no code with pdom.domination:
it reads only the adjacency rows of the Graph container. It branches on
the undecided vertex with the fewest allowed coverers, the rule of van
Rooij and Bodlaender, "Exact algorithms for dominating set", Discrete
Appl. Math. 159 (2011): one branch per allowed coverer, in label order,
each forbidding the coverers tried before it, and, while slack remains, a
branch that leaves the vertex uncovered and forbids all of its coverers.
These branches split the vertex sets into disjoint classes, so each set is
reached at most once. Sizes are tried upward, so the first size with a
hit is the minimum, and at that size every set reached is minimum.
"""

from __future__ import annotations

from pdom.graphs import Graph


def minimum_covers(g: Graph, target: int) -> list[tuple[int, ...]]:
    """Every least-size vertex set whose closed neighbourhood holds at least
    target vertices, each as an ascending label tuple, in lex order."""
    n = g.order
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    everything = (1 << n) - 1
    sets: list[tuple[int, ...]] = []

    def branch(picks: int, slack: int, undecided: int, allowed: int, chosen: tuple[int, ...]) -> None:
        # undecided: the vertices neither covered by chosen nor left
        # uncovered on purpose; slack: how many more may be left uncovered.
        need = undecided.bit_count() - slack
        if need <= 0:
            sets.append(chosen)  # chosen covers the target, so its size is the minimum
            return
        gain = max([(closed[w] & undecided).bit_count() for w in range(n) if allowed >> w & 1], default=0)
        if picks * gain < need:
            return
        u = min((v for v in range(n) if undecided >> v & 1), key=lambda v: (closed[v] & allowed).bit_count())
        coverers = closed[u] & allowed
        tried = 0
        for w in range(n):
            if coverers >> w & 1:
                tried |= 1 << w
                branch(picks - 1, slack, undecided & ~closed[w], allowed & ~tried, chosen + (w,))
        if slack:
            branch(picks, slack - 1, undecided & ~(1 << u), allowed & ~closed[u], chosen)

    for size in range(n + 1):
        branch(size, n - target, everything, everything, ())
        if sets:
            return sorted(tuple(sorted(s)) for s in sets)
    raise AssertionError("the whole vertex set covers every vertex")
