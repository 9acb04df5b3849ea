"""Shared Hypothesis strategies and the seed policy for property tests.

Every property test runs derandomized with no example database, so a run
draws the same graphs on every machine and a failure reproduces as is.

The seed of a property is a digest of its test function's source from the
def line on, comments left out. Editing a property's body, even into an
equivalent form, therefore re-draws every graph it sees, while its
decorators and comments can change freely. A property that
tools/mutants.py names as a mutant's catcher may lose that catch to such
an edit, so after one, run python tools/mutants.py again.

The properties on the larger strategies below (sparse graphs, trees and
spiders, orders 10-24) derive their settings from SEEDED_SPARSE. Each
example runs the kernel at many targets, most against an exhaustive
reference, so shrinking a failure there can take minutes, long enough to
pass for a hang. They skip the shrink phase and report the first failing
example as drawn. Phases do not enter the seed, so the same graphs are
drawn with and without it.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import Phase, assume, settings
from hypothesis import strategies as st

from pdom.graphs import Graph, from_edges

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=120)
# The brute oracle takes tens of milliseconds per sparse_graphs example, so fewer of them.
SEEDED_SPARSE = settings(SEEDED, max_examples=10, phases=[phase for phase in Phase if phase is not Phase.shrink])


@st.composite
def small_graphs(draw, max_order: int = 9) -> Graph:
    """A labelled graph on 1..max_order vertices, connected or not."""
    n = draw(st.integers(1, max_order))
    return from_edges(n, [e for e in combinations(range(n), 2) if draw(st.booleans())])


@st.composite
def sparse_graphs(draw, min_order: int = 10, max_order: int = 14) -> Graph:
    """A labelled graph on min_order..max_order vertices with at most as
    many edges as vertices, so many vertices are isolated or pendant."""
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(n), 2))
    return from_edges(n, draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)))


def _labelled(draw, n: int, edges: list[tuple[int, int]]) -> Graph:
    labels = draw(st.permutations(range(n)))
    return from_edges(n, [(labels[u], labels[v]) for u, v in edges])


@st.composite
def trees(draw, min_order: int = 10, max_order: int = 16) -> Graph:
    """A random recursive tree, each vertex joined to an earlier one, under
    a random labelling."""
    n = draw(st.integers(min_order, max_order))
    return _labelled(draw, n, [(v, draw(st.integers(0, v - 1))) for v in range(1, n)])


@st.composite
def sparse_connected_graphs(draw, min_order: int = 10, max_order: int = 24) -> Graph:
    """One of the trees above with up to n/4 extra edges: connected, and
    sparse enough that the kernel's memo and slack bounds meet states the
    small_graphs strategy does not."""
    tree = draw(trees(min_order, max_order))
    n = tree.order
    extra = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=n // 4))
    return from_edges(n, [*tree.edges(), *extra])


@st.composite
def spiders(draw, min_order: int = 10, max_order: int = 16) -> Graph:
    """Three or more paths of unequal lengths joined at one end to a center,
    under a random labelling: one pick covers little on a long leg and much
    at the center."""
    n = draw(st.integers(min_order, max_order))
    legs: list[int] = []
    while sum(legs) < n - 1:
        legs.append(draw(st.integers(1, min(5, n - 1 - sum(legs)))))
    assume(len(legs) >= 3 and len(set(legs)) > 1)
    edges = []
    v = 1
    for length in legs:
        edges += [(0, v)] + [(u, u + 1) for u in range(v, v + length - 1)]
        v += length
    return _labelled(draw, n, edges)
