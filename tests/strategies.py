"""Shared Hypothesis strategies and the seed policy for property tests.

Every property test runs derandomized with no example database, so a run
draws the same graphs on every machine and a failure reproduces as is.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

from pdom.graphs import Graph, from_edges

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=120)
# The brute oracle takes tens of milliseconds per sparse_graphs example, so fewer of them.
SEEDED_SPARSE = settings(SEEDED, max_examples=10)


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
