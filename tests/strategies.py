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


@st.composite
def small_graphs(draw, max_order: int = 9) -> Graph:
    """A labelled graph on 1..max_order vertices, connected or not."""
    n = draw(st.integers(1, max_order))
    return from_edges(n, [e for e in combinations(range(n), 2) if draw(st.booleans())])
