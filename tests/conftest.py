from __future__ import annotations

import pytest

from pdom.conjecture import enumerate_graphs


@pytest.fixture(scope="session")
def graphs_upto_7() -> list:
    """All graphs up to isomorphism with 1..7 vertices, connected or not."""
    return list(enumerate_graphs(7, connected=False))


@pytest.fixture(scope="session")
def graphs_upto_6() -> list:
    """All graphs up to isomorphism with 1..6 vertices, connected or not."""
    return list(enumerate_graphs(6, connected=False))


@pytest.fixture(scope="session")
def connected_upto_6() -> list:
    """The connected graphs with 1..6 vertices, from the connected enumeration."""
    return list(enumerate_graphs(6))


@pytest.fixture(scope="session")
def connected_upto_5(connected_upto_6) -> list:
    return [g for g in connected_upto_6 if g.order <= 5]
