from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given

import pdom.domination
import pdom.locating
from pdom.graphs import (
    path,
    pendant_wheel_graph,
    twin_broom_tree,
    twin_hub_graph,
)
from pdom.locating import proximity_verdict, support_within_two

from brute import brute_minimum_sets, neighbor_sets
from strategies import SEEDED, small_graphs

HALF = Fraction(1, 2)


def test_verdict_twin_hub_high_proportion():
    verdict = proximity_verdict(twin_hub_graph(), Fraction(8, 9), 0)
    assert verdict.vertex == 0
    assert not verdict.contains_vertex
    assert not verdict.hits_neighbors
    assert verdict.hits_distance_two


def test_verdict_pendant_wheel():
    verdict = proximity_verdict(pendant_wheel_graph(), Fraction(7, 9), 0)
    assert not verdict.contains_vertex
    assert verdict.hits_neighbors
    assert verdict.hits_distance_two


def test_verdict_twin_broom():
    verdict = proximity_verdict(twin_broom_tree(), Fraction(9, 11), 0)
    assert not verdict.contains_vertex
    assert verdict.hits_neighbors


def test_verdict_validation():
    with pytest.raises(ValueError):
        proximity_verdict(path(3), HALF, 0)  # not a max-degree vertex
    with pytest.raises(ValueError):
        proximity_verdict(path(3), 0, 1)
    with pytest.raises(ValueError):
        support_within_two(path(3), 0, 1)


@pytest.mark.parametrize("v", [-1, 3])
@pytest.mark.parametrize("verdict", [proximity_verdict, support_within_two])
def test_verdicts_reject_out_of_range_vertices(verdict, v):
    # Both index g.adj[v], where v = -1 would wrap round to the last vertex.
    with pytest.raises(ValueError, match=f"^vertex {v} out of range for order 3$"):
        verdict(path(3), HALF, v)


def test_support_within_two_examples():
    assert support_within_two(twin_hub_graph(), Fraction(8, 9), 0) is True
    assert support_within_two(twin_broom_tree(), Fraction(9, 11), 0) is True
    # vertex 2 sits inside the unique minimum set, so the check is idle
    assert support_within_two(twin_broom_tree(), Fraction(9, 11), 2) is None


def test_minimum_sets_stay_within_distance_two(connected_upto_5):
    # every family must touch the closed 2-ball of each max-degree vertex,
    # and families avoiding the vertex keep two members that close
    for g in connected_upto_5:
        n = g.order
        top = [v for v in range(n) if g.degree(v) == g.max_degree()]
        for k in range(1, n + 1):
            p = Fraction(k, n)
            for v in top:
                verdict = proximity_verdict(g, p, v)
                assert verdict.contains_vertex or verdict.hits_neighbors or verdict.hits_distance_two
                assert support_within_two(g, p, v) in (None, True)


def test_verdict_never_lists_the_family(monkeypatch, connected_upto_5):
    # The verdict reads the influencing set; listing every minimum set is
    # what support_within_two does, and it would cost the whole family here.
    def refuse(g, p):
        raise AssertionError("proximity_verdict listed the family")

    monkeypatch.setattr(pdom.locating, "all_minimum_sets", refuse)
    monkeypatch.setattr(pdom.domination, "all_minimum_sets", refuse)
    for g in connected_upto_5 + [twin_hub_graph(), pendant_wheel_graph(), twin_broom_tree()]:
        top = [v for v in range(g.order) if g.degree(v) == g.max_degree()]
        for k in range(1, g.order + 1):
            for v in top:
                proximity_verdict(g, Fraction(k, g.order), v)


@SEEDED
@given(small_graphs())
@example(twin_hub_graph())
@example(pendant_wheel_graph())
@example(twin_broom_tree())
def test_verdict_matches_brute_family(g):
    # Shells and family from the brute oracle's plain sets, not from the
    # graph's masks.
    nbrs = neighbor_sets(g)
    n = g.order
    top = [v for v in range(n) if g.degree(v) == g.max_degree()]
    for k in range(1, n + 1):
        p = Fraction(k, n)
        family = [set(combo) for combo in brute_minimum_sets(g, p)]
        for v in top:
            ring = set().union(*(nbrs[u] for u in nbrs[v])) - nbrs[v] - {v}
            expected = (
                any(v in s for s in family),
                any(s & nbrs[v] for s in family),
                any(s & ring for s in family),
            )
            verdict = proximity_verdict(g, p, v)
            got = (verdict.contains_vertex, verdict.hits_neighbors, verdict.hits_distance_two)
            assert verdict.vertex == v
            assert got == expected, (g.adj, k, v)
