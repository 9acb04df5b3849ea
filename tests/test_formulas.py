from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pdom.domination import influencing_intersection, influencing_set, is_p_dominating, partial_domination_number
from pdom.formulas import (
    domination_grid,
    half_domination_complete_product,
    half_domination_grid,
    half_domination_path,
    half_domination_path_complete,
    influencing_complete_bipartite,
    influencing_intersection_path,
    influencing_path,
)
from pdom.graphs import (
    cartesian_product,
    complete,
    complete_bipartite,
    from_edges,
    mask_of,
    path,
    pendant_wheel_graph,
)

HALF = Fraction(1, 2)


@pytest.mark.parametrize("n,expected", [(1, 1), (6, 1), (7, 2), (12, 2), (13, 3)])
def test_half_domination_path_values(n, expected):
    assert half_domination_path(n) == expected


def test_half_domination_path_matches_solver():
    for n in range(1, 16):
        assert half_domination_path(n) == partial_domination_number(path(n), HALF).size
    with pytest.raises(ValueError):
        half_domination_path(0)


@pytest.mark.parametrize("m,n,expected", [(1, 7, 3), (2, 5, 3), (3, 4, 4), (4, 4, 4), (4, 6, 7), (4, 9, 10)])
def test_domination_grid_values(m, n, expected):
    assert domination_grid(m, n) == expected


def test_domination_grid_matches_solver():
    # Grids of up to 48 vertices, beyond the reach of the brute-force
    # oracle; every set must cover all vertices, so each solve runs with
    # zero slack. One seeded relabelling checks a label order with large
    # bandwidth as well.
    rng = random.Random(7)
    for m in range(1, 5):
        for n in range(m, 13):
            g = cartesian_product(path(m), path(n))
            labels = list(range(g.order))
            rng.shuffle(labels)
            for h in (g, from_edges(g.order, [(labels[u], labels[v]) for u, v in g.edges()])):
                result = partial_domination_number(h, 1)
                assert result.size == domination_grid(m, n), (m, n)
                assert is_p_dominating(h, result.witness, 1)
    for m, n in [(0, 3), (5, 5), (4, 3)]:
        with pytest.raises(ValueError):
            domination_grid(m, n)


@pytest.mark.parametrize("m,n,expected", [(2, 4, 1), (3, 4, 2), (5, 5, 3), (2, 2, 1)])
def test_half_domination_grid_values(m, n, expected):
    assert half_domination_grid(m, n) == expected


def test_half_domination_grid_matches_solver():
    # Every grid within the 64-vertex cap: 80 shapes.
    shapes = [(m, n) for m in range(2, 9) for n in range(m, 64 // m + 1)]
    assert len(shapes) == 80
    for m, n in shapes:
        got = partial_domination_number(cartesian_product(path(m), path(n)), HALF).size
        assert half_domination_grid(m, n) == got, (m, n)


def test_half_domination_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        half_domination_grid(1, 5)
    with pytest.raises(ValueError):
        half_domination_grid(4, 3)


@pytest.mark.parametrize("m,n,expected", [(3, 3, 1), (4, 4, 2), (2, 2, 1), (1, 1, 1)])
def test_half_domination_complete_product_values(m, n, expected):
    assert half_domination_complete_product(m, n) == expected


def test_half_domination_complete_product_rejects_empty_factors():
    with pytest.raises(ValueError, match=r"^complete factors need at least 1 vertex, got \(0, 1\)$"):
        half_domination_complete_product(0, 1)


def test_half_domination_complete_product_matches_solver():
    for m in range(1, 7):
        for n in range(1, m + 1):
            got = partial_domination_number(cartesian_product(complete(m), complete(n)), HALF).size
            assert half_domination_complete_product(m, n) == got


def test_complete_product_search_equals_square_root_form():
    for m in range(1, 101):
        for n in range(1, 101):
            integer_search = half_domination_complete_product(m, n)
            bracketed = -(-(m + n - math.isqrt(m * m + n * n)) // 2)
            assert integer_search == bracketed, (m, n)


@pytest.mark.parametrize("n,m,expected", [(3, 4, 1), (5, 3, 2), (2, 2, 1), (6, 1, 1)])
def test_half_domination_path_complete_values(n, m, expected):
    assert half_domination_path_complete(n, m) == expected


def test_half_domination_path_complete_rejects_empty_factors():
    with pytest.raises(ValueError, match=r"^factors need at least 1 vertex, got \(0, 1\)$"):
        half_domination_path_complete(0, 1)


def test_half_domination_path_complete_matches_solver():
    for n in range(2, 7):
        for m in range(2, 5):
            got = partial_domination_number(cartesian_product(path(n), complete(m)), HALF).size
            assert half_domination_path_complete(n, m) == got


def test_influencing_complete_bipartite_cases():
    # large-side singletons drop out exactly in the middle band
    full = (1 << 6) - 1
    side_two = mask_of([4, 5])
    assert influencing_complete_bipartite(4, 2, Fraction(3, 6)) == full
    assert influencing_complete_bipartite(4, 2, Fraction(4, 6)) == side_two
    assert influencing_complete_bipartite(4, 2, Fraction(5, 6)) == side_two
    assert influencing_complete_bipartite(4, 2, Fraction(1)) == full
    assert influencing_complete_bipartite(3, 3, Fraction(2, 6)) == full


def test_influencing_complete_bipartite_matches_solver():
    for m in range(1, 7):
        for n in range(1, m + 1):
            g = complete_bipartite(m, n)
            for k in range(1, m + n + 1):
                p = Fraction(k, m + n)
                assert influencing_complete_bipartite(m, n, p) == influencing_set(g, p), (m, n, k)


def test_influencing_complete_bipartite_rejects_bad_input():
    with pytest.raises(ValueError):
        influencing_complete_bipartite(2, 4, HALF)  # sides out of order
    with pytest.raises(ValueError):
        influencing_complete_bipartite(4, 2, 0)
    with pytest.raises(ValueError):
        influencing_complete_bipartite(4, 2, Fraction(1, 5))  # not a multiple of 1/6


@pytest.mark.parametrize("n,p,expected", [
    (6, Fraction(1), [1, 4]),                      # interior anchors only
    (7, Fraction(6, 7), [1, 2, 4, 5]),             # drop every third starting at the left leaf
    (8, Fraction(1), [0, 1, 3, 4, 6, 7]),          # drop the two interior thirds
    (6, Fraction(3, 6), [1, 2, 3, 4]),             # interior band
    (6, Fraction(2, 6), [0, 1, 2, 3, 4, 5]),
])
def test_influencing_path_cases(n, p, expected):
    assert influencing_path(n, p) == mask_of(expected)


def test_influencing_path_matches_solver():
    for n in range(2, 13):
        for j in range(1, n + 1):
            p = Fraction(j, n)
            assert influencing_path(n, p) == influencing_set(path(n), p), (n, j)


def test_influencing_path_rejects_bad_input():
    with pytest.raises(ValueError):
        influencing_path(6, Fraction(1, 4))
    with pytest.raises(ValueError):
        influencing_path(6, 0)
    with pytest.raises(ValueError):
        influencing_path(0, Fraction(1))


@pytest.mark.parametrize("n,expected", [
    (6, [1, 4]),
    (7, [1, 2, 4, 5]),
    (8, [1, 3, 4, 6]),
    (3, [1]),
])
def test_influencing_intersection_path_cases(n, expected):
    assert influencing_intersection_path(n) == mask_of(expected)


def test_influencing_intersection_path_matches_solver():
    for n in range(3, 13):
        assert influencing_intersection_path(n) == influencing_intersection(path(n)), n
    with pytest.raises(ValueError):
        influencing_intersection_path(2)


def test_threshold_guarantees_full_influence():
    # For p up to (min degree + 1)/n every vertex is in some minimum set.
    for g in (path(7), complete(5), complete_bipartite(3, 2), pendant_wheel_graph()):
        n = g.order
        bound = Fraction(g.min_degree() + 1, n)
        for k in range(1, n + 1):
            p = Fraction(k, n)
            if p <= bound:
                assert influencing_set(g, p) == g.full_mask, (g.adj, k)
