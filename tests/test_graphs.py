from __future__ import annotations

import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pdom.conjecture import enumerate_graphs
from pdom.graphs import (
    MAX_VERTICES,
    Graph,
    VertexCapError,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    format_vertex_set,
    from_edges,
    mask_of,
    members,
    path,
    pendant_wheel_graph,
    star,
    subdivided_star,
    twin_broom_tree,
    twin_hub_graph,
)

from brute import brute_adjacency_error, random_graph
from strategies import SEEDED


def test_mask_helpers_round_trip():
    assert members(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of([]) == 0
    assert members(0) == ()
    assert format_vertex_set(mask_of([2, 0])) == "{0,2}"
    assert format_vertex_set(0) == "{}"
    with pytest.raises(ValueError):
        mask_of([-1])
    with pytest.raises(ValueError):
        members(-1)  # the lowest-bit loop never ends on a negative int
    with pytest.raises(ValueError):
        format_vertex_set(-1)
    with pytest.raises(ValueError):
        format_vertex_set(-1 << 70)


@SEEDED
@given(st.integers(0, (1 << MAX_VERTICES) - 1))
@example(0)
@example(1 << 63)
@example((1 << MAX_VERTICES) - 1)
@example(0xFF)
@example(0x100)
@example(1 << 64 | 1)
@example(1 << 200)
def test_format_vertex_set_matches_members(mask):
    assert format_vertex_set(mask) == "{" + ",".join(map(str, members(mask))) + "}"


def test_construction_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph((0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph((0b01,))  # self-loop
    with pytest.raises(ValueError):
        Graph((0b100, 0b000))  # neighbor out of range
    with pytest.raises(VertexCapError):
        Graph((0,) * (MAX_VERTICES + 1))
    with pytest.raises(TypeError):
        Graph((0.0,))  # a row is an int mask
    with pytest.raises(VertexCapError):
        from_edges(MAX_VERTICES + 1, [])


def test_asymmetric_adjacency_reports_first_pair():
    # Rows are checked in vertex order and each row's neighbours upward:
    # 2 is the first neighbour whose row lacks its partner (0), though 3's
    # row also lacks 1.
    adj = (mask_of([1, 2]), mask_of([0, 3]), mask_of([3]), mask_of([2]))
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 2 and 0$"):
        Graph(adj)


def test_one_pass_validation_reports_the_first_faulty_row():
    # Each row is checked for range, then self-loop, then symmetry before the
    # next row: row 0 lacks its partner in row 1, and the self-loop at 2 comes
    # later.
    adj = (mask_of([1]), 0, mask_of([2]))
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 1 and 0$"):
        Graph(adj)


def _construction_error(adj: tuple[int, ...]) -> tuple[type, str] | None:
    try:
        g = Graph(adj)
    except ValueError as error:
        return type(error), str(error)
    assert g.adj == adj
    return None


def test_validation_matches_the_row_loop_on_every_small_matrix():
    for n in range(4):
        for adj in itertools.product(range(1 << n), repeat=n):
            assert _construction_error(adj) == brute_adjacency_error(adj), adj


def _mutant(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random simple graph of order n with up to three of its rows broken."""
    adj = list(random_graph(rng, n, rng.random()).adj)
    width = next(w for w in (8, 16, 32, 64) if w >= n)
    for _ in range(rng.randint(0, 3) if n else 0):
        v, u = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(7)
        if kind == 0:  # flip one bit: a one-sided edge or a self-loop
            adj[v] ^= 1 << u
        elif kind == 1:
            adj[v] |= 1 << n
        elif kind == 2:
            adj[v] |= 1 << width
        elif kind == 3:
            adj[v] |= 1 << rng.randrange(64, 130)
        elif kind == 4:
            adj[v] = rng.choice((-1, ~adj[v], adj[v] - (1 << 64), -(1 << rng.randrange(n + 1))))
        elif kind == 5:
            adj[v] |= 1 << v
        else:  # an edge written in one row only
            adj[v] |= 1 << u
            adj[u] &= ~(1 << v)
    return tuple(adj)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
def test_validation_matches_the_row_loop_on_mutants(n):
    rng = random.Random(n)
    valid = 0
    for _ in range(300):
        adj = _mutant(rng, n) if n <= MAX_VERTICES else tuple(rng.getrandbits(n) for _ in range(n))
        expected = brute_adjacency_error(adj)
        valid += expected is None
        assert _construction_error(adj) == expected, adj
    if 0 < n <= MAX_VERTICES:
        assert 0 < valid < 300  # both outcomes were exercised


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self-loop"):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(-1, [])
    g = from_edges(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert list(g.edges()) == [(0, 1)]


def test_vertex_queries_and_range_checks():
    g = path(3)
    assert g.order == 3
    assert g.adj[1] == mask_of([0, 2])
    assert g.degree(0) == 1 and g.degree(1) == 2
    with pytest.raises(ValueError):
        g.degree(3)
    for v in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            g.closed_two_ball(v)
    with pytest.raises(ValueError):
        g.closed_neighborhood_of_set(1 << 5)
    empty = Graph(())
    with pytest.raises(ValueError):
        empty.max_degree()


def test_degree_statistics():
    assert complete(5).max_degree() == 4
    assert star(6).max_degree() == 6
    assert complete(4).adj[0] == mask_of(range(1, 4))


def test_closed_neighborhood_of_set():
    g = path(6)
    assert g.closed_neighborhood_of_set(0) == 0
    assert g.closed_neighborhood_of_set(mask_of([1, 4])) == mask_of(range(6))


def test_coverage_monotone_under_inclusion():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, 9)
        small = rng.getrandbits(9) & g.full_mask
        large = small | (rng.getrandbits(9) & g.full_mask)
        covered_small = g.closed_neighborhood_of_set(small)
        covered_large = g.closed_neighborhood_of_set(large)
        assert covered_small & ~covered_large == 0


def test_distance_two_shells():
    # the vertices at distance exactly two: the 2-ball less N[v]
    g = path(6)
    assert g.closed_two_ball(0) == mask_of([0, 1, 2])
    for h, shell in [(g, [2]), (cycle(6), [2, 4]), (complete(4), [])]:
        assert h.closed_two_ball(0) & ~(h.adj[0] | 1) == mask_of(shell)


@pytest.mark.parametrize("n,edges", [(1, 0), (2, 1), (6, 5)])
def test_path_shape(n, edges):
    g = path(n)
    assert g.order == n and len(list(g.edges())) == edges
    with pytest.raises(ValueError):
        path(0)


def test_generator_shapes():
    assert len(list(cycle(5).edges())) == 5
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    assert len(list(complete(6).edges())) == 15
    g = complete_bipartite(4, 2)
    assert g.order == 6 and len(list(g.edges())) == 8
    assert [g.degree(v) for v in range(6)] == [2, 2, 2, 2, 4, 4]
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError, match="^complete graph needs at least 1 vertex, got 0$"):
        complete(0)
    with pytest.raises(ValueError):
        complete_bipartite(0, 2)
    with pytest.raises(ValueError):
        star(0)
    with pytest.raises(ValueError):
        subdivided_star(0)


@pytest.mark.parametrize("make", [cycle, complete, subdivided_star])
def test_generators_check_cap_before_building_edges(make):
    tracemalloc.start()
    try:
        with pytest.raises(VertexCapError):
            make(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_subdivided_star_shape():
    g = subdivided_star(8)
    assert g.order == 17
    assert len(list(g.edges())) == 16
    assert g.degree(0) == 8
    assert g.adj[0] == mask_of(range(1, 9))
    # every leg: center - inner - leaf
    for i in range(1, 9):
        assert g.adj[i] == mask_of([0, 8 + i])
        assert g.adj[8 + i] == mask_of([i])


def test_twin_hub_fixture_shape():
    g = twin_hub_graph()
    assert g.order == 9
    degrees = [g.degree(v) for v in range(9)]
    assert degrees == [4, 2, 2, 2, 2, 3, 3, 1, 1]
    # the two hubs together reach everything except the apex
    assert g.closed_neighborhood_of_set(mask_of([5, 6])) == g.full_mask & ~1
    # hubs sit at distance two from the apex
    assert g.closed_two_ball(0) & ~(g.adj[0] | 1) == mask_of([5, 6])


def test_pendant_wheel_fixture_shape():
    g = pendant_wheel_graph()
    assert g.order == 9
    assert g.degree(0) == 4
    assert g.adj[0] == mask_of([1, 2, 3, 4])
    # ring vertices: hub + two ring neighbors + pendant
    for v in range(1, 5):
        assert g.degree(v) == 4
    for v in range(5, 9):
        assert g.degree(v) == 1
        assert g.adj[v] == mask_of([v - 4])


def test_twin_broom_fixture_shape():
    g = twin_broom_tree()
    assert g.order == 11
    assert len(list(g.edges())) == 10  # a tree
    assert g.adj[0] == mask_of([1, 2, 3, 4])
    assert g.max_degree() == 4
    assert [v for v in range(11) if g.degree(v) == g.max_degree()] == [0, 2, 3]
    assert g.adj[2] == mask_of([0, 5, 6, 7])
    assert g.adj[3] == mask_of([0, 8, 9, 10])


def test_product_of_two_edges_is_a_square():
    g = cartesian_product(path(2), path(2))
    assert g.order == 4 and len(list(g.edges())) == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_linearization_is_row_major():
    g = cartesian_product(path(2), path(3))
    expected = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    assert g.adj == expected.adj


def _networkx_product(g: Graph, h: Graph) -> tuple[int, ...]:
    """networkx's product of g and h, relabelled row-major ((i, j) -> i*|H| + j)."""
    a, b = nx.empty_graph(g.order), nx.empty_graph(h.order)
    a.add_edges_from(g.edges())
    b.add_edges_from(h.edges())
    m = h.order
    oracle = nx.relabel_nodes(nx.cartesian_product(a, b), lambda v: v[0] * m + v[1])
    return tuple(mask_of(oracle.neighbors(v)) for v in range(g.order * m))


def test_product_matches_networkx():
    # Every ordered pair of graphs of order <= 4, disconnected ones included.
    graphs = list(enumerate_graphs(4, connected=False))
    assert len(graphs) == 18
    for g in graphs:
        for h in graphs:
            assert cartesian_product(g, h).adj == _networkx_product(g, h)


# Products whose order is at or just past 8, 16 and 32 bits, and at the cap of
# 64, where a row shifted into the wrong place would show.
_PRODUCT_CASES = [
    (path(3), path(3)),
    (path(4), path(4)),
    (path(17), path(1)),
    (cycle(3), path(11)),
    (path(64), path(1)),
    (path(1), path(64)),
    (complete(8), complete(8)),
]
_PRODUCT_IDS = ["P3xP3", "P4xP4", "P17xP1", "C3xP11", "P64xP1", "P1xP64", "K8xK8"]


@pytest.mark.parametrize("g,h", _PRODUCT_CASES, ids=_PRODUCT_IDS)
def test_product_matches_networkx_at_each_packing_width(g, h):
    assert cartesian_product(g, h).adj == _networkx_product(g, h)


def _assert_passes_the_check(product: Graph) -> None:
    assert brute_adjacency_error(product.adj) is None
    assert Graph(product.adj) == product


def test_unchecked_products_pass_the_check():
    # cartesian_product skips Graph's row check; each result must pass it.
    graphs = list(enumerate_graphs(4, connected=False))
    for g in graphs:
        for h in graphs:
            _assert_passes_the_check(cartesian_product(g, h))


@pytest.mark.parametrize("g,h", _PRODUCT_CASES, ids=_PRODUCT_IDS)
def test_unchecked_products_pass_the_check_at_larger_orders(g, h):
    _assert_passes_the_check(cartesian_product(g, h))


def test_prism_is_cubic():
    g = cartesian_product(complete(2), complete(3))
    assert g.order == 6
    assert all(g.degree(v) == 3 for v in range(6))


def test_path_complete_product_max_degree():
    g = cartesian_product(path(5), complete(4))
    # interior path positions contribute 2, the complete factor m-1 = 3
    assert g.max_degree() == 5
    assert max((row | 1 << v).bit_count() for v, row in enumerate(g.adj)) == 6


def test_product_degree_sum_rule():
    rng = random.Random(11)
    for _ in range(10):
        a = random_graph(rng, rng.randint(1, 5))
        b = random_graph(rng, rng.randint(1, 5))
        prod = cartesian_product(a, b)
        for i in range(a.order):
            for j in range(b.order):
                assert prod.degree(i * b.order + j) == a.degree(i) + b.degree(j)


def test_product_transposition_isomorphism():
    rng = random.Random(13)
    for _ in range(10):
        a = random_graph(rng, rng.randint(1, 5))
        b = random_graph(rng, rng.randint(1, 5))
        ab = cartesian_product(a, b)
        ba = cartesian_product(b, a)

        def transpose(index: int) -> int:
            i, j = divmod(index, b.order)
            return j * a.order + i

        for v in range(ab.order):
            relabeled = mask_of(transpose(u) for u in members(ab.adj[v]))
            assert relabeled == ba.adj[transpose(v)]


def test_product_cap_and_empty_factors():
    assert cartesian_product(complete(8), complete(8)).order == 64
    with pytest.raises(VertexCapError):
        cartesian_product(complete(8), cycle(9))
    with pytest.raises(ValueError):
        cartesian_product(Graph(()), path(2))
