from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given

import pdom.conjecture
from pdom.conjecture import (
    REPORT_HEADER,
    ScanReport,
    check_product_inequality,
    enumerate_graphs,
    scan_conjecture,
)
from pdom.domination import is_p_dominating, partial_domination_number
from pdom.formats import parse_graph6, write_graph6
from pdom.graphs import Graph, VertexCapError, cartesian_product, complete, mask_of, path, subdivided_star

from brute import brute_canonical, brute_connected, brute_edge_mask, brute_gamma, brute_least_mask, neighbor_sets, random_graph
from strategies import SEEDED, small_graphs
from test_domination import _nodes_entered

HALF = Fraction(1, 2)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_connected_counts_per_order(connected_upto_6):
    assert Counter(g.order for g in connected_upto_6) == CONNECTED_COUNTS


def test_all_graph_counts_per_order(graphs_upto_6):
    assert Counter(g.order for g in graphs_upto_6) == ALL_COUNTS


def test_counts_match_independent_canonical_recount():
    # recount isomorphism classes by canonicalizing every labeled graph
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        seen_all = set()
        seen_connected = set()
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            for e, (i, j) in enumerate(pairs):
                if mask >> e & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            g = Graph(tuple(adj))
            key = brute_canonical(g)
            seen_all.add(key)
            if brute_connected(g):
                seen_connected.add(key)
        assert len(seen_all) == ALL_COUNTS[n]
        assert len(seen_connected) == CONNECTED_COUNTS[n]


def test_representatives_are_pairwise_nonisomorphic(graphs_upto_6):
    upto_5 = [g for g in graphs_upto_6 if g.order <= 5]
    keys = {(g.order, brute_canonical(g)) for g in upto_5}
    assert len(keys) == len(upto_5) == 52


def test_connected_enumeration_is_actually_connected(connected_upto_6):
    assert all(brute_connected(g) for g in connected_upto_6)


def test_enumeration_is_deterministic():
    first = [write_graph6(g) for g in enumerate_graphs(5, connected=False)]
    second = [write_graph6(g) for g in enumerate_graphs(5, connected=False)]
    assert first == second
    assert first[:3] == ["@", "A?", "A_"]


# sha256 of the graph6 lines of enumerate_graphs(7, connected=False), joined
# by newlines: scan records and bench/order7.g6 depend on these exact
# representatives in this exact order.
ORDER_7_SHA256 = "13bfdbaf93f37e96f0310b1909ce4d14e64ebe161a001183aacb750b83e68db9"


def test_order_7_enumeration_is_pinned(graphs_upto_7):
    listing = "\n".join(write_graph6(g) for g in graphs_upto_7)
    assert len(graphs_upto_7) == 1252
    assert hashlib.sha256(listing.encode()).hexdigest() == ORDER_7_SHA256


def test_bench_order7_file_is_the_order_7_enumeration():
    # The sweep benchmark reads its order-7 graphs from this file instead of
    # enumerating them; it must list the same graphs in the same order.
    lines = (Path(__file__).resolve().parents[1] / "bench" / "order7.g6").read_text().splitlines()
    expected = [write_graph6(g) for g in enumerate_graphs(7) if g.order == 7]
    assert len(expected) == 853
    assert lines == expected


def _search_size(connected: bool) -> tuple[int, Counter]:
    """The graphs enumerate_graphs(7, connected=connected) yields, and the
    calls of the census test, of the minimality test and of its nested
    search, and the children the census rejects, counted with a profile
    hook."""
    outranked = pdom.conjecture._outranked.__code__
    beaten = pdom.conjecture._beaten.__code__
    place = next(c for c in beaten.co_consts if getattr(c, "co_name", None) == "place")
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in (outranked, beaten, place):
            calls[frame.f_code.co_name] += 1
        elif event == "return" and frame.f_code is outranked and arg:
            calls["rejected"] += 1

    sys.setprofile(profile)
    try:
        graphs = sum(1 for _ in enumerate_graphs(7, connected=connected))
    finally:
        sys.setprofile(None)
    return graphs, calls


def test_enumeration_search_size_is_pinned():
    # The outputs stay the same when a pruning stops firing, so only these
    # counts show it. Without pruning _beaten and place ran 11,290 and
    # 457,830 times, and without the census 5,759 and 143,065 times.
    graphs, calls = _search_size(connected=False)
    assert graphs == 1252
    assert calls == {"_outranked": 5759, "rejected": 4053, "_beaten": 1706, "place": 81139}


def test_connected_enumeration_search_size_is_pinned():
    # The last order's children whose new vertex misses a component of
    # their parent are dropped before either test; without that filter
    # these counts are the connected=False ones above.
    graphs, calls = _search_size(connected=True)
    assert graphs == 996
    assert calls == {"_outranked": 4969, "rejected": 3467, "_beaten": 1502, "place": 63783}


@pytest.mark.parametrize("max_order", range(1, 8))
def test_connected_enumeration_is_the_connected_part_of_the_full_one(max_order):
    # Same graphs, same labelling, same order: the connected enumeration is
    # the full one with the disconnected graphs taken out, by the search in
    # brute_connected.
    expected = [g.adj for g in enumerate_graphs(max_order, connected=False) if brute_connected(g)]
    assert [g.adj for g in enumerate_graphs(max_order)] == expected


def test_orbit_filter_keeps_exactly_the_orbit_minima(monkeypatch):
    # Record each child that enumerate_graphs tests, as its parent and the
    # new vertex 0's neighbourhood s, and compare the s tried per parent with
    # the sets that are least in their orbit under the parent's automorphism
    # group, found by trying every permutation.
    tried = defaultdict(set)
    outranked = pdom.conjecture._outranked

    def record(adj, rank, top):
        tried[tuple(row >> 1 for row in adj[1:])].add(adj[0] >> 1)
        return outranked(adj, rank, top)

    monkeypatch.setattr(pdom.conjecture, "_outranked", record)
    parents = [g for g in enumerate_graphs(6, connected=False) if g.order <= 5]
    assert len(parents) == 52
    assert tried[()] == {0}  # the single vertex grows from the order-0 graph
    for g in parents:
        n = g.order
        edges = set(g.edges())
        group = [perm for perm in permutations(range(n))
                 if {tuple(sorted((perm[a], perm[b]))) for a, b in edges} == edges]
        minima = {s for s in range(1 << n)
                  if all(sum(1 << perm[v] for v in range(n) if s >> v & 1) >= s for perm in group)}
        assert tried[g.adj] == minima, write_graph6(g)
    assert len(tried) == len(parents) + 1


def test_census_rejects_only_children_the_minimality_test_rejects(monkeypatch):
    rejected = []
    outranked = pdom.conjecture._outranked

    def check(adj, rank, top):
        if not outranked(adj, rank, top):
            return False
        assert pdom.conjecture._beaten(adj, []), adj
        rejected.append(adj)
        return True

    monkeypatch.setattr(pdom.conjecture, "_outranked", check)
    assert sum(1 for _ in enumerate_graphs(7, connected=False)) == 1252
    assert len(rejected) == 4053


def test_kept_children_are_exactly_the_least_masks(monkeypatch):
    # Every child tested up to order 5 is kept exactly when no relabelling,
    # of all n! tried by brute force, gives a smaller edge mask.
    tested = []
    outranked = pdom.conjecture._outranked

    def record(adj, rank, top):
        tested.append(Graph(adj))
        return outranked(adj, rank, top)

    monkeypatch.setattr(pdom.conjecture, "_outranked", record)
    kept = {g.adj for g in enumerate_graphs(5, connected=False)}
    least = {g.adj for g in tested if brute_edge_mask(g, range(g.order)) == brute_least_mask(g)}
    assert len(tested) == len({g.adj for g in tested}) == 119
    assert kept == least and len(kept) == 52


def test_each_order_comes_out_in_ascending_mask_order(graphs_upto_7):
    # The census test reads a graph's rank in the previous order as the
    # order of canonical edge masks.
    masks = defaultdict(list)
    for g in graphs_upto_7:
        masks[g.order].append(brute_edge_mask(g, range(g.order)))
    assert {n: len(m) for n, m in masks.items()} == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for m in masks.values():
        assert all(a < b for a, b in zip(m, m[1:]))


def test_census_fields_hold_their_counts():
    # A census is taken on graphs of at most MAX_ENUM_ORDER - 1 vertices, so
    # the count in each 4-bit field stays below 16.
    assert pdom.conjecture.MAX_ENUM_ORDER <= 16


def test_generators_are_distinct_and_never_the_identity(monkeypatch):
    # Each generator costs _orbit_minima an image table, so a kept graph's
    # list holds each automorphism once and leaves out the identity.
    kept = []
    beaten = pdom.conjecture._beaten

    def record(adj, found):
        if beaten(adj, found):
            return True
        kept.append((adj, found))
        return False

    monkeypatch.setattr(pdom.conjecture, "_beaten", record)
    assert sum(1 for _ in enumerate_graphs(7, connected=False)) == 1252
    assert len(kept) == 1252  # every graph is a child, the single vertex of the order-0 graph
    for adj, found in kept:
        n = len(adj)
        assert bytes(range(n)) not in found, adj
        assert len(set(found)) == len(found), adj
        for perm in found:  # each one is an automorphism of adj
            assert all(sum(1 << perm[u] for u in range(n) if adj[v] >> u & 1) == adj[perm[v]]
                       for v in range(n)), (adj, perm)
    assert sum(len(found) for _, found in kept) == 3369


def _degree_key(g: nx.Graph) -> tuple:
    """Order, and each vertex's degree with its neighbours' degrees, sorted."""
    return g.number_of_nodes(), tuple(sorted(
        (d, tuple(sorted(g.degree(u) for u in g[v]))) for v, d in g.degree()
    ))


def test_enumeration_matches_graph_atlas(graphs_upto_7):
    # The atlas (Read and Wilson) lists every graph on 0..7 nodes once.
    atlas = defaultdict(list)
    for a in nx.graph_atlas_g():
        if a.number_of_nodes():
            atlas[_degree_key(a)].append(a)
    matched = set()
    for g in graphs_upto_7:
        ours = nx.Graph()
        ours.add_nodes_from(range(g.order))
        ours.add_edges_from(g.edges())
        same = [id(a) for a in atlas[_degree_key(ours)] if nx.is_isomorphic(ours, a)]
        assert len(same) == 1, write_graph6(g)
        matched.add(same[0])
    assert len(matched) == sum(len(bucket) for bucket in atlas.values()) == len(graphs_upto_7)


@pytest.mark.parametrize("bad_order", [0, 8])
def test_enumeration_rejects_out_of_range_orders(bad_order):
    with pytest.raises(ValueError):
        next(enumerate_graphs(bad_order))


def test_product_inequality_examples():
    report = check_product_inequality(path(2), path(2), HALF)
    assert report.record() == "A_ A_ 1/2 1 1 1 true"
    assert report.holds and report.witness is None

    report = check_product_inequality(path(2), path(4), HALF)
    assert (report.gp_g, report.gp_h, report.gp_product, report.holds) == (1, 1, 1, True)

    report = check_product_inequality(path(7), path(7), HALF)
    assert (report.gp_g, report.gp_h, report.gp_product, report.holds) == (2, 2, 5, True)

    report = check_product_inequality(complete(3), complete(3), HALF)
    assert (report.gp_g, report.gp_h, report.gp_product, report.holds) == (1, 1, 1, True)

    c4 = parse_graph6("C]")
    report = check_product_inequality(c4, c4, Fraction(4, 5))
    assert (report.gp_g, report.gp_h, report.gp_product, report.holds) == (2, 2, 3, False)
    assert report.record().endswith(" witness={0,1,6}")

    # The spider S(2,2,2) squared, the one p = 3/4 failure up to order 7: 8 < 3 * 3.
    spider = subdivided_star(3)
    p = Fraction(3, 4)
    report = check_product_inequality(spider, spider, p)
    assert report.record() == "FsO__ FsO__ 3/4 3 3 8 false witness={1,2,3,4,5,28,35,42}"
    assert brute_gamma(spider, p) == 3
    square = cartesian_product(spider, spider)
    assert square.closed_neighborhood_of_set(report.witness).bit_count() == 37
    assert is_p_dominating(square, report.witness, p)


@SEEDED
@given(small_graphs(max_order=4), small_graphs(max_order=4))
def test_product_gamma_is_symmetric(g, h):
    for p in (HALF, Fraction(3, 4), Fraction(1)):
        gh = partial_domination_number(cartesian_product(g, h), p).size
        assert partial_domination_number(cartesian_product(h, g), p).size == gh


def test_product_inequality_respects_vertex_cap():
    with pytest.raises(VertexCapError):
        check_product_inequality(complete(8), complete(9), HALF)


def test_failure_record_carries_witness():
    report = ScanReport(
        g6_g="A_", g6_h="A_", p=HALF, gp_g=2, gp_h=2,
        gp_product=3, holds=False, witness=mask_of([0, 2]),
    )
    assert report.record() == "A_ A_ 1/2 2 2 3 false witness={0,2}"
    assert REPORT_HEADER.split()[1:] == ["g6_g", "g6_h", "p", "gp_g", "gp_h", "gp_prod", "holds"]


def test_scan_failure_records_match_the_single_pair_check():
    # The scan builds a report for its failing pairs only; each is the one
    # check_product_inequality gives for that pair.
    p = Fraction(4, 5)
    graphs = {write_graph6(g): g for g in enumerate_graphs(5)}
    failures = scan_conjecture(p, graphs.values()).failures
    assert [r.record() for r in failures[:2]] == [
        "C] C] 4/5 2 2 3 false witness={0,1,6}",
        "C] Ck 4/5 2 2 3 false witness={0,2,5}",
    ]
    for report in failures:
        single = check_product_inequality(graphs[report.g6_g], graphs[report.g6_h], p)
        assert report == single and report.record() == single.record()


@pytest.mark.parametrize("max_order,expected_pairs", [(3, 10), (4, 55), (5, 496)])
def test_scan_finds_no_failures_on_small_connected_orders(max_order, expected_pairs):
    outcome = scan_conjecture(HALF, enumerate_graphs(max_order))
    assert outcome.pairs == expected_pairs
    assert outcome.failures == ()


@pytest.mark.parametrize("max_order,expected_pairs", [(3, 10), (4, 55), (5, 496)])
def test_scan_holds_for_full_domination_too(max_order, expected_pairs):
    outcome = scan_conjecture(1, enumerate_graphs(max_order))
    assert (outcome.pairs, outcome.failures) == (expected_pairs, ())


@pytest.mark.parametrize("p,nodes", [
    (Fraction(1, 3), 196), (HALF, 471), (Fraction(3, 5), 776), (Fraction(2, 3), 1215), (Fraction(3, 4), 2773),
    (Fraction(1), 874),
], ids=["1/3", "1/2", "3/5", "2/3", "3/4", "1/1"])
def test_scan_search_size_is_pinned(p, nodes):
    # Nodes the kernel enters over the scan benchmark's order-5 scans: many
    # small "first"-mode product solves, which the kernel's own pins miss.
    assert _nodes_entered(lambda: scan_conjecture(p, enumerate_graphs(5))) == nodes


def _assert_two_packing(g: Graph, packing: int) -> None:
    """The closed neighbourhoods of the packing's vertices are pairwise disjoint."""
    closed = [nbrs | {v} for v, nbrs in enumerate(neighbor_sets(g))]
    chosen = [v for v in range(g.order) if packing >> v & 1]
    for u, v in combinations(chosen, 2):
        assert not closed[u] & closed[v], (g.adj, packing)


def _certified(g: Graph) -> bool:
    return pdom.conjecture._packing(g).bit_count() >= partial_domination_number(g, 1).size


def test_packing_is_a_two_packing_on_connected_graphs(graphs_upto_7):
    connected = [g for g in graphs_upto_7 if brute_connected(g)]
    assert len(connected) == 996
    for g in connected:
        _assert_two_packing(g, pdom.conjecture._packing(g))
    # rho = gamma on 733 of them, and the greedy reaches gamma on each.
    assert sum(map(_certified, connected)) == 733


@SEEDED
@given(small_graphs())
def test_packing_is_a_two_packing(g):
    packing = pdom.conjecture._packing(g)
    _assert_two_packing(g, packing)
    assert g.closed_neighborhood_of_set(g.closed_neighborhood_of_set(packing)) == g.full_mask  # maximal
    assert packing.bit_count() <= brute_gamma(g, Fraction(1))  # rho <= gamma


def test_certified_pairs_pass_the_exact_solve(connected_upto_5):
    certified = [_certified(g) for g in connected_upto_5]
    count = 0
    for i, g in enumerate(connected_upto_5):
        for j in range(i, len(connected_upto_5)):
            if certified[i] or certified[j]:
                assert check_product_inequality(g, connected_upto_5[j], 1).holds
                count += 1
    assert count == 481


def test_packing_bound_against_the_brute_oracle():
    # gamma(G x H) >= rho(G) gamma(H) >= |packing(G)| gamma(H), all three by brute force.
    rng = random.Random(20)
    one = Fraction(1)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = rng.randint(1, 16 // n)
        g, h = random_graph(rng, n, rng.random()), random_graph(rng, m, rng.random())
        bound = pdom.conjecture._packing(g).bit_count() * brute_gamma(h, one)
        assert brute_gamma(cartesian_product(g, h), one) >= bound, (g.adj, h.adj)


@pytest.mark.parametrize("p,built", [(Fraction(24, 25), 496), (Fraction(1), 15)], ids=["24/25", "1/1"])
def test_certificate_only_at_full_domination(monkeypatch, p, built):
    # At 24/25 every factor of order <= 5 has target n, but an order-25
    # product has target 24: each pair is still built and solved.
    calls = []
    product = pdom.conjecture.cartesian_product
    monkeypatch.setattr(pdom.conjecture, "cartesian_product", lambda g, h: calls.append(1) or product(g, h))
    outcome = scan_conjecture(p, enumerate_graphs(5))
    assert (outcome.pairs, outcome.failures, len(calls)) == (496, (), built)


def test_certified_pairs_still_meet_the_product_checks():
    # Every pair is certified at p = 1, yet the errors come as without it.
    with pytest.raises(VertexCapError, match="^product order 81 exceeds the cap of 64$"):
        scan_conjecture(1, [path(9), path(2)])
    with pytest.raises(ValueError, match="^product factors must be nonempty$"):
        scan_conjecture(1, [Graph(()), path(2)])


def test_scan_with_disconnected_graphs():
    outcome = scan_conjecture(HALF, enumerate_graphs(3, connected=False))
    # 7 classes up to order 3, all unordered pairs with repetition
    assert outcome.pairs == 28
    assert outcome.failures == ()


def test_scan_external_family():
    outcome = scan_conjecture(HALF, [path(2), path(3)])
    assert outcome.pairs == 3
    assert outcome.failures == ()


def test_p2_and_path_scaling_bounds_hold_on_all_small_graphs(graphs_upto_6):
    # covers the disconnected regime, where the base value exceeds 1. At
    # m = 2 the check is the P2 bound, gamma_{1/2}(G x P2) >= gamma_{1/2}(G),
    # because gamma_{1/2}(P2) = 1; for m >= 3 the scaling claim covers bases
    # 1, 2 and 3 only, and every graph of order <= 5 has such a base.
    upto_5 = [g for g in graphs_upto_6 if g.order <= 5]
    bases = Counter()
    for g in upto_5:
        for m in range(2, 7):
            report = check_product_inequality(g, path(m), HALF)
            assert report.gp_g in (1, 2, 3)
            assert m > 2 or report.gp_h == 1
            assert report.holds, (g.adj, m)
            bases[report.gp_g] += 1
    assert bases == {1: 235, 2: 20, 3: 5}


def test_path_scaling_is_vacuous_for_large_base():
    # base 4 is outside the scaling claim for m >= 3; only the P2 bound applies
    sparse = Graph((0,) * 7)  # half-domination number 4
    report = check_product_inequality(sparse, path(2), HALF)
    assert report.holds
    assert (report.gp_g, report.gp_h, report.gp_product) == (4, 1, 4)


def test_path_scaling_validation():
    with pytest.raises(ValueError):
        check_product_inequality(path(3), path(2), Fraction(3, 2))
    with pytest.raises(TypeError):
        check_product_inequality(path(3), path(2), 0.5)
