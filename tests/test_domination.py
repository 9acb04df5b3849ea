from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdom.conjecture import enumerate_graphs
from pdom.domination import (
    SetFamily,
    SolveResult,
    _breadth_first,
    _minimum_covers,
    all_minimum_sets,
    as_proportion,
    coverage_target,
    influencing_intersection,
    influencing_set,
    influencing_sweep,
    is_p_dominating,
    partial_domination_number,
)
from pdom.graphs import (
    Graph,
    cartesian_product,
    complete,
    cycle,
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

from brute import (
    brute_gamma,
    brute_influencing,
    brute_intersection,
    brute_minimum_sets,
    brute_target,
    neighbor_sets,
    random_graph,
)
from oracle import minimum_covers as oracle_minimum_covers
from strategies import SEEDED, SEEDED_SPARSE, small_graphs, sparse_connected_graphs, sparse_graphs, spiders, trees

HALF = Fraction(1, 2)


@pytest.mark.parametrize("n,p,expected", [
    (17, Fraction(1, 2), 9),
    (9, Fraction(8, 9), 8),
    (10, Fraction(0), 0),
    (6, Fraction(1), 6),
    (0, Fraction(1, 2), 0),
    (9, Fraction(7, 9), 7),
])
def test_coverage_target(n, p, expected):
    assert coverage_target(n, p) == expected


def test_coverage_target_matches_brute():
    for n in range(0, 12):
        for den in range(1, 12):
            for num in range(0, den + 1):
                p = Fraction(num, den)
                assert coverage_target(n, p) == brute_target(n, p)


def test_coverage_target_rejects_bad_input():
    with pytest.raises(ValueError):
        coverage_target(5, Fraction(3, 2))
    with pytest.raises(ValueError):
        coverage_target(5, Fraction(-1, 2))
    with pytest.raises(ValueError):
        coverage_target(-1, HALF)


class _Ratio(Fraction):
    """A Fraction subclass, which as_proportion must convert to a Fraction."""


@pytest.mark.parametrize("value", [0, 1, True, Fraction(1), _Ratio(1)])
def test_proportion_bounds_are_inclusive(value):
    p = as_proportion(value)
    assert type(p) is Fraction and p == value


@pytest.mark.parametrize("value,text", [
    (-Fraction(1, 10**30), "-1/1000000000000000000000000000000"),
    (1 + Fraction(1, 10**30), "1000000000000000000000000000001/1000000000000000000000000000000"),
    (-1, "-1"),
    (2, "2"),
])
def test_proportion_just_outside_the_bounds_rejected(value, text):
    with pytest.raises(ValueError, match=rf"^proportion {text} outside \[0, 1\]$"):
        as_proportion(value)


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_float_proportions_rejected(p):
    # A float converts exactly: 0.1 lies just above 1/10, so it would ask
    # for 2 of 10 vertices where 1/10 asks for 1.
    g = from_edges(10, [])
    with pytest.raises(TypeError, match="Fraction"):
        as_proportion(p)
    with pytest.raises(TypeError, match="Fraction"):
        coverage_target(10, p)
    with pytest.raises(TypeError, match="Fraction"):
        partial_domination_number(g, p)
    with pytest.raises(TypeError, match="Fraction"):
        is_p_dominating(g, 0, p)


def test_is_p_dominating():
    g = subdivided_star(8)
    center = mask_of([0])
    assert is_p_dominating(g, center, HALF)
    assert not is_p_dominating(g, center, Fraction(1))
    assert not is_p_dominating(path(4), 0, Fraction(1, 4))
    assert is_p_dominating(path(4), 0, 0)
    with pytest.raises(ValueError, match="outside the graph"):
        is_p_dominating(path(2), mask_of([5]), HALF)


def test_solver_on_paths():
    assert partial_domination_number(path(6), HALF) == SolveResult(1, mask_of([1]))
    assert partial_domination_number(path(6), Fraction(1)) == SolveResult(2, mask_of([1, 4]))
    assert partial_domination_number(path(6), 1).size == 2


def test_solver_trivial_boundaries():
    assert partial_domination_number(Graph(()), Fraction(1)) == SolveResult(0, 0)
    assert partial_domination_number(path(3), 0) == SolveResult(0, 0)
    assert partial_domination_number(path(1), 0) == SolveResult(0, 0)
    assert partial_domination_number(complete(7), 1).size == 1


def test_solver_on_subdivided_star():
    g = subdivided_star(8)
    assert partial_domination_number(g, HALF) == SolveResult(1, mask_of([0]))
    result = partial_domination_number(g, 1)
    assert result.size == 8
    assert result.witness == mask_of(range(1, 9))  # the inner ring


@pytest.mark.parametrize("k", range(2, 9))
def test_spider_gamma_formula(k):
    # S(2^k) is subdivided_star(k). For k < T <= 2k + 1, gamma at target T
    # is min(T - k, ceil((T - 1) / 2)): the hub covers k + 1 vertices and
    # each further pick one more, while m inner vertices cover 2m + 1.
    g = subdivided_star(k)
    targets = range(k + 1, 2 * k + 2)
    formula = [min(t - k, t // 2) for t in targets]  # t // 2 == ceil((t - 1) / 2)
    assert [size for size, _, _ in _minimum_covers(g, "first", targets)] == formula
    if k <= 6:
        assert [len(oracle_minimum_covers(g, t)[0]) for t in targets] == formula
    if k <= 4:
        assert [brute_gamma(g, Fraction(t, g.order)) for t in targets] == formula


def test_gamma_set_can_avoid_half_witnesses():
    g = subdivided_star(8)
    half_sets = all_minimum_sets(g, HALF).sets
    full_sets = all_minimum_sets(g, Fraction(1)).sets
    assert any(h & f == 0 for h in half_sets for f in full_sets)


def test_solver_on_products():
    assert partial_domination_number(cartesian_product(complete(3), complete(3)), HALF).size == 1


def test_witness_is_lexicographically_least():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        n = g.order
        for k in range(1, n + 1):
            p = Fraction(k, n)
            result = partial_domination_number(g, p)
            expected = min(brute_minimum_sets(g, p))
            assert members(result.witness) == expected
            assert is_p_dominating(g, result.witness, p)


def test_family_on_twin_hub_fixture():
    family = all_minimum_sets(twin_hub_graph(), Fraction(8, 9))
    assert family.size == 2
    assert family.sets == (mask_of([5, 6]),)


PENDANT_WHEEL_PAIRS = [
    (1, 2), (1, 3), (1, 4), (1, 7), (2, 3),
    (2, 4), (2, 8), (3, 4), (3, 5), (4, 6),
]


def test_family_on_pendant_wheel_fixture():
    g = pendant_wheel_graph()
    p = Fraction(7, 9)
    family = all_minimum_sets(g, p)
    assert family.size == 2
    assert [members(s) for s in family.sets] == PENDANT_WHEEL_PAIRS
    assert [tuple(s) for s in brute_minimum_sets(g, p)] == PENDANT_WHEEL_PAIRS
    # every pair of hub neighbors qualifies, and the hub itself never appears
    ring = [1, 2, 3, 4]
    for i, u in enumerate(ring):
        for v in ring[i + 1:]:
            assert mask_of([u, v]) in family.sets
    assert influencing_set(g, p) & 1 == 0


def test_family_on_twin_broom_fixture():
    family = all_minimum_sets(twin_broom_tree(), Fraction(9, 11))
    assert family.sets == (mask_of([2, 3]),)
    assert influencing_set(twin_broom_tree(), Fraction(9, 11)) == mask_of([2, 3])


def test_family_is_sorted_and_duplicate_free():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        n = g.order
        for k in range(0, n + 1):
            family = all_minimum_sets(g, Fraction(k, max(n, 1)))
            keys = [members(s) for s in family.sets]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            assert all(s.bit_count() == family.size for s in family.sets)


def test_family_for_target_zero_is_empty_set_only():
    assert all_minimum_sets(path(4), 0) == SetFamily(0, (0,))
    assert influencing_set(path(4), 0) == 0


def test_two_vertex_path_has_two_singletons():
    family = all_minimum_sets(path(2), Fraction(1))
    assert family.sets == (mask_of([0]), mask_of([1]))


def _assert_every_target_matches(g: Graph, minimum_sets) -> None:
    # Each mode both once per target and in one kernel call over every
    # target, ascending, which keeps its memo and tables from target to
    # target: every answer must equal the reference family at its target,
    # minimum_sets(g, target), the sets as ascending tuples in lex order.
    n = g.order
    targets = range(n + 1)
    families = [minimum_sets(g, t) for t in targets]
    calls = {mode: list(_minimum_covers(g, mode, targets)) for mode in ("first", "all", "union")}
    for mode, swept in calls.items():
        assert swept == [next(_minimum_covers(g, mode, [t])) for t in targets]
        assert [k for k, _, _ in swept] == [len(sets[0]) for sets in families]
    assert [found for _, found, _ in calls["first"]] == [mask_of(sets[0]) for sets in families]
    unions = [mask_of(v for s in sets for v in s) for sets in families]
    assert [found for _, found, _ in calls["all"]] == [found for _, found, _ in calls["union"]] == unions
    assert [[members(h) for h in hits] for _, _, hits in calls["all"]] == families
    assert list(influencing_sweep(g)) == unions[1:]


def _assert_every_target_matches_brute(g: Graph) -> None:
    _assert_every_target_matches(g, lambda g, t: brute_minimum_sets(g, Fraction(t, g.order)))


def test_solver_matches_brute_exhaustively_to_order_5(connected_upto_5):
    for g in connected_upto_5:
        _assert_every_target_matches_brute(g)


def test_solver_matches_brute_on_random_graphs():
    rng = random.Random(47)
    proportions = [Fraction(1, 5), Fraction(1, 3), HALF, Fraction(4, 5), Fraction(1)]
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        for p in proportions:
            assert partial_domination_number(g, p).size == brute_gamma(g, p)


def test_monotone_in_p():
    rng = random.Random(53)
    graphs = [random_graph(rng, rng.randint(2, 8)) for _ in range(20)]
    for g in graphs:
        n = g.order
        sizes = [partial_domination_number(g, Fraction(k, n)).size for k in range(0, n + 1)]
        assert sizes == sorted(sizes)


def test_influencing_set_matches_brute():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        n = g.order
        for k in range(1, n + 1):
            p = Fraction(k, n)
            assert set(members(influencing_set(g, p))) == brute_influencing(g, p)


def test_influencing_sweep_dips_to_one_vertex_on_twin_hub():
    g = twin_hub_graph()
    sizes = [influencing_set(g, Fraction(k, 9)).bit_count() for k in range(1, 10)]
    assert sizes[0] == 9  # every vertex starts out influential
    assert min(sizes) == 1  # at p = 5/9 only the apex covers enough
    assert influencing_set(g, Fraction(5, 9)) == mask_of([0])
    assert sizes[-1] == 9  # at p = 1 everything returns


def test_vertex_transitive_graphs_are_fully_influencing():
    # An automorphism maps a minimum set to one through any vertex, so on
    # a vertex-transitive graph every vertex is influencing when p > 0.
    cycles = [cycle(n) for n in range(3, 31)]
    tori = [cartesian_product(cycle(a), cycle(b)) for a in range(3, 6) for b in range(a, 7)]
    for g in cycles + tori:
        assert list(influencing_sweep(g)) == [g.full_mask] * g.order
    # Each vertex of a cycle covers 3, and spaced picks reach any k of the
    # n vertices, so gamma at p = k/n is ceil(k / 3).
    for g in cycles:
        n = g.order
        for k in range(n + 1):
            assert partial_domination_number(g, Fraction(k, n)).size == -(-k // 3)


def test_influencing_intersection():
    assert influencing_intersection(twin_hub_graph()) == 0
    assert influencing_intersection(path(6)) == mask_of([1, 4])
    rng = random.Random(67)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        assert set(members(influencing_intersection(g))) == brute_intersection(g)
    with pytest.raises(ValueError):
        influencing_intersection(Graph(()))


def test_sweep_and_intersection_match_brute_to_order_6(connected_upto_6):
    for g in connected_upto_6:
        n = g.order
        expected = [brute_influencing(g, Fraction(k, n)) for k in range(1, n + 1)]
        assert [set(members(found)) for found in influencing_sweep(g)] == expected
        assert set(members(influencing_intersection(g))) == set.intersection(*expected)


# sha256 of influencing_intersection's masks over the 996 connected graphs of
# order <= 7, in enumerate_graphs(7)'s order, as decimal lines joined by
# newlines; computed before size-1 targets were read from a threshold table.
SWEEP_7_SHA256 = "430bd7e23e67b58fe99dd88a0832a31ce41db09138afabc3ff7f10923369adab"


def test_sweep_to_order_7_is_pinned():
    masks = [influencing_intersection(g) for g in enumerate_graphs(7)]
    assert len(masks) == 996
    assert hashlib.sha256("\n".join(map(str, masks)).encode()).hexdigest() == SWEEP_7_SHA256


@SEEDED
@given(small_graphs())
def test_size_one_targets_match_brute(g):
    # Targets one vertex can cover alone, ascending in one kernel call per
    # mode, so the threshold table built for the first is read by the rest.
    n = g.order
    top = max(len(nbrs) + 1 for nbrs in neighbor_sets(g))
    targets = range(1, top + 1)
    expected = [brute_minimum_sets(g, Fraction(t, n)) for t in targets]
    assert all(len(sets[0]) == 1 for sets in expected)
    union = [mask_of(v for s in sets for v in s) for sets in expected]
    assert [(k, found) for k, found, _ in _minimum_covers(g, "first", targets)] == \
        [(1, mask_of(sets[0])) for sets in expected]
    assert [(k, found, [members(h) for h in hits]) for k, found, hits in _minimum_covers(g, "all", targets)] == \
        [(1, u, sets) for u, sets in zip(union, expected)]
    assert [(k, found) for k, found, _ in _minimum_covers(g, "union", targets)] == [(1, u) for u in union]


@SEEDED
@given(small_graphs())
def test_search_matches_brute(g):
    n = g.order
    for k in range(n + 1):
        p = Fraction(k, n)
        expected = brute_minimum_sets(g, p)
        result = partial_domination_number(g, p)
        family = all_minimum_sets(g, p)
        assert result.size == family.size == len(expected[0])
        assert members(result.witness) == expected[0]
        assert [members(s) for s in family.sets] == expected


@SEEDED
@given(small_graphs())
def test_every_witness_meets_the_target(g):
    n = g.order
    for k in range(n + 1):
        p = Fraction(k, n)
        target = coverage_target(n, p)
        assert g.closed_neighborhood_of_set(partial_domination_number(g, p).witness).bit_count() >= target
        assert all(g.closed_neighborhood_of_set(s).bit_count() >= target for s in all_minimum_sets(g, p).sets)


@SEEDED
@given(small_graphs())
def test_gamma_does_not_decrease_in_p(g):
    n = g.order
    sizes = [partial_domination_number(g, Fraction(k, n)).size for k in range(n + 1)]
    assert sizes == sorted(sizes)


@SEEDED
@given(small_graphs())
def test_influencing_sweep_matches_brute(g):
    # The k-th of the n entries is the influencing set at p = k/n, and the
    # intersection is their AND.
    n = g.order
    swept = list(influencing_sweep(g))
    assert len(swept) == n
    for k, found in enumerate(swept, start=1):
        p = Fraction(k, n)
        assert set(members(found)) == brute_influencing(g, p)
        assert found == influencing_set(g, p)
    assert influencing_intersection(g) == reduce(and_, swept, g.full_mask)


@SEEDED_SPARSE
@given(sparse_graphs())
def test_kernel_modes_match_brute_on_sparse_graphs(g):
    # Larger graphs reach memo states the small_graphs strategy does not:
    # a memo key without the cursor drops hits here.
    _assert_every_target_matches_brute(g)


@settings(SEEDED_SPARSE, max_examples=50)
@given(sparse_connected_graphs())
def test_kernel_modes_match_oracle_on_sparse_connected_graphs(g):
    # Orders 10-24, beyond tests/brute.py's reach: the cover-driven
    # tests/oracle.py is the reference.
    _assert_every_target_matches(g, oracle_minimum_covers)


def _union_of_family(g: Graph, p: Fraction) -> int:
    out = 0
    for s in all_minimum_sets(g, p).sets:
        out |= s
    return out


@SEEDED
@given(small_graphs())
def test_influencing_set_is_union_of_family(g):
    n = g.order
    for k in range(n + 1):
        p = Fraction(k, n)
        assert influencing_set(g, p) == _union_of_family(g, p)


def _assert_influencing_matches_brute(g: Graph) -> None:
    n = g.order
    swept = list(influencing_sweep(g))
    assert len(swept) == n
    common = set(range(n))
    for k, found in enumerate(swept, start=1):
        p = Fraction(k, n)
        expected = brute_influencing(g, p)
        assert set(members(influencing_set(g, p))) == expected
        assert set(members(found)) == expected
        common &= expected
    intersection = influencing_intersection(g)
    assert set(members(intersection)) == common
    assert intersection == reduce(and_, swept, g.full_mask)


# Union mode drops a child when no vertex left to it can add a 1/m share of
# the coverage its m picks still need. Away from the branch vertices of a
# tree a pick adds at most 2 or 3 vertices, so the bound fires often here.
@settings(SEEDED_SPARSE, max_examples=40)
@given(trees())
def test_influencing_matches_brute_on_trees(g):
    _assert_influencing_matches_brute(g)


@settings(SEEDED_SPARSE, max_examples=40)
@given(spiders())
def test_influencing_matches_brute_on_spiders(g):
    _assert_influencing_matches_brute(g)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    labels = list(range(g.order))
    rng.shuffle(labels)
    return from_edges(g.order, [(labels[u], labels[v]) for u, v in g.edges()])


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 4)])
def test_slack_bound_on_relabelled_grid(seed, p):
    # With little slack, vertices whose closed neighborhood lies wholly
    # below the cursor end branches early; the results must not change.
    g = _relabelled(cartesian_product(path(4), path(5)), random.Random(seed))
    expected = brute_minimum_sets(g, p)
    assert members(partial_domination_number(g, p).witness) == expected[0]
    assert [members(s) for s in all_minimum_sets(g, p).sets] == expected


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("p", [Fraction(3, 4), HALF, Fraction(17, 20)])
def test_union_prune_on_relabelled_grid(seed, p):
    # Once the union holds every vertex a subtree could still pick, the
    # union mode drops that subtree; hits it skips must add nothing. At
    # 17/20 the union is 14 of the 20 vertices, so a prune that fires too
    # early loses some of them.
    g = _relabelled(cartesian_product(path(4), path(5)), random.Random(seed))
    found = influencing_set(g, p)
    assert set(members(found)) == brute_influencing(g, p)
    assert found == _union_of_family(g, p)


@pytest.mark.parametrize("seed", [11, 89])
@pytest.mark.parametrize("p", [HALF, Fraction(3, 4), Fraction(17, 20)])
def test_failure_memo_on_relabelled_grid(seed, p):
    # With slack the search drops a node whose cursor, picks left and live
    # covered set match a subtree that held no hit; the witness, the family
    # and the union must not change. A memo key that leaves out the cursor
    # passes these cases; test_failure_memo_key_holds_the_cursor catches it.
    g = _relabelled(cartesian_product(path(4), path(5)), random.Random(seed))
    expected = brute_minimum_sets(g, p)
    assert members(partial_domination_number(g, p).witness) == expected[0]
    assert [members(s) for s in all_minimum_sets(g, p).sets] == expected
    assert set(members(influencing_set(g, p))) == brute_influencing(g, p)


@pytest.mark.parametrize("seed", [3, 11])
def test_packing_bound_on_relabelled_grid(seed):
    # At p = 1 a node is dropped once its uncovered vertices hold more
    # vertices with pairwise disjoint closed neighborhoods than it has
    # picks left; the witness, the family, the union and the sweep's p = 1
    # step must not change.
    g = _relabelled(cartesian_product(path(4), path(5)), random.Random(seed))
    one = Fraction(1)
    expected = brute_minimum_sets(g, one)
    assert members(partial_domination_number(g, one).witness) == expected[0]
    assert [members(s) for s in all_minimum_sets(g, one).sets] == expected
    union = brute_influencing(g, one)
    assert set(members(influencing_set(g, one))) == union
    assert set(members(list(influencing_sweep(g))[-1])) == union  # the sweep's last entry is p = 1


def test_failure_memo_keeps_union_pruned_subtrees():
    # Under label order {1,4}, {2,4} and {3,4} all cover {1,...,5}, so at
    # p = 9/10 they share a memo key, and recording the union-pruned {2,4}
    # as a failure would drop {3,4}, below which lie the only minimum sets
    # with vertex 3. Union mode now walks breadth-first layers, where this
    # graph reaches neither prune with a nonempty union; the next test
    # holds that fault.
    g = from_edges(10, [(0, 9), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 9)])
    swept = list(influencing_sweep(g))
    assert len(swept) == 10
    for k, found in enumerate(swept, start=1):
        p = Fraction(k, 10)
        assert set(members(influencing_set(g, p))) == brute_influencing(g, p)
        assert set(members(found)) == brute_influencing(g, p)


def test_failure_memo_keeps_union_pruned_children():
    # At 6/7 every minimum set holds one of the isolated vertices 0, 1 and
    # 2, vertex 12 and one end of each other edge. Union mode walks the
    # order 0, 1, 2, 3, 7, 4, 12, 8, ...; by {1,7,12} the union
    # holds every vertex its hits could add, so the union prune drops all
    # of its children. {2,3,12} has the same memo key (live covered set
    # {8,12}); recording {1,7,12} as a failure would drop it, and with it
    # the first minimum sets that hold vertex 2.
    g = from_edges(14, [(3, 7), (4, 12), (5, 9), (6, 10), (8, 12), (11, 13)])
    p = Fraction(6, 7)
    expected = brute_influencing(g, p)
    assert set(members(influencing_set(g, p))) == expected
    assert set(members(list(influencing_sweep(g))[11])) == expected  # k = 12 of 14


def test_failure_memo_key_holds_the_cursor():
    # At 6/7 "all" mode meets memo states whose picks left and live covered
    # set agree but whose cursors differ; a key without the cursor drops
    # subtrees holding 6 of the 122 minimum sets.
    g = from_edges(14, [(0, 12), (1, 2), (1, 9), (1, 11), (3, 4), (3, 5), (5, 8), (5, 13), (7, 9), (8, 9),
                        (8, 11), (8, 13), (9, 11)])
    p = Fraction(6, 7)
    expected = brute_minimum_sets(g, p)
    assert members(partial_domination_number(g, p).witness) == expected[0]
    assert [members(s) for s in all_minimum_sets(g, p).sets] == expected
    assert set(members(influencing_set(g, p))) == brute_influencing(g, p)


def test_success_memo_is_cleared_per_target():
    # On the path P9, targets 7 and 8 both need three picks. A two-pick
    # state listed at target 7 holds completions that cover 7 vertices and
    # not 8, so an "all"-mode call over every target that kept the listings
    # from target to target would list them at target 8 as well.
    _assert_every_target_matches_brute(path(9))


def _nodes_entered(call) -> int:
    # Calls of the kernel's nested search, counted with a profile hook:
    # the size of the search tree, which does not depend on the machine.
    code = next(c for c in _minimum_covers.__code__.co_consts if getattr(c, "co_name", None) == "search")
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("call,nodes", [
    (lambda: partial_domination_number(cartesian_product(path(6), path(6)), 1), 369),
    (lambda: partial_domination_number(cartesian_product(path(7), path(9)), Fraction(3, 4)), 9084),
    (lambda: all_minimum_sets(_relabelled(cartesian_product(path(5), path(6)), random.Random(1)), Fraction(3, 4)), 2079),
    (lambda: list(influencing_sweep(subdivided_star(10))), 890),
], ids=["P6xP6-1", "P7xP9-3/4", "P5xP6-all-3/4-relabelled", "S10-sweep"])
def test_search_tree_size(call, nodes):
    # Nodes entered on four calls of the kind the benchmark times: a change
    # to a prune or to the candidate order shows here before it shows as time.
    assert _nodes_entered(call) == nodes


def test_sweep_search_size_is_pinned():
    # The sweep benchmark's library call: most targets are answered at size
    # 1 from the threshold table, so the search enters few nodes.
    graphs = list(enumerate_graphs(7))
    assert _nodes_entered(lambda: [influencing_intersection(g) for g in graphs]) == 1365


def test_search_tree_size_below_the_packing_number():
    # star(40) plus 23 isolated vertices at p = 1: the counting bound is 2,
    # but the isolated vertices and the star's center pack, so gamma is
    # 1 + 23. Sizes 3 to 23 each enter their root alone, whose children all
    # fail the packing test; a change that lets those roots grow shows here.
    g = Graph(star(40).adj + (0,) * 23)
    assert partial_domination_number(g, 1).size == 24
    assert _nodes_entered(lambda: partial_domination_number(g, 1)) == 45


def test_family_in_lex_order_under_breadth_first_order():
    # The path 2-0-1-3. Breadth-first from 2 gives the order 2, 0, 1, 3,
    # which "all" mode always searches in, so the family must be sorted
    # back: lex order puts {0,3} before {1,2}, integer order does not, and
    # the search meets {1,2} first.
    g = from_edges(4, [(2, 0), (0, 1), (1, 3)])
    assert _breadth_first(g.adj) == [2, 0, 1, 3]
    family = all_minimum_sets(g, Fraction(1))
    assert family == SetFamily(2, tuple(mask_of(s) for s in [(0, 1), (0, 3), (1, 2), (2, 3)]))
    assert list(family.sets) != sorted(family.sets)
    assert influencing_set(g, Fraction(1)) == g.full_mask


def _image(mask: int, perm: list[int]) -> int:
    return mask_of(perm[v] for v in members(mask))


def _assert_relabelling_invariant(g: Graph, perm: list[int]) -> None:
    # "first" mode walks label order and the other modes breadth-first
    # layers, which a relabelling usually reorders, so this checks that no
    # output depends on the order.
    h = from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
    n = g.order
    for k in range(n + 1):
        p = Fraction(k, n)
        target = coverage_target(n, p)
        sizes = {next(_minimum_covers(x, mode, [target]))[0] for x in (g, h) for mode in ("first", "all", "union")}
        assert len(sizes) == 1
        image = sorted((_image(s, perm) for s in all_minimum_sets(g, p).sets), key=members)
        assert all_minimum_sets(h, p).sets == tuple(image)
        assert influencing_set(h, p) == _image(influencing_set(g, p), perm)
    assert list(influencing_sweep(h)) == [_image(s, perm) for s in influencing_sweep(g)]


@SEEDED
@given(st.data())
def test_relabelling_invariance_on_small_graphs(data):
    g = data.draw(small_graphs())
    _assert_relabelling_invariant(g, data.draw(st.permutations(range(g.order))))


# About 30 ms per example (every p, both labellings, three modes), so fewer.
@settings(SEEDED_SPARSE, max_examples=40)
@given(st.data())
def test_relabelling_invariance_on_sparse_graphs(data):
    g = data.draw(sparse_graphs())
    _assert_relabelling_invariant(g, data.draw(st.permutations(range(g.order))))
