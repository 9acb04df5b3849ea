"""Acceptance suite: one verdict line per criterion.

Each test prints "criterion N: PASS/FAIL - detail" (run with -s to see all
lines; failures show theirs in the captured output) and then asserts. The
expected values are closed formulas, case tables, or the unpruned brute
oracle; the solver is the subject under test. Timed criteria assert their
stated budget.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from pdom.conjecture import check_product_inequality, enumerate_graphs, scan_conjecture
from pdom.domination import (
    all_minimum_sets,
    influencing_intersection,
    influencing_set,
    partial_domination_number,
)
from pdom.formats import write_graph6
from pdom.formulas import (
    influencing_complete_bipartite,
    influencing_intersection_path,
    influencing_path,
)
from pdom.graphs import (
    cartesian_product,
    complete,
    complete_bipartite,
    mask_of,
    members,
    path,
    pendant_wheel_graph,
    subdivided_star,
    twin_broom_tree,
    twin_hub_graph,
)
from pdom.locating import proximity_verdict, support_within_two

from brute import brute_gamma, brute_minimum_sets, random_graph

HALF = Fraction(1, 2)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


def test_criterion_1_path_half_domination_formula():
    start = time.perf_counter()
    mismatches = [
        (n, got, want)
        for n in range(1, 25)
        for got, want in [(partial_domination_number(path(n), HALF).size, -(-n // 6))]
        if got != want
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _verdict("1", ok, f"paths n=1..24 vs ceil(n/6), {len(mismatches)} mismatches, {elapsed:.2f}s (budget 1s)")


def test_criterion_2_grid_half_domination_formulas():
    start = time.perf_counter()
    mismatches = []
    for n in range(2, 13):
        got = partial_domination_number(cartesian_product(path(2), path(n)), HALF).size
        if got != -(-n // 4):
            mismatches.append((2, n, got))
    for m in range(3, 7):
        for n in range(m, 7):
            got = partial_domination_number(cartesian_product(path(m), path(n)), HALF).size
            if got != -(-m * n // 10):
                mismatches.append((m, n, got))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _verdict("2", ok, f"2-row and wide grids, {len(mismatches)} mismatches, {elapsed:.2f}s (budget 30s)")


def test_criterion_3_complete_product_formula():
    start = time.perf_counter()
    mismatches = []
    for m in range(2, 7):
        for n in range(2, m + 1):
            got = partial_domination_number(cartesian_product(complete(m), complete(n)), HALF).size
            want = 1
            while 2 * want * (m + n) - 2 * want * want < m * n:
                want += 1
            if got != want:
                mismatches.append((m, n, got, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _verdict("3", ok, f"complete products 2<=n<=m<=6, {len(mismatches)} mismatches, {elapsed:.2f}s (budget 30s)")


def test_criterion_4_path_complete_product_formula():
    start = time.perf_counter()
    discrepancies = []
    for n in range(2, 9):
        for m in range(2, 6):
            got = partial_domination_number(cartesian_product(path(n), complete(m)), HALF).size
            want = -(-m * n // (2 * (m + 2)))
            if got != want:
                discrepancies.append({"n": n, "m": m, "solver": got, "formula": want})
    elapsed = time.perf_counter() - start
    for row in discrepancies:
        print(f"  discrepancy: {row}")
    ok = not discrepancies and elapsed < 30.0
    _verdict("4", ok, f"path-by-complete products, {len(discrepancies)} discrepancies, {elapsed:.2f}s")


def test_criterion_5_product_bound_scan_order_five():
    start = time.perf_counter()
    outcome = scan_conjecture(HALF, enumerate_graphs(5))
    elapsed = time.perf_counter() - start
    for report in outcome.failures:
        print(f"  failing pair: {report.record()}")
    ok = outcome.pairs == 496 and not outcome.failures and elapsed < 300.0
    _verdict("5", ok, f"{outcome.pairs} connected pairs of order <=5, {len(outcome.failures)} failures, {elapsed:.2f}s (budget 300s)")


def test_criterion_6_product_path_bounds():
    start = time.perf_counter()
    violations = []
    for g in enumerate_graphs(5, connected=True):
        for m in range(2, 7):
            # m = 2 is the P2 bound, for every base since gamma_{1/2}(P2) = 1;
            # for m >= 3 the scaling claim covers bases 1, 2 and 3 only
            report = check_product_inequality(g, path(m), HALF)
            if not report.holds and (m == 2 or report.gp_g in (1, 2, 3)):
                violations.append((write_graph6(g), m, f"base {report.gp_g}"))
    elapsed = time.perf_counter() - start
    for row in violations:
        print(f"  violation: {row}")
    ok = not violations and elapsed < 300.0
    _verdict("6", ok, f"product bounds vs path factors, m=2..6, {len(violations)} violations, {elapsed:.2f}s")


def test_criterion_7_path_influencing_oracle():
    start = time.perf_counter()
    mismatches = []
    for n in range(3, 13):
        g = path(n)
        for j in range(1, n + 1):
            p = Fraction(j, n)
            if influencing_set(g, p) != influencing_path(n, p):
                mismatches.append((n, j, "influencing"))
        if influencing_intersection(g) != influencing_intersection_path(n):
            mismatches.append((n, None, "intersection"))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    _verdict("7", ok, f"path influencing sets n=3..12 all j, {len(mismatches)} mismatches, {elapsed:.2f}s (budget 60s)")


def test_criterion_8_complete_bipartite_influencing_oracle():
    start = time.perf_counter()
    mismatches = []
    for m in range(1, 7):
        for n in range(1, m + 1):
            g = complete_bipartite(m, n)
            for k in range(1, m + n + 1):
                p = Fraction(k, m + n)
                if influencing_set(g, p) != influencing_complete_bipartite(m, n, p):
                    mismatches.append((m, n, k))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _verdict("8", ok, f"complete bipartite influencing sets 1<=n<=m<=6 all k, {len(mismatches)} mismatches, {elapsed:.2f}s")


def test_criterion_9a_subdivided_star_regression():
    g = subdivided_star(8)
    full = partial_domination_number(g, 1)
    half = partial_domination_number(g, HALF)
    half_family = all_minimum_sets(g, HALF).sets
    full_family = all_minimum_sets(g, 1).sets
    disjoint = any(s & t == 0 for s in full_family for t in half_family)
    ok = full.size == 8 and half.size == 1 and half.witness == mask_of([0]) and disjoint
    _verdict("9a", ok, f"gamma={full.size}, gamma_half={half.size}, witness center, disjoint pair exists: {disjoint}")


def test_criterion_9b_twin_hub_regression():
    g = twin_hub_graph()
    family = all_minimum_sets(g, Fraction(8, 9)).sets
    apex_free = all(not s >> 0 & 1 for s in family)
    top = [v for v in range(g.order) if g.degree(v) == g.max_degree()]
    ok = family == (mask_of([5, 6]),) and top == [0] and apex_free
    _verdict("9b", ok, f"unique minimum set {{5,6}}: {family == (mask_of([5, 6]),)}, apex excluded: {apex_free}")


def test_criterion_9c_pendant_wheel_regression():
    g = pendant_wheel_graph()
    computed = set(all_minimum_sets(g, Fraction(7, 9)).sets)
    stated = {mask_of(pair) for pair in combinations([1, 2, 3, 4], 2)}
    extra = sorted(sorted(members(s)) for s in computed - stated)
    missing = sorted(sorted(members(s)) for s in stated - computed)
    if computed != stated:
        print(f"  expected exactly the 6 hub-neighborhood pairs; found {len(computed)} sets")
        print(f"  extra sets: {extra}")
        print(f"  missing sets: {missing}")
    ok = computed == stated
    _verdict("9c", ok, f"family equals the 6 hub-neighborhood pairs: {ok} ({len(computed)} sets found)")


def test_criterion_9d_twin_broom_regression():
    g = twin_broom_tree()
    family = all_minimum_sets(g, Fraction(9, 11)).sets
    root_free = all(not s >> 0 & 1 for s in family)
    inside = any(s & ~g.adj[0] == 0 for s in family)
    ok = g.degree(0) == g.max_degree() and root_free and inside
    _verdict("9d", ok, f"root excluded from all {len(family)} sets: {root_free}, some set inside N(root): {inside}")


def test_criterion_10_proximity_and_influencing_invariants():
    start = time.perf_counter()
    violations = []
    for g in enumerate_graphs(7, connected=True):
        n = g.order
        g6 = write_graph6(g)
        top = g.max_degree()
        top_mask = mask_of(v for v in range(n) if g.degree(v) == top)
        delta = min(row.bit_count() for row in g.adj)
        for k in range(1, n + 1):
            p = Fraction(k, n)
            for v in members(top_mask):
                verdict = proximity_verdict(g, p, v)
                if not (verdict.contains_vertex or verdict.hits_neighbors or verdict.hits_distance_two):
                    violations.append((g6, k, v, "no minimum set within distance two"))
                if support_within_two(g, p, v) is False:
                    violations.append((g6, k, v, "fewer than two members near an excluded vertex"))
            found = influencing_set(g, p)
            if k <= 2 and found != g.full_mask:
                violations.append((g6, k, None, "low-proportion influencing set not full"))
            if k <= delta + 1 and found != g.full_mask:
                violations.append((g6, k, None, "min-degree threshold influencing set not full"))
            if k == top + 1 and found != top_mask:
                violations.append((g6, k, None, "influencing set at max-degree threshold"))
    elapsed = time.perf_counter() - start
    for row in violations:
        print(f"  violation: {row}")
    ok = not violations and elapsed < 600.0
    _verdict("10", ok, f"locating and influencing invariants over connected graphs <=7, {len(violations)} violations, {elapsed:.2f}s (budget 600s)")


def test_criterion_11_solver_matches_brute_oracle():
    start = time.perf_counter()
    rng = random.Random(20260816)
    proportions = [Fraction(1, 5), Fraction(1, 3), HALF, Fraction(4, 5), Fraction(1)]
    mismatches = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        for p in proportions:
            result = partial_domination_number(g, p)
            family = all_minimum_sets(g, p)
            expected_sets = {mask_of(combo) for combo in brute_minimum_sets(g, p)}
            if result.size != brute_gamma(g, p) or set(family.sets) != expected_sets:
                mismatches.append((write_graph6(g), str(p)))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _verdict("11", ok, f"200 random graphs x 5 proportions vs unpruned oracle, {len(mismatches)} mismatches, {elapsed:.2f}s")
