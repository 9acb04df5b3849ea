"""Run the mutant catalogue: each guarded fast path or check, broken on
purpose in a copy of the tree, must make its named tests fail.

    python tools/mutants.py

Each mutant is one exact source-string replacement in one file under src/,
made at every occurrence of the string; the entry gives how many there
are (one unless it says otherwise). The script copies the working tree,
without git data or caches, into a temporary directory. It first runs
every named test on the unmutated copy, where all must pass. Then, for
each mutant in a fresh copy, it checks that the source string occurs as
often as the entry says, applies the replacement and runs each of the
mutant's tests alone with pytest; the mutant is killed only when every one
of those runs reports a failing test (exit status 1), so each named test
is a catcher on its own. The script exits 1 if a named test passes on its
mutant, if a source string occurs a different number of times, or if any
run ends in another way (a collection error, an unknown test id, a
timeout). A stale entry is mended by updating its strings or tests, never
by dropping it. Standard library only, apart from the test dependencies
that tier-1 needs (pytest, hypothesis, networkx).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repo root
    old: str  # must occur exactly count times in the file
    new: str
    tests: tuple[str, ...]  # pytest ids; each must fail when run alone
    count: int = 1  # occurrences of old, all replaced


DOMINATION = "src/pdom/domination.py"
KERNEL = "tests/test_domination.py"
CONJECTURE = "src/pdom/conjecture.py"
SCAN = "tests/test_conjecture.py"
CLI = "src/pdom/cli.py"

MUTANTS = (
    Mutant("size-one-table-without-suffix-or", DOMINATION,
           "alone[t] |= alone[t + 1]", "pass",
           (f"{KERNEL}::test_sweep_and_intersection_match_brute_to_order_6",
            f"{KERNEL}::test_size_one_targets_match_brute")),
    Mutant("all-mode-sort-skipped", DOMINATION,
           "if len(hits) > 1:", "if False:",
           (f"{KERNEL}::test_family_in_lex_order_under_breadth_first_order",
            f"{KERNEL}::test_family_is_sorted_and_duplicate_free")),
    Mutant("census-rank-not-strict", CONJECTURE,
           "if top[census] < rank:", "if top[census] <= rank:",
           (f"{SCAN}::test_census_rejects_only_children_the_minimality_test_rejects",
            f"{SCAN}::test_connected_counts_per_order")),
    Mutant("asymmetric-product", "src/pdom/graphs.py",
           "| spread[i] << j for i", "| (spread[i] & ~(-1 << i * m)) << j for i",
           ("tests/test_graphs.py::test_product_of_two_edges_is_a_square",
            "tests/test_graphs.py::test_prism_is_cubic")),
    Mutant("memo-key-without-cursor", DOMINATION,
           "key = live << 14 | m << 7 | j", "key = live << 14 | m << 7",
           (f"{KERNEL}::test_failure_memo_key_holds_the_cursor",
            f"{KERNEL}::test_kernel_modes_match_oracle_on_sparse_connected_graphs")),
    Mutant("failure-recorded-after-union-prune", DOMINATION,
           "if events == before:", "if True:",
           (f"{KERNEL}::test_failure_memo_keeps_union_pruned_children",
            f"{KERNEL}::test_kernel_modes_match_oracle_on_sparse_connected_graphs")),
    # vars() reads the previous target's binding; the first target sees none.
    Mutant("found-not-reset-between-targets", DOMINATION,
           "found = 0", "found = vars().get(\"found\", 0)",
           (f"{KERNEL}::test_sweep_search_size_is_pinned",
            f"{KERNEL}::test_influencing_intersection")),
    Mutant("hits-not-reset-between-targets", DOMINATION,
           "hits: list[int] = []", "hits = vars().get(\"hits\", [])",
           (f"{KERNEL}::test_solver_matches_brute_exhaustively_to_order_5",
            f"{KERNEL}::test_kernel_modes_match_oracle_on_sparse_connected_graphs")),
    Mutant("success-memo-key-without-held", DOMINATION,
           "state = key << 7 | held", "state = key << 7",
           (f"{KERNEL}::test_slack_bound_on_relabelled_grid",
            f"{KERNEL}::test_kernel_modes_match_oracle_on_sparse_connected_graphs")),
    # Without the events a node whose hits all came from reuses records a failure.
    Mutant("success-memo-reuse-without-events", DOMINATION,
           "events += len(listed[1])", "pass",
           (f"{KERNEL}::test_failure_memo_key_holds_the_cursor",
            f"{KERNEL}::test_kernel_modes_match_brute_on_sparse_graphs")),
    Mutant("success-memo-kept-across-targets", DOMINATION,
           "wins: dict[int, tuple[int, list[int]]] = {}", "wins = vars().get(\"wins\", {})",
           (f"{KERNEL}::test_success_memo_is_cleared_per_target",
            f"{KERNEL}::test_kernel_modes_match_brute_on_sparse_graphs")),
    # Outputs stay right; only the node count shows it (and time and memory).
    Mutant("success-memo-at-every-depth", DOMINATION,
           "m == reuse", "m >= reuse > 0",
           (f"{KERNEL}::test_search_tree_size",), count=2),
    Mutant("union-prune-skips-the-cursor", DOMINATION,
           "if union and not (chosen | suffix[i]) & ~found:", "if union and not (chosen | suffix[j]) & ~found:",
           (f"{KERNEL}::test_search_tree_size",
            f"{KERNEL}::test_kernel_modes_match_oracle_on_sparse_connected_graphs",
            f"{KERNEL}::test_sweep_and_intersection_match_brute_to_order_6")),
    # Target max|N[v]| holds the vertices of largest closed neighborhood alone.
    Mutant("intersection-skips-a-needed-target", DOMINATION,
           "range(g.max_degree() + 1, g.order + 1)", "range(g.max_degree() + 2, g.order + 1)",
           (f"{KERNEL}::test_sweep_and_intersection_match_brute_to_order_6",
            f"{KERNEL}::test_influencing_intersection")),
    Mutant("per-pick-bound-too-strict", DOMINATION,
           "(cl[x] & child_uncovered).bit_count() >= need", "(cl[x] & child_uncovered).bit_count() > need",
           (f"{KERNEL}::test_influencing_set_matches_brute",
            f"{KERNEL}::test_sweep_search_size_is_pinned")),
    Mutant("component-start-at-lowest-label", DOMINATION,
           "frontier = 1 << degree.index(min(degree))", "frontier = left & -left",
           (f"{KERNEL}::test_breadth_first_starts_each_component_at_its_least_degree",
            f"{KERNEL}::test_family_in_lex_order_under_breadth_first_order",
            f"{KERNEL}::test_search_tree_size")),
    Mutant("proportion-subclass-kept", DOMINATION,
           "if type(value) is Fraction:", "if isinstance(value, Fraction):",
           (f"{KERNEL}::test_proportion_bounds_are_inclusive",)),
    Mutant("proportion-range-check-skipped", DOMINATION,
           "p = value", "return value",
           (f"{KERNEL}::test_proportion_just_outside_the_bounds_rejected",
            f"{KERNEL}::test_coverage_target_rejects_bad_input")),
    Mutant("packing-table-without-distance-two", DOMINATION,
           "far = [full ^ g.closed_two_ball(v) for v in range(n)]", "far = [full ^ (g.adj[v] | 1 << v) for v in range(n)]",
           (f"{KERNEL}::test_packing_bound_on_relabelled_grid",
            "tests/test_formulas.py::test_domination_grid_matches_solver")),
    # Outputs stay right; the orbit minima and the enumeration's search size show it.
    Mutant("orbit-filter-first-generator-only", CONJECTURE,
           "            for image in images:", "            for image in images[:1]:",
           (f"{SCAN}::test_orbit_filter_keeps_exactly_the_orbit_minima",
            f"{SCAN}::test_enumeration_search_size_is_pinned")),
    Mutant("certificate-below-full-domination", CONJECTURE,
           "certified = [p == 1 and", "certified = [p >= Fraction(3, 4) and",
           (f"{SCAN}::test_certificate_only_at_full_domination",
            "tests/test_cli.py::test_scan_spider_square_fails_golden")),
    Mutant("packing-drops-only-its-vertex", CONJECTURE,
           "left &= ~balls[v]", "left &= ~(1 << v)",
           (f"{SCAN}::test_packing_is_a_two_packing_on_connected_graphs",
            f"{SCAN}::test_packing_bound_against_the_brute_oracle")),
    Mutant("lines-keep-whitespace-only-lines", "src/pdom/formats.py",
           "if raw.strip())", "if raw)",
           ("tests/test_cli.py::test_scan_rejects_file_without_graphs",
            "tests/test_formats.py::test_read_graph6_lines_reports_line_numbers")),
    Mutant("fixture-takes-arguments", CLI,
           "if sep and not arity:", "if False:",
           ("tests/test_cli.py::test_graph_from_generator_rejects[fig2:]",
            "tests/test_cli.py::test_graph_from_generator_messages")),
    Mutant("proportion-range-left-to-the-caller", CLI,
           "return as_proportion(Fraction(num, den))", "return Fraction(num, den)",
           ("tests/test_cli.py::test_parse_proportion_rejects",
            "tests/test_cli.py::test_proportion_above_one_golden")),
)


def copy_tree(into: Path) -> None:
    """The working tree without git data or caches (tests read tools/ and
    bench/ files too)."""
    skip = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache", ".work", "build")
    shutil.copytree(ROOT, into, ignore=skip)


def pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status on the tests in tree; -1 on a timeout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def run(mutant: Mutant, scratch: Path) -> str | None:
    """None when the mutant is killed, else what went wrong."""
    tree = scratch / mutant.name
    copy_tree(tree)
    target = tree / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != mutant.count:
        return f"its source string occurs {text.count(mutant.old)} times in {mutant.path}, not {mutant.count}"
    target.write_text(text.replace(mutant.old, mutant.new))
    problems = []
    for test in mutant.tests:
        status = pytest(tree, (test,))
        if status != 1:
            problems.append(f"{test} passes" if status == 0 else f"{test} ends with pytest status {status}")
    return "; ".join(problems) or None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pdom-mutants-") as scratch_dir:
        scratch = Path(scratch_dir)
        clean = scratch / "unmutated"
        copy_tree(clean)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        status = pytest(clean, tests)
        if status != 0:
            print(f"FAIL the named tests do not pass on the unmutated tree (pytest status {status})")
            return 1
        failures = 0
        for mutant in MUTANTS:
            problem = run(mutant, scratch)
            print(f"{'killed' if problem is None else 'FAIL'} {mutant.name}" + (f": {problem}" if problem else ""))
            failures += problem is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
