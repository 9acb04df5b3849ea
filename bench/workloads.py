"""The benchmark's four workloads: the calls of one pass and their inputs.

A run builds its pass once and repeats it, so every pass times the same
calls on the same inputs. An item is a `pdom.cli.main(argv)` call with an
expected exit code of 0 and an output check, except the first two items of
`sweep`, which call the library the way a script sweeping a graph family
would. Grid inputs are written by the benchmark as edge lists with an
`n <order>` header, since the CLI has no grid generator.

Labelling. The light grid inputs are written LABELLINGS times, each under
its own vertex labelling drawn from the run's seed, and every pass times
all of them; so the inputs a run times depend on the seed alone, not on how
many passes fit in the run. The heaviest calls keep the reference labelling
that `cartesian_product` produces: one random relabelling changes their
search time by 2 to 10 times (P6xP6 at p = 1 from 0.18 s to 1.77 s), so
timing them on a seeded labelling would measure the labelling, not the
code. Their expected witnesses are pinned for that labelling.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pdom.cli
import pdom.conjecture
import pdom.domination
from pdom.formats import read_graph6_lines
from pdom.formulas import half_domination_grid
from pdom.graphs import Graph, cartesian_product, path, subdivided_star

import checks


@dataclass(frozen=True)
class Item:
    """One timed call. ``run`` returns (exit code, output, stderr text);
    ``check`` returns None or the reason the output is wrong; ``count`` is
    how many items it adds to items_per_s."""

    label: str
    run: Callable[[], tuple[int, object, str]]
    check: Callable[[object], str | None]
    count: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[random.Random, Path], list[Item]]
    # Traced counts every pass must show; a missed binding fails the run.
    expected_counts: dict[str, int]
    # Traced counts that must be at least this high.
    least_counts: dict[str, int] = field(default_factory=dict)


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pdom.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_item(argv: list[str], check, count: int = 1) -> Item:
    return Item(" ".join(argv), lambda: cli(argv), check, count)


def grid(rows: int, cols: int) -> Graph:
    return cartesian_product(path(rows), path(cols))


def write_input(workdir: Path, name: str, g: Graph, rng: random.Random | None = None) -> checks.Instance:
    """Write g as an edge list; with rng, under a random vertex labelling."""
    labels = list(range(g.order))
    if rng is not None:
        rng.shuffle(labels)
    edges = [(labels[u], labels[v]) for u, v in g.edges()]
    file = workdir / f"{name}.txt"
    file.write_text(f"n {g.order}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return checks.Instance(file, g.order, edges, labels)


def _file_item(command: str, inst: checks.Instance, p: str, check) -> Item:
    return cli_item([command, "--file", str(inst.file), "--p", p], check)


LABELLINGS = 4  # seeded labellings of each light grid input, all timed in every pass


def _relabelled(workdir: Path, name: str, g: Graph, rng: random.Random, command: str, p: str, check) -> list[Item]:
    """One call per seeded labelling of g; ``check`` makes the check of an instance."""
    items = []
    for k in range(LABELLINGS):
        inst = write_input(workdir, f"{name}-{k}", g, rng)
        items.append(_file_item(command, inst, p, check(inst)))
    return items


# --- scan ---------------------------------------------------------------

# Order 5 only: an order-6 scan is one call of 2 s or more, and on a shared
# host a call that long rarely runs at full speed even once in a run. The
# proportions are ones where the product bound holds for every pair: at 4/5
# and 5/6 some order-5 pairs break it (C4 x C4 at 4/5 has gamma_p 3 < 2 * 2).
SCAN_RUNS = tuple((5, p) for p in ("1/3", "1/2", "3/5", "2/3", "3/4", "1/1"))


def scan_pass(rng: random.Random, workdir: Path) -> list[Item]:
    return [
        cli_item(["scan", "--max-order", str(order), "--p", p], checks.scan(order), checks.scan_pairs(order))
        for order, p in SCAN_RUNS
    ]


# --- full_cover and partial_cover ----------------------------------------

# rows, cols, p, gamma_p, lex-least witness on the reference labelling. At
# p = 1 gamma_p is the grid's domination number, known in closed form
# (Goncalves, Pinlou, Rao and Thomasse, 2011): 9, 10, 10 and 10.
FULL_GAMMA = (
    (5, 7, "1/1", 9, 0x244222112),
    (4, 9, "1/1", 10, 0x28C10408B),
    (3, 12, "1/1", 10, 0x222888223),
    (6, 6, "1/1", 10, 0x88844480B),
)
PARTIAL_GAMMA = (
    (8, 8, "3/4", 10, 0x48022084104208),
    (7, 9, "3/4", 11, 0x4488008910013),
)


def _pinned_gammas(workdir: Path, table) -> list[Item]:
    items = []
    for rows, cols, p, size, witness in table:
        inst = write_input(workdir, f"P{rows}xP{cols}", grid(rows, cols))
        items.append(_file_item("gamma", inst, p, checks.gamma(inst, Fraction(p), size, witness)))
    return items


def full_cover_pass(rng: random.Random, workdir: Path) -> list[Item]:
    return _pinned_gammas(workdir, FULL_GAMMA) + _relabelled(
        workdir, "P4xP6-enumerate", grid(4, 6), rng, "enumerate", "1/1",
        lambda inst: checks.enumeration(inst, Fraction(1), 7, 92))


def partial_cover_pass(rng: random.Random, workdir: Path) -> list[Item]:
    half = Fraction(1, 2)
    three_quarters = Fraction(3, 4)
    return (
        _pinned_gammas(workdir, PARTIAL_GAMMA)
        + _relabelled(workdir, "P8xP8-half", grid(8, 8), rng, "gamma", "1/2",
                      lambda inst: checks.gamma(inst, half, half_domination_grid(8, 8)))
        + _relabelled(workdir, "P5xP6-enumerate", grid(5, 6), rng, "enumerate", "3/4",
                      lambda inst: checks.enumeration(inst, three_quarters, 6, 12648))
        + _relabelled(workdir, "P6xP6-enumerate", grid(6, 6), rng, "enumerate", "1/2",
                      lambda inst: checks.enumeration(inst, half, 4, 2681))
        + _relabelled(workdir, "P5xP6-influence", grid(5, 6), rng, "influence", "3/4",
                      lambda inst: checks.influence(inst, (1 << 30) - 1))
    )


# --- sweep ----------------------------------------------------------------

# The enumerator runs to order 6 (0.1 s). At order 7 it takes 9 s, too long
# to repeat in a run, so the 853 connected graphs of order 7 are read from
# ORDER7, which holds enumerate_graphs(7)'s graphs of that order in graph6.
ENUMERATE_ORDER = 6
ENUMERATED = sum(checks.CONNECTED_BY_ORDER[:ENUMERATE_ORDER])
ORDER7 = Path(__file__).resolve().parent / "order7.g6"
BRUTE_SAMPLE = 20  # graphs per item re-checked against the brute-force oracle

# Influencing sets of subdivided-star:10 for p = k/21, k = 1..21.
ALL_P_GEN = "subdivided-star:10"
ALL_P_SETS = (
    0x1FFFFF, 0x1FFFFF, 0x7FF, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1,
    0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFF, 0x1FFFFE,
)


def sweep(graphs) -> tuple[int, list, str]:
    return 0, [(g, pdom.domination.influencing_intersection(g)) for g in graphs], ""


def sweep_pass(rng: random.Random, workdir: Path) -> list[Item]:
    import brute

    order7 = read_graph6_lines(ORDER7.read_text())
    star = subdivided_star(10)
    inst = checks.Instance(None, star.order, list(star.edges()), list(range(star.order)))
    return [
        Item(f"influencing_intersection over enumerate_graphs({ENUMERATE_ORDER})",
             lambda: sweep(pdom.conjecture.enumerate_graphs(ENUMERATE_ORDER)),
             checks.sweep(checks.CONNECTED_BY_ORDER[:ENUMERATE_ORDER], rng.sample(range(ENUMERATED), BRUTE_SAMPLE),
                          brute),
             ENUMERATED),
        Item(f"influencing_intersection over the order-7 graphs of {ORDER7.name}",
             lambda: sweep(order7),
             checks.sweep((0,) * 6 + checks.CONNECTED_BY_ORDER[6:7], rng.sample(range(len(order7)), BRUTE_SAMPLE),
                          brute),
             len(order7)),
        cli_item(["influence", "--gen", ALL_P_GEN, "--all-p"], checks.all_p(inst, ALL_P_SETS)),
    ]


WORKLOADS = {w.name: w for w in (
    # A scan solves each of the 31 factor graphs once.
    Workload("scan", scan_pass,
             {"conjecture.pairs": len(SCAN_RUNS) * checks.scan_pairs(5),
              "domination.factor_solve.calls": len(SCAN_RUNS) * sum(checks.CONNECTED_BY_ORDER[:5]),
              "cli.main.calls": len(SCAN_RUNS)},
             {"domination.product_solve.calls": 1, "conjecture.product_solves": 1}),
    Workload("full_cover", full_cover_pass, {"cli.main.calls": len(FULL_GAMMA) + LABELLINGS}),
    Workload("partial_cover", partial_cover_pass, {"cli.main.calls": 2 + 4 * LABELLINGS}),
    Workload("sweep", sweep_pass, {"conjecture.enumerate_graphs.graphs": ENUMERATED, "cli.main.calls": 1}),
)}
