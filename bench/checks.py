"""Output checks for the benchmark's calls, and a self-test of the checks.

A check reads what a call printed and compares it with facts known apart
from the timed code path: connected-graph counts (OEIS A001349), the closed
forms in pdom.formulas, values pinned for the fixed reference inputs,
coverage recomputed from the edge list the benchmark wrote, and the
brute-force oracle in tests/brute.py. Only labelling-invariant facts are
compared on relabelled inputs: sizes, set counts and witness validity, or a
pinned set after mapping its labels back. A check returns None when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from pathlib import Path

from pdom.domination import is_p_dominating
from pdom.graphs import from_edges, pendant_wheel_graph, twin_broom_tree, twin_hub_graph

# Connected graphs on n = 1..7 vertices, up to isomorphism (OEIS A001349).
CONNECTED_BY_ORDER = (1, 1, 2, 6, 21, 112, 853)

SCAN_HEADER = "# g6_g g6_h p gp_g gp_h gp_prod holds"

_SET = re.compile(r"\{(\d+(?:,\d+)*)?\}")


def scan_pairs(max_order: int) -> int:
    """Unordered pairs, self-pairs included, of connected graphs up to max_order."""
    return comb(sum(CONNECTED_BY_ORDER[:max_order]) + 1, 2)


def target(n: int, p: Fraction) -> int:
    return -(-p.numerator * n // p.denominator)


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def set_text(vertices) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


class Instance:
    """A graph input as the benchmark wrote it. ``labels[v]`` is the label
    that vertex v of the reference labelling carries in the file."""

    def __init__(self, file: Path | None, order: int, edges: list[tuple[int, int]], labels: list[int]):
        self.file = file
        self.order = order
        self.graph = from_edges(order, edges)
        self.reference = [0] * order
        for v, label in enumerate(labels):
            self.reference[label] = v
        self.closed = [1 << v for v in range(order)]
        for u, v in edges:
            self.closed[u] |= 1 << v
            self.closed[v] |= 1 << u

    def parse_set(self, text: str) -> tuple[int, ...]:
        m = _SET.fullmatch(text)
        if m is None:
            raise ValueError(f"not a vertex set: {text!r}")
        vertices = tuple(int(t) for t in m.group(1).split(",")) if m.group(1) else ()
        if any(v >= self.order for v in vertices) or list(vertices) != sorted(set(vertices)):
            raise ValueError(f"not an increasing set of vertices below {self.order}: {text}")
        return vertices

    def covered(self, vertices) -> int:
        out = 0
        for v in vertices:
            out |= self.closed[v]
        return out.bit_count()

    def to_reference(self, vertices) -> int:
        return mask(self.reference[v] for v in vertices)


def _guard(check):
    """Turn a parse error inside a check into a reason."""
    def guarded(output):
        try:
            return check(output)
        except (ValueError, IndexError, TypeError) as exc:
            return f"unparseable output: {exc}"
    return guarded


def scan(max_order: int):
    want = [SCAN_HEADER, "# family=connected", f"pairs={scan_pairs(max_order)}, failures=0"]

    def check(output):
        got = output.splitlines()
        return None if got == want else f"expected {want}, got {got[:4]}"
    return check


def gamma(inst: Instance, p: Fraction, size: int, witness: int | None = None):
    """A minimum p-dominating set of the given size; when ``witness`` is
    pinned (reference labelling), the lex-least one."""
    def check(output):
        lines = output.splitlines()
        if len(lines) != 3:
            return f"expected 3 lines, got {len(lines)}"
        if lines[0] != f"gamma_p = {size}":
            return f"expected gamma_p = {size}, got {lines[0]!r}"
        if not lines[1].startswith("witness = "):
            return f"no witness line: {lines[1]!r}"
        found = inst.parse_set(lines[1].removeprefix("witness = "))
        if len(found) != size or not is_p_dominating(inst.graph, mask(found), p):
            return f"witness {set_text(found)} is not a p-dominating set of size {size}"
        if witness is not None and inst.to_reference(found) != witness:
            return f"witness {set_text(found)} is not the lex-least one"
        want = f"covered = {inst.covered(found)} of {inst.order} (target {target(inst.order, p)})"
        return None if lines[2] == want else f"expected {want!r}, got {lines[2]!r}"
    return _guard(check)


def enumeration(inst: Instance, p: Fraction, size: int, count: int):
    """Exactly ``count`` distinct p-dominating sets of ``size``, in lexicographic order."""
    need = target(inst.order, p)

    def check(output):
        found = [inst.parse_set(line) for line in output.splitlines()]
        if len(found) != count:
            return f"expected {count} sets, got {len(found)}"
        for before, s in zip([None] + found, found):
            if len(s) != size or inst.covered(s) < need:
                return f"{set_text(s)} is not a p-dominating set of size {size}"
            if before is not None and not before < s:
                return f"{set_text(s)} is out of order or repeated"
        return None
    return _guard(check)


def influence(inst: Instance, expected: int):
    def check(output):
        lines = output.splitlines()
        if len(lines) != 1 or not lines[0].startswith("influencing = "):
            return f"expected one influencing line, got {lines[:2]}"
        got = inst.to_reference(inst.parse_set(lines[0].removeprefix("influencing = ")))
        return None if got == expected else f"influencing set {lines[0]} differs from the pinned one"
    return _guard(check)


def all_p(inst: Instance, expected: tuple[int, ...]):
    """One influencing line per p = k/n with the pinned sets, then their intersection."""
    n = inst.order

    def check(output):
        lines = output.splitlines()
        if len(lines) != n + 1:
            return f"expected {n + 1} lines, got {len(lines)}"
        meet = (1 << n) - 1
        for k, (line, want) in enumerate(zip(lines, expected), start=1):
            head = f"p={k}/{n} influencing = "
            if not line.startswith(head) or inst.to_reference(inst.parse_set(line.removeprefix(head))) != want:
                return f"line {k} differs from the pinned set: {line!r}"
            meet &= want
        last = lines[-1]
        if not last.startswith("intersection = "):
            return f"no intersection line: {last!r}"
        got = inst.to_reference(inst.parse_set(last.removeprefix("intersection = ")))
        return None if got == meet else f"intersection {last!r} is not the meet of the sets"
    return _guard(check)


def sweep(by_order: tuple[int, ...], sample: list[int], brute):
    """``by_order[n - 1]`` graphs of each order n and no others, and a
    seeded sample of their intersections against the brute-force oracle."""
    def check(output):
        orders = [g.order for g, _ in output]
        histogram = tuple(orders.count(n) for n in range(1, len(by_order) + 1))
        if histogram != by_order or len(orders) != sum(by_order):
            return f"{len(orders)} graphs, {histogram} by order, expected {by_order}"
        for i in sample:
            g, got = output[i]
            if got != mask(brute.brute_intersection(g)):
                return f"graph {i}: intersection {got:#x} differs from the brute-force oracle"
        return None
    return check


def mutate(line: str) -> str:
    """Change one line slightly: bump its last integer, or append a mark."""
    found = list(re.finditer(r"\d+", line))
    if not found:
        return line + "?"
    last = found[-1]
    return line[:last.start()] + str(int(last.group()) + 1) + line[last.end():]


def self_test(check, output: str) -> list[str]:
    """Faults of the check itself: it must reject the empty output of an
    entry point that does nothing, and every single mutated line."""
    faults = []
    if check("") is None:
        faults.append("accepts the empty output of a no-op entry point")
    lines = output.splitlines()
    for i in range(len(lines)):
        mutated = lines[:i] + [mutate(lines[i])] + lines[i + 1:]
        if check("\n".join(mutated) + "\n") is None:
            faults.append(f"accepts output with line {i + 1} mutated to {mutated[i]!r}")
    return faults


# Bundled figures and proportions checked against the brute-force oracle.
# The pendant wheel (fig3) at p = 7/9 has the oracle's 10 minimum sets.
FIGURES = (
    ("fig2", twin_hub_graph, ("8/9", "1/1")),
    ("fig3", pendant_wheel_graph, ("7/9", "1/2")),
    ("fig4", twin_broom_tree, ("1/2", "1/1")),
)


def figure_faults(cli, brute) -> list[str]:
    """`pdom enumerate` on the bundled figures must print the oracle's sets."""
    faults = []
    for name, build, proportions in FIGURES:
        for text in proportions:
            code, out, err = cli(["enumerate", "--gen", name, "--p", text])
            want = [set_text(s) for s in brute.brute_minimum_sets(build(), Fraction(text))]
            if code != 0 or out.splitlines() != want:
                faults.append(f"enumerate {name} at p={text}: exit {code}, {len(out.splitlines())} sets, "
                              f"oracle has {len(want)}")
    return faults
