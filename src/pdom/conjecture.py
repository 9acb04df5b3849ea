"""Exhaustive small-order verification of the product lower bound.

The claim under test: the half (or general p) domination number of a
Cartesian product is at least the product of the factors' numbers. Factor
graphs come from an order-by-order enumeration of simple graphs up to
isomorphism: every edge mask is visited in increasing order, and each
previously unseen mask is the canonical (minimal) representative of its
isomorphism class, whose full permutation orbit is then marked as seen.
The factorial orbit walk caps the enumeration at order 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .domination import as_proportion, partial_domination_number
from .formats import write_graph6
from .graphs import (
    MAX_VERTICES,
    Graph,
    VertexCapError,
    cartesian_product,
    format_vertex_set,
    path,
)

MAX_ENUM_ORDER = 7

REPORT_HEADER = "# g6_g g6_h p gp_g gp_h gp_prod holds"


def _edge_permutation_maps(n: int, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """For each vertex permutation, where each edge bit lands."""
    index = {pair: e for e, pair in enumerate(pairs)}
    maps = []
    for perm in permutations(range(n)):
        maps.append(tuple(
            index[(perm[i], perm[j])] if perm[i] < perm[j] else index[(perm[j], perm[i])]
            for i, j in pairs
        ))
    return maps


def _adjacency_from_mask(n: int, pairs: list[tuple[int, int]], mask: int) -> tuple[int, ...]:
    adj = [0] * n
    t = mask
    while t:
        low = t & -t
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        t ^= low
    return tuple(adj)


def _mask_connected(n: int, adj: tuple[int, ...]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        t = frontier
        while t:
            low = t & -t
            grow |= adj[low.bit_length() - 1]
            t ^= low
        frontier = grow & ~seen
        seen |= grow
    return seen == (1 << n) - 1


def canonical_edge_mask(g: Graph) -> int:
    """Minimal edge mask over all vertex permutations; equal masks mean isomorphic."""
    n = g.order
    if n > MAX_ENUM_ORDER:
        raise ValueError(f"canonical form capped at order {MAX_ENUM_ORDER}, got {n}")
    pairs = list(combinations(range(n), 2))
    index = {pair: e for e, pair in enumerate(pairs)}
    edges = list(g.edges())
    best = None
    for perm in permutations(range(n)):
        mask = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            mask |= 1 << (index[(a, b)] if a < b else index[(b, a)])
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def enumerate_graphs(max_order: int, *, connected: bool = True) -> Iterator[Graph]:
    """All graphs up to isomorphism with 1..max_order vertices, smallest
    orders and smallest canonical edge masks first."""
    if not 1 <= max_order <= MAX_ENUM_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ENUM_ORDER}, got {max_order}")
    for n in range(1, max_order + 1):
        pairs = list(combinations(range(n), 2))
        perm_maps = _edge_permutation_maps(n, pairs)
        seen = bytearray(1 << len(pairs))
        for mask in range(1 << len(pairs)):
            if seen[mask]:
                continue
            adj = _adjacency_from_mask(n, pairs, mask)
            if connected and not _mask_connected(n, adj):
                continue  # connectivity is orbit-invariant, so skipping is safe
            yield Graph(adj)
            for pm in perm_maps:
                moved = 0
                t = mask
                while t:
                    low = t & -t
                    moved |= 1 << pm[low.bit_length() - 1]
                    t ^= low
                seen[moved] = 1


@dataclass(frozen=True)
class ScanReport:
    """One product-inequality check; witness is the product's minimum set
    when the inequality failed, otherwise None."""

    g6_g: str
    g6_h: str
    p: Fraction
    gp_g: int
    gp_h: int
    gp_product: int
    holds: bool
    witness: int | None

    def record(self) -> str:
        line = (
            f"{self.g6_g} {self.g6_h} {self.p.numerator}/{self.p.denominator} "
            f"{self.gp_g} {self.gp_h} {self.gp_product} {str(self.holds).lower()}"
        )
        if self.witness is not None:
            line += f" witness={format_vertex_set(self.witness)}"
        return line


@dataclass(frozen=True)
class ScanOutcome:
    """Failures only, plus the number of pairs checked and the family label."""

    pairs: int
    failures: tuple[ScanReport, ...]
    family: str


def check_product_inequality(g: Graph, h: Graph, p: Fraction | int) -> ScanReport:
    """Solve gamma_p on g, h, and their product; report whether the product
    value is at least the product of the factor values."""
    p = as_proportion(p)
    gp_g = partial_domination_number(g, p).size
    gp_h = partial_domination_number(h, p).size
    result = partial_domination_number(cartesian_product(g, h), p)
    holds = result.size >= gp_g * gp_h
    return ScanReport(
        g6_g=write_graph6(g),
        g6_h=write_graph6(h),
        p=p,
        gp_g=gp_g,
        gp_h=gp_h,
        gp_product=result.size,
        holds=holds,
        witness=None if holds else result.witness,
    )


def scan_conjecture(
    p: Fraction | int,
    *,
    max_order: int | None = None,
    graphs: Iterable[Graph] | None = None,
    include_disconnected: bool = False,
) -> ScanOutcome:
    """Check the product inequality over all unordered pairs (self-pairs
    included) from an enumerated or supplied family, in lexicographic graph6
    pair order. Only failing reports are kept."""
    p = as_proportion(p)
    if (max_order is None) == (graphs is None):
        raise ValueError("pass exactly one of max_order or graphs")
    if max_order is not None:
        family = "all" if include_disconnected else "connected"
        members = list(enumerate_graphs(max_order, connected=not include_disconnected))
    else:
        if include_disconnected:
            raise ValueError("include_disconnected applies only to enumerated scans")
        family = "external"
        members = list(graphs)
    entries = sorted(((write_graph6(g), g) for g in members), key=lambda e: e[0])
    values = [partial_domination_number(g, p).size for _, g in entries]
    failures = []
    pairs = 0
    for i in range(len(entries)):
        g6_g, g = entries[i]
        for j in range(i, len(entries)):
            g6_h, h = entries[j]
            pairs += 1
            result = partial_domination_number(cartesian_product(g, h), p)
            holds = result.size >= values[i] * values[j]
            if not holds:
                failures.append(ScanReport(
                    g6_g=g6_g,
                    g6_h=g6_h,
                    p=p,
                    gp_g=values[i],
                    gp_h=values[j],
                    gp_product=result.size,
                    holds=False,
                    witness=result.witness,
                ))
    return ScanOutcome(pairs=pairs, failures=tuple(failures), family=family)


@dataclass(frozen=True)
class ProductCheck:
    """Verdict of one lower-bound check against a path factor, with the
    computed quantities attached. Inapplicable checks hold vacuously."""

    applicable: bool
    holds: bool
    base: int
    factor: int
    product_value: int
    bound: int


_HALF = Fraction(1, 2)


def check_p2_product_bound(g: Graph) -> ProductCheck:
    """Half-domination of g x P2 must be at least that of g alone."""
    base = partial_domination_number(g, _HALF).size
    product_value = partial_domination_number(cartesian_product(g, path(2)), _HALF).size
    return ProductCheck(
        applicable=True,
        holds=product_value >= base,
        base=base,
        factor=partial_domination_number(path(2), _HALF).size,
        product_value=product_value,
        bound=base,
    )


def check_path_product_scaling(g: Graph, m: int) -> ProductCheck:
    """When half-domination of g is 1, 2, or 3, the product with P_m must be
    at least that value times the path's own number; other base values are
    out of scope and hold vacuously."""
    if m < 2:
        raise ValueError(f"path factor needs at least 2 vertices, got {m}")
    if g.order * m > MAX_VERTICES:
        raise VertexCapError(f"product order {g.order * m} exceeds the cap of {MAX_VERTICES}")
    base = partial_domination_number(g, _HALF).size
    factor = partial_domination_number(path(m), _HALF).size
    product_value = partial_domination_number(cartesian_product(g, path(m)), _HALF).size
    applicable = base in (1, 2, 3)
    bound = base * factor
    return ProductCheck(
        applicable=applicable,
        holds=product_value >= bound if applicable else True,
        base=base,
        factor=factor,
        product_value=product_value,
        bound=bound,
    )
