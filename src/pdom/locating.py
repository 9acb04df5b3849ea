"""Where minimum sets sit around a maximum-degree vertex.

The verdict helpers measure how the minimum p-dominating sets relate to a
maximum-degree vertex v: whether some minimum set contains v, a neighbour
of v, or a vertex at distance two. Each of these asks whether the
influencing set, the union of the minimum sets, meets that shell, so
`proximity_verdict` reads one influencing set and never lists the family.
`support_within_two` counts members of each minimum set, so it lists them.
Verdicts report raw truth; they never assume the expected pattern holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domination import all_minimum_sets, as_proportion, influencing_set
from .graphs import Graph


def _positive_proportion(p: Fraction | int) -> Fraction:
    p = as_proportion(p)
    if p == 0:
        raise ValueError("verdicts need a positive proportion; at p = 0 the only minimum set is empty")
    return p


def _check_max_degree(g: Graph, v: int) -> None:
    if g.degree(v) != g.max_degree():
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, not the maximum {g.max_degree()}")


@dataclass(frozen=True)
class LocatingVerdict:
    """How the minimum sets for one proportion sit around a max-degree vertex."""

    vertex: int
    contains_vertex: bool        # some minimum set contains the vertex itself
    hits_neighbors: bool         # some minimum set meets its open neighborhood
    hits_distance_two: bool      # some minimum set meets its distance-2 shell


def proximity_verdict(g: Graph, p: Fraction | int, v: int) -> LocatingVerdict:
    """Report which shells around the max-degree vertex v the minimum sets
    for p hit, read off their union, the influencing set."""
    p = _positive_proportion(p)
    _check_max_degree(g, v)
    union = influencing_set(g, p)
    return LocatingVerdict(
        vertex=v,
        contains_vertex=bool(union >> v & 1),
        hits_neighbors=bool(union & g.adj[v]),
        hits_distance_two=bool(union & g.closed_two_ball(v) & ~(g.adj[v] | 1 << v)),
    )


def support_within_two(g: Graph, p: Fraction | int, v: int) -> bool | None:
    """When the max-degree vertex v is in no minimum set for p, check that
    every minimum set keeps at least two members within distance two of v.
    Returns None (not applicable) when v does belong to some minimum set."""
    p = _positive_proportion(p)
    _check_max_degree(g, v)
    family = all_minimum_sets(g, p)
    if any(s >> v & 1 for s in family.sets):
        return None
    ball = g.closed_two_ball(v)
    return all((s & ball).bit_count() >= 2 for s in family.sets)
