"""Closed-form reference values for partial domination on named families.

These are the independent side of oracle-vs-solver tests: each function
evaluates a published formula or case table directly, with exact integer
arithmetic, and never calls the search code. Case tables carry an
exhaustive-match assertion so a boundary proportion can never fall through
two guards or none.
"""

from __future__ import annotations

from fractions import Fraction

from .domination import as_proportion
from .graphs import mask_of


def half_domination_path(n: int) -> int:
    """ceil(n/6): one sixth of a path, rounded up."""
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return -(-n // 6)


def half_domination_grid(m: int, n: int) -> int:
    """ceil(n/4) for a 2-row grid, ceil(m*n/10) for wider grids.

    Verified against the solver for every 2 <= m <= n with mn <= 64.
    """
    if m < 2 or m > n:
        raise ValueError(f"grid formula needs 2 <= m <= n, got ({m}, {n})")
    if m == 2:
        return -(-n // 4)
    return -(-m * n // 10)


def domination_grid(m: int, n: int) -> int:
    """Domination number (p = 1) of the m-by-n grid P_m x P_n for m <= 4.

    The closed forms of Jacobson and Kinch ("On the domination number of
    products of graphs: I", Ars Combinatoria 18, 1984): ceil(n/3) for one
    row, floor((n+2)/2) for two, floor((3n+4)/4) for three, and for four n,
    or n + 1 when n is 5, 6 or 9.
    """
    if not 1 <= m <= min(4, n):
        raise ValueError(f"grid formula needs 1 <= m <= 4 and m <= n, got ({m}, {n})")
    if m == 1:
        return -(-n // 3)
    if m == 2:
        return (n + 2) // 2
    if m == 3:
        return (3 * n + 4) // 4
    return n + 1 if n in (5, 6, 9) else n


def half_domination_complete_product(m: int, n: int) -> int:
    """Smallest positive k with 2k(m+n) - 2k^2 >= mn.

    k cells on the diagonal of the m-by-n grid of a complete-by-complete
    product cover k(m+n) - k^2 vertices; the integer search sidesteps the
    equivalent square-root closed form and its floating-point boundaries.
    """
    if m < 1 or n < 1:
        raise ValueError(f"complete factors need at least 1 vertex, got ({m}, {n})")
    k = 1
    while 2 * k * (m + n) - 2 * k * k < m * n:
        k += 1
    return k


def half_domination_path_complete(n: int, m: int) -> int:
    """ceil(mn / (2(m+2))) for a path-by-complete product.

    Verified against the solver for 2 <= n <= 8, 2 <= m <= 5.
    """
    if n < 1 or m < 1:
        raise ValueError(f"factors need at least 1 vertex, got ({n}, {m})")
    return -(-m * n // (2 * (m + 2)))


def _exact_multiple(p: Fraction, n: int, what: str) -> int:
    """p as an integer numerator over n, rejecting anything else."""
    scaled = p * n
    if scaled.denominator != 1:
        raise ValueError(f"{what} needs p to be a multiple of 1/{n}, got {p}")
    return int(scaled)


def influencing_complete_bipartite(m: int, n: int, p: Fraction | int) -> int:
    """Influencing set of a complete bipartite graph, sides m >= n >= 1,
    using the generator's labeling (side one 0..m-1, side two m..m+n-1).

    Every vertex of the small side covers m+1 vertices and every vertex of
    the large side only n+1, so for middle proportions the singletons from
    the large side drop out of the minimum family.
    """
    if not m >= n >= 1:
        raise ValueError(f"sides must satisfy m >= n >= 1, got ({m}, {n})")
    p = as_proportion(p)
    if p == 0:
        raise ValueError("influencing description needs p > 0")
    k = _exact_multiple(p, m + n, "complete bipartite influencing")
    full = (1 << (m + n)) - 1
    if m == n:
        return full
    side_two = ((1 << n) - 1) << m
    hits = []
    if k <= n + 1:
        hits.append(full)
    if n + 2 <= k <= m + 1:
        hits.append(side_two)
    if k >= m + 2:
        hits.append(full)
    assert len(hits) == 1, f"exactly one case must apply (m={m}, n={n}, k={k})"
    return hits[0]


def _labels(first: int, stop: int, step: int = 3) -> int:
    """Mask over path labels v_1..v_n (label i at bit i-1)."""
    return mask_of(i - 1 for i in range(first, stop, step))


def influencing_path(n: int, p: Fraction | int) -> int:
    """Influencing set of a path, by the residue of n mod 3 and the case of
    p = j/n. Labels follow the path generator: v_i at index i-1."""
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    p = as_proportion(p)
    if p == 0:
        raise ValueError("influencing description needs p > 0")
    j = _exact_multiple(p, n, "path influencing")
    full = (1 << n) - 1
    interior = full & ~1 & ~(1 << n - 1)  # v_2 .. v_{n-1}
    r = n % 3
    jr = j % 3
    hits = []
    if r == 0:
        if jr in (1, 2):
            hits.append(full)
        if jr == 0 and j < n:
            hits.append(interior)
        if j == n:
            hits.append(_labels(2, n))  # v_2, v_5, ..., v_{n-1}
    elif r == 1:
        if jr in (1, 2):
            hits.append(full)
        if jr == 0 and j != n - 1:
            hits.append(interior)
        if j == n - 1:
            hits.append(full & ~_labels(1, n + 1))  # all but v_1, v_4, ..., v_n
    else:
        if jr == 1 or (jr == 2 and j < n):
            hits.append(full)
        if jr == 0:
            hits.append(interior)
        if j == n:
            hits.append(full & ~_labels(3, n - 1))  # all but v_3, v_6, ..., v_{n-2}
    assert len(hits) == 1, f"exactly one case must apply (n={n}, j={j})"
    return hits[0]


def influencing_intersection_path(n: int) -> int:
    """Intersection of the path's influencing sets over p = k/n, k = 1..n."""
    if n < 3:
        raise ValueError(f"intersection description needs n >= 3, got {n}")
    r = n % 3
    if r == 0:
        return _labels(2, n)                       # v_{2+3k}
    if r == 1:
        return _labels(2, n - 1) | _labels(3, n)   # v_{2+3k}, v_{3+3k}
    return _labels(4, n) | _labels(2, n - 2)       # v_{1+3k} (k>0), v_{2+3j}
