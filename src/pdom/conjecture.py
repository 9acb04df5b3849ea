"""Exhaustive small-order verification of the product lower bound.

The claim under test: the half (or general p) domination number of a
Cartesian product is at least the product of the factors' numbers. One
product check, `_solve_product`, makes that comparison both for the scan
over a family and for `check_product_inequality` on a single pair; the
scan builds a report for the failing pairs only. Factor
graphs come from an orderly enumeration of simple graphs up to isomorphism
(R. C. Read, "Every one a winner", 1978; B. D. McKay, "Isomorph-free
exhaustive generation", 1998). A class is represented by its least edge
mask, where pair (a, b), a < b, sets the bit whose index is the pair's
rank in lexicographic order. The pairs with a >= 1 fill the top bits, so
deleting vertex 0 from a canonical graph leaves a canonical graph one
order down: a relabelling of vertices 1..n-1 that lowered those bits would
lower the whole mask. Every canonical graph of order n is therefore
h << (n-1) | s, where h is a canonical mask of order n - 1 and s gives the
neighbours of the new vertex 0, and it is kept exactly when no relabelling
gives a smaller mask. Looping over h and s in ascending order yields each
class once, in ascending mask order, with no table of seen graphs. The
minimality test backtracks over relabellings, pruned by automorphisms
(McKay 1998). Swapping two twins (vertices with the same neighbours apart
from each other) fixes the rest of the graph, so each position tries one
vertex per twin class. An automorphism sigma of h with sigma(s) < s gives
the child the smaller mask h << (n-1) | sigma(s), so only the s that are
least in their orbit, under the automorphisms the parent's own test met
and its twin swaps, are tested.

Most children that reach the minimality test fail it, and a degree census
rejects most of those first. The census of a graph is the sum of
16**deg(u) over its vertices, an isomorphism invariant; with fewer than 16
vertices each 4-bit field holds the count of one degree, so it is the
degree sequence. Let the child be h << (n-1) | s, with h of rank r in the
previous order, whose graphs are all listed in ascending mask order. If
deleting a vertex v of the child leaves a census that only graphs of rank
below r have, child - v is isomorphic to one of them, so its canonical
mask is below h. Putting v at position 0 and child - v in its canonical
labelling above it gives the mask canon(child - v) << (n-1) | s', below
h << (n-1) and so below the child's: the child is not canonical. The test
keeps, per census, the highest rank that has it. MAX_ENUM_ORDER caps the
order at 7.

A connected enumeration drops a child of the last order before either
test when its new vertex misses a component of its parent: for n >= 2,
h << (n-1) | s is connected exactly when s meets every component of h, and
no later order is grown from it. Lower orders keep such children, since a
connected graph's canonical parent can be disconnected: a star's is the
edgeless graph. Each kept child's components come from its parent's: those
s misses, and one holding vertex 0 and all the others.

At p = 1 the scan settles most pairs without building the product. A
2-packing of G is a set of vertices pairwise at distance at least 3, so
their closed neighbourhoods are disjoint, and rho(G) is the size of a
largest one. gamma(G x H) >= rho(G) gamma(H) (A. Fisher, "Domination,
fractional domination, 2-packing, and graph products", SIAM J. Discrete
Math. 7, 1994; B. Brešar et al., "Vizing's conjecture: a survey and recent
results", J. Graph Theory 69, 2012): for each u of a 2-packing, the
vertices a dominating set D of G x H has in N[u] x V(H), projected to H,
dominate H, because (u, h) is dominated either within its own H-fibre or
from (u', h) with u' a neighbour of u. These sets of D are disjoint. So a
factor with a 2-packing of gamma(G) vertices certifies every pair it is in,
and such a pair cannot fail. The proof needs every vertex (u, h)
dominated, so the certificate holds at p = 1 only. Below it a p-dominating
set may leave whole fibres uncovered. The spider S(2,2,2) has rho = 3 =
gamma_{3/4}, yet its square has gamma_{3/4} = 8. The test is p == 1, not
that each factor's target reaches its order: at p = 24/25 an order-5 factor
has target 5, but the order-25 product has target 24. The packing comes
from a greedy, `_packing`, with no search, so a large factor costs O(n^2)
bit operations; where it finds fewer than gamma(G) vertices, the pair is
solved as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .domination import as_proportion, partial_domination_number
from .formats import write_graph6
from .graphs import Graph, _check_product_order, cartesian_product, format_vertex_set, members

MAX_ENUM_ORDER = 7

REPORT_HEADER = "# g6_g g6_h p gp_g gp_h gp_prod holds"


def _beaten(adj: tuple[int, ...], found: list[bytes]) -> bool:
    """Does some relabelling of adj give a smaller edge mask? Each automorphism
    of adj the search meets, other than the identity, is added to found
    once: each swap of two twins, and each relabelling that gives adj's own
    mask. On every canonical graph of order <= 5 they split the vertex sets
    into the same orbits as the whole group does; a smaller group would only
    leave more children to test.

    Positions are filled from n-1 down to 0. img[w] holds the positions
    already taken by w's neighbours, so putting w at position j fixes the
    row block img[w] >> (j+1) of the pairs (j, b), b > j, which outranks
    every block placed after it. A block above adj's own block at j ends
    that branch, one below it answers yes, and an equal one goes a level
    deeper, or at position 0 closes an automorphism. Vertices a and b are
    twins when N(a) minus b equals N(b) minus a. Two free twins have the
    same img, and swapping them fixes every placed vertex, so their
    subtrees give the same blocks and a position tries only the first.
    """
    n = len(adj)
    rows = [adj[j] >> (j + 1) for j in range(n)]
    twins = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if adj[a] & ~(1 << b) == adj[b] & ~(1 << a):
                twins[a] |= 1 << b
                twins[b] |= 1 << a
                found.append(bytes(b if v == a else a if v == b else v for v in range(n)))
    at = [0] * n  # at[j] is the vertex placed at position j
    identity = bytes(range(n))

    def place(j: int, free: int, img: list[int]) -> bool:
        row = rows[j]
        t = free
        tried = 0
        while t:
            low = t & -t
            t ^= low
            w = low.bit_length() - 1
            if twins[w] & tried:
                continue
            tried |= low
            block = img[w] >> (j + 1)
            if block < row:
                return True
            if block == row:
                at[j] = w
                if not j:
                    perm = bytes(at)
                    if perm != identity and perm not in found:
                        found.append(perm)
                    continue
                nxt = img[:]
                u = adj[w] & free
                while u:
                    bit = u & -u
                    nxt[bit.bit_length() - 1] |= 1 << j
                    u ^= bit
                if place(j - 1, free ^ low, nxt):
                    return True
        return False

    return place(n - 1, (1 << n) - 1, [0] * n)


def _outranked(adj: tuple[int, ...], rank: int, top: dict[int, int]) -> bool:
    """Does deleting some vertex v >= 1 of adj leave a degree census that
    only graphs ranked below rank in the previous order have? Then adj is
    not canonical (see enumerate_graphs). Deleting vertex 0 leaves the
    parent, so it is never checked. Deleting v takes its term off the
    census and moves each neighbour's term one field down."""
    terms = [1 << 4 * row.bit_count() for row in adj]
    total = sum(terms)
    for v in range(1, len(adj)):
        census = total - terms[v]
        u = adj[v]
        while u:
            low = u & -u
            term = terms[low.bit_length() - 1]
            census -= term - (term >> 4)
            u ^= low
        if top[census] < rank:
            return True
    return False


def _orbit_minima(order: int, gens: list[bytes]) -> Iterator[int]:
    """Ascending, each vertex set of a graph of this order that is the least
    of its orbit under the group gens generate."""
    size = 1 << order
    images = []  # images[i][s] is the set s mapped by gens[i]
    for perm in gens:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    for s in range(size):
        if seen[s]:
            continue
        yield s
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)


def enumerate_graphs(max_order: int, *, connected: bool = True) -> Iterator[Graph]:
    """All graphs up to isomorphism with 1..max_order vertices, smallest
    orders and smallest canonical edge masks first.

    Each order is grown from the complete list of the order below it. A
    child of the parent at rank r is dropped unseen by _beaten when
    deleting one of its vertices leaves a census (the sum of 16**deg) that
    no graph of rank >= r has: that vertex at position 0, with the rest in
    its canonical labelling above it, gives a smaller mask. top maps each
    census of the order below to the highest rank that has it.

    When connected, a child of order max_order whose new vertex misses a
    component of its parent is disconnected and is dropped before both
    tests. Below max_order it is kept, because it may be the canonical
    parent of a connected graph, as the edgeless graph is of the star. A
    graph of a lower order is yielded when it has one component."""
    if not 1 <= max_order <= MAX_ENUM_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ENUM_ORDER}, got {max_order}")
    level = [((), [], [])]  # the canonical graphs of one order, from 0 up, by ascending edge mask, with their automorphisms and component masks
    for n in range(1, max_order + 1):
        last = connected and n == max_order
        top = {sum(1 << 4 * row.bit_count() for row in parent): rank for rank, (parent, _, _) in enumerate(level)}
        children = []
        for rank, (parent, gens, comps) in enumerate(level):
            for s in _orbit_minima(n - 1, gens):
                if last and any(not comp & s for comp in comps):
                    continue  # the new vertex misses a component of the parent: a disconnected child
                # the new vertex 0 joins parent vertex v, now v + 1, when bit v of s is set
                child = (s << 1,) + tuple(row << 1 | s >> v & 1 for v, row in enumerate(parent))
                if _outranked(child, rank, top):
                    continue
                found = []
                if not _beaten(child, found):
                    apart = [comp << 1 for comp in comps if not comp & s]  # disjoint, so their sum is their union
                    children.append((child, found, apart + [(1 << n) - 1 - sum(apart)]))
        level = children
        for adj, _, comps in level:
            if not connected or len(comps) == 1:
                yield Graph(adj)


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
    """Failures only, plus the number of pairs checked."""

    pairs: int
    failures: tuple[ScanReport, ...]


def _packing(g: Graph) -> int:
    """A 2-packing of g as a mask: vertices pairwise at distance 3 or more.
    Greedy: take the remaining vertex whose closed 2-ball holds the fewest
    remaining vertices, lowest label first on ties, and drop its 2-ball."""
    balls = [g.closed_two_ball(v) for v in range(g.order)]
    left = g.full_mask
    packing = 0
    while left:
        v = min(members(left), key=lambda u: (balls[u] & left).bit_count())
        packing |= 1 << v
        left &= ~balls[v]
    return packing


def _solve_product(g: Graph, h: Graph, p: Fraction, gp_g: int, gp_h: int) -> tuple[int, int | None]:
    """Solve gamma_p on the product of g and h and compare it with gp_g * gp_h:
    the product's value, and its minimum set when the inequality fails, else
    None."""
    result = partial_domination_number(cartesian_product(g, h), p)
    return result.size, None if result.size >= gp_g * gp_h else result.witness


def check_product_inequality(g: Graph, h: Graph, p: Fraction | int) -> ScanReport:
    """Solve gamma_p on g, h, and their product; report whether the product
    value is at least the product of the factor values."""
    p = as_proportion(p)
    gp_g = partial_domination_number(g, p).size
    gp_h = partial_domination_number(h, p).size
    size, witness = _solve_product(g, h, p, gp_g, gp_h)
    return ScanReport(g6_g=write_graph6(g), g6_h=write_graph6(h), p=p, gp_g=gp_g, gp_h=gp_h,
                      gp_product=size, holds=witness is None, witness=witness)


def scan_conjecture(p: Fraction | int, graphs: Iterable[Graph]) -> ScanOutcome:
    """Check the product inequality over all unordered pairs (self-pairs
    included) of the given graphs, in lexicographic graph6 pair order, with
    one factor solve per graph. Only failing reports are kept.

    At p == 1 exactly, a pair is certified when either factor has a greedy
    2-packing of gamma vertices, by gamma(G x H) >= rho(G) gamma(H) (Fisher
    1994; see the module docstring for the proof and why it fails below
    p = 1). A certified pair is counted and checked against the product cap,
    but no product is built or solved. It cannot fail, so the failures are
    those of solving every pair."""
    p = as_proportion(p)
    entries = sorted(((write_graph6(g), g) for g in graphs), key=lambda e: e[0])
    values = [partial_domination_number(g, p).size for _, g in entries]
    certified = [p == 1 and _packing(g).bit_count() >= gamma for (_, g), gamma in zip(entries, values)]
    failures = []
    for i, (g6_g, g) in enumerate(entries):
        for j in range(i, len(entries)):
            g6_h, h = entries[j]
            if certified[i] or certified[j]:
                _check_product_order(g.order, h.order)  # what building the product would raise
                continue
            size, witness = _solve_product(g, h, p, values[i], values[j])
            if witness is not None:
                failures.append(ScanReport(g6_g=g6_g, g6_h=g6_h, p=p, gp_g=values[i], gp_h=values[j],
                                           gp_product=size, holds=False, witness=witness))
    return ScanOutcome(pairs=len(entries) * (len(entries) + 1) // 2, failures=tuple(failures))
