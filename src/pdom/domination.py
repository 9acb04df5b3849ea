"""Exact solvers for partial domination.

A set S p-dominates a graph of order n when its closed neighborhood N[S]
holds at least ceil(p*n) vertices; the minimum cardinality of such a set is
the partial domination number for p. One kernel call takes ascending
targets and builds its tables once; target 0 yields the empty set. Sizes
are tried upward from the counting bound ceil(target / max |N[v]|), or
from the previous target's size if larger (gamma_p never decreases in p),
so the first size with a hit is optimal. Each size runs one depth-first
search over k-subsets of the vertices in a fixed candidate order, which
visits candidate sets in lexicographic order of their positions in it.
The search has three modes:

- first: stop at the first hit, the lexicographically least optimum
  (partial_domination_number);
- all: collect every hit, sorted into lexicographic order of the vertex
  labels and duplicate free (all_minimum_sets);
- union: keep only the OR of the hits so far (influencing_set and
  influencing_sweep), so the influencing set is found without listing
  the family. influencing_sweep yields the n influencing sets as plain
  masks, the k-th for p = k/n, and influencing_intersection ANDs them.

The candidate order depends on the mode alone. "first" mode takes label
order, because its witness is lex-least in the labels: under another order
the first hit is some other optimum. "all" and "union" mode outputs do not
depend on the order, so they take breadth-first layers (Cuthill and McKee,
"Reducing the bandwidth of sparse symmetric matrices", 1969): from the
lowest-labelled vertex of minimum degree, each layer in label order,
restarted in each component. Neighbors then sit close together, and a
vertex is dead, out of reach of every pick still to come, once the search
passes its last neighbor. Under label order a labelling with large
bandwidth leaves vertices alive until late and the search slows by orders
of magnitude; with the layers "all" and "union" run about as fast on any
labelling of a graph.

Before picking the vertex at position i the search applies two bounds,
and both only tighten as i grows, so either one ends the scan of the
remaining candidates:

- coverage: covered + picks_left * (largest closed neighborhood among
  positions >= i) cannot reach the target;
- slack: more vertices are still uncovered and dead at i (no pick at
  position i or later reaches them) than the n - target vertices allowed
  to stay uncovered.

A node's slack bound at i carries over to its child at i + 1, the child
that picks position i: a vertex dead at i + 1 but not at i lies in
N[order[i]], which the child covers, so the child's uncovered dead
vertices at i + 1 are among the node's uncovered dead vertices at i,
which the node has just counted. Whatever the mode, target or candidate
order, the slack bound therefore never ends a child at its first
candidate.

In union mode a child is also dropped when its chosen vertices and every
vertex it could still pick (those at positions from its cursor on) all lie
in the union already: no hit below it can add a vertex. The union is
empty until the first hit, so this prune never changes which size is
found minimum.

The third prune is a failure memo. No pick at or after the cursor i can
cover a vertex of dead[i], so whether a node's subtree holds a hit depends
only on i, the picks left, the live covered set covered & ~dead[i], and
how many dead vertices are covered, where more only helps. When a child's
call returns with no hit and no union prune below it, its parent records
the child's key (i, picks left, live covered set) with its dead count, and
a later child with the same key and at most that dead count is dropped.
The memo lives for the whole kernel call: a failed state fails whatever
the size, and, since the targets ascend, whatever later target, because
no completion that misses a target reaches a larger one. It is used only
when the slack n - target is positive (at zero slack it saves too little
to pay for itself) and only for children with two or more picks left (the
last pick is a single scan).

"All" mode mirrors it with a success memo, since the failure memo cannot
drop a subtree that holds hits: on P5xP6 at p = 3/4 under one seeded
labelling, 1,751 of the 2,355 two-pick children that hold hits repeat a
state already listed. A completion of a node is an m-set R of positions
from i on, and it is a hit exactly when held, the node's dead covered
count, plus the size of the live covered set OR N[R] reaches the target,
because no pick at or after i covers a vertex of dead[i]. The bounds and
the failure memo drop only subtrees without a hit, so a two-pick child's
subtree lists every completion of its state. When such a child's call
returns with hits, its parent stores their completions and their OR under
the child's failure-memo key and its exact dead count; a later child with
the same key and count takes its own chosen set OR each completion as its
hits, counts them as events (so no failure is recorded above it) and is
not called. The search tree of that call drops from 3,830 nodes to 2,079.
The memo serves children with exactly two picks left: stored at every
depth, each hit sits in the lists of all its ancestors' states, and on the
partial_cover benchmark that took 15% more memory and ran slower than two
picks alone. It lives for one target: a completion that reaches a target
can miss a larger one, unlike a failure, which misses every larger target
too. It runs only with slack, in the failure memo's branch: "first" and
union modes pay one comparison per child call there, and zero slack
nothing.

The fourth prune, a packing bound, takes the memo's place at zero slack
(p = 1), where every vertex must end up covered. A child's uncovered
vertices are packed greedily: take the lowest one, u, and drop every
vertex within distance 2 of u, since their closed neighborhoods meet N[u],
then repeat on what is left. The packed vertices have pairwise disjoint
closed neighborhoods, so no pick covers two of them and each needs a pick
of its own; once more are packed than the child has picks left, its
subtree holds no hit and it is dropped. This is the 2-packing argument
behind "rho(G) = gamma(G) implies Vizing's inequality" (Bresar et al.,
"Vizing's conjecture: a survey and recent results", 2012). It drops only
subtrees without a hit, so no mode's output changes. The bound turns on
once a size at zero slack has failed, and the sets of vertices beyond
distance 2, far[u], are built then and kept for the rest of the call,
since they depend on the graph alone. A root takes no packing test of its
own; each of its children does. A first size that
holds a hit, the usual case in a sweep, which starts there from the
previous target's size, builds nothing: on small graphs the table costs
more than the bound saves. With slack the same bound holds with
left + slack in place of left (a packed vertex no pick covers uses up a
unit of slack), but it saves no nodes on grids at p = 3/4 and makes them
about three times slower.

The fifth prune, a per-pick coverage bound, runs in union mode only. A pick
covers fewer new vertices the more is already covered, so a child with m
picks left that still needs r more covered vertices holds a hit only if
some vertex at a position from its cursor on covers at least ceil(r / m) of
its uncovered vertices; the parent looks for one, stopping at the first,
and drops the child if there is none. The coverage bound above counts whole
closed neighborhoods instead, whatever they already hold: on the subdivided
star S(10), once the search has passed the center and the center is
covered, a pick adds at most 2 new vertices where that bound allows 3, and
the per-pick bound cuts the nodes that influencing_sweep enters from 10,871
to 890. A dropped child holds no hit, so the bound records no event and its
parent's memo record stays sound. In "first" and "all" modes on grids it
saves 4-7% of the nodes, and a prototype that took it there ran 7-22%
slower, so they do not.

Every test that can drop a child runs in its parent's candidate loop,
before the call, since a Python call costs more than any of the tests.
The coverage bound at the child's first candidate, where it would end
the child's scan at once, comes first and runs as soon as the child's
covered count is known: the child's chosen set and uncovered set are
built only for a child that passes it (on P7xP9 at 3/4 in "first" mode,
54,975 of the 84,384 children end there). The slack bound there needs no
test, by the argument above. Then come, in union mode, the union prune
and the per-pick coverage bound, and last the packing bound and the
memos. A child with one pick left is not called either; the parent scans
that last pick itself, and the scan's first candidate has passed both
bounds already. Roots take none of these tests: the size starts at the
counting bound, nothing is dead at position 0, the union is empty, no
memo key has cursor 0, each of their children takes the packing test,
and the per-pick coverage bound would be met by the vertex of largest
closed neighborhood.

The loop-head test at a node's first candidate therefore cannot fire: at
a called child the parent's coverage test and the argument above settle
it, and at a root's position 0 the counting bound and the empty dead
set. It is the one redundant test kept, since skipping it would cost a
branch per candidate.

Size 1 is reached only when the counting bound is 1, so some vertex covers
the target alone, and it enters no node: alone[t] holds the vertices whose
closed neighborhood has t or more vertices (each vertex at its own size,
then an OR down from the largest size). Union mode reads alone[target]
as is; "first" mode takes its lowest label, the first hit since that mode
walks label order; "all" mode lists its singletons in ascending order,
which is lex order. These answers leave through the same exit as the
searched sizes. The table is built on the first size-1 target of a call
and kept for the rest of it, not built with the other tables: built on
every call it made `pdom scan` about 8% slower, because a scan's
"first"-mode solves almost never reach size 1.

Proportions are exact rationals, int or Fraction (a float is rejected:
0.1 is not 1/10); coverage targets use integer ceiling arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import and_, itemgetter, or_
from typing import Literal

from .graphs import Graph, members

Mode = Literal["first", "all", "union"]


def _reversed_bytes() -> bytes:
    """Entry b: the byte b with its bit order reversed. The entries with top
    bit h are those below 2**h with bit 7 - h set."""
    table = [0]
    for h in range(8):
        table += [r | 0x80 >> h for r in table]
    return bytes(table)


_REVERSED = _reversed_bytes()


def as_proportion(value: Fraction | int) -> Fraction:
    """Validate a proportion: an int or Fraction in [0, 1], returned as an
    exact Fraction.

    A Fraction, the usual input, is immutable and is taken as is; any other
    Rational (an int, a bool or a subclass of Fraction) is converted to
    one first. Either way the one range check follows.
    """
    if type(value) is Fraction:
        p = value
    elif isinstance(value, Rational):
        p = Fraction(value)
    else:
        raise TypeError(f"proportion must be an int or Fraction, not {type(value).__name__} {value!r}")
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError(f"proportion {p} outside [0, 1]")
    return p


def coverage_target(n: int, p: Fraction | int) -> int:
    """Least count c with c/n >= p, i.e. ceil(p*n); 0 when p = 0."""
    if n < 0:
        raise ValueError(f"negative order {n}")
    p = as_proportion(p)
    return -(-p.numerator * n // p.denominator)


def is_p_dominating(g: Graph, s: int, p: Fraction | int) -> bool:
    """Does the vertex set s cover at least ceil(p*n) vertices?"""
    target = coverage_target(g.order, p)
    return g.closed_neighborhood_of_set(s).bit_count() >= target


@dataclass(frozen=True)
class SolveResult:
    """Minimum size together with the lexicographically least witness mask."""

    size: int
    witness: int


@dataclass(frozen=True)
class SetFamily:
    """All minimum sets for one proportion, sorted lexicographically."""

    size: int
    sets: tuple[int, ...]


def _breadth_first(adj: tuple[int, ...]) -> list[int]:
    """Vertices in breadth-first layers, each layer in label order.

    Each component starts from the lowest-labelled vertex of minimum degree
    among the vertices not yet placed (Cuthill and McKee, 1969).
    """
    degree = [row.bit_count() for row in adj]
    order: list[int] = []
    left = (1 << len(adj)) - 1
    start = degree.index(min(degree)) if adj else 0
    while left:
        frontier = 1 << start
        left ^= frontier
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                order.append(v)
                reach |= adj[v]
                frontier ^= low
            frontier = reach & left
            left ^= frontier
        if left:
            start = min(members(left), key=degree.__getitem__)
    return order


def _minimum_covers(g: Graph, mode: Mode, targets: Iterable[int]) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (k, found, hits) for each of the ascending targets, in turn.

    k is the least size of a set covering at least target vertices. In
    "first" mode found is the lex-least such set; in "union" and "all"
    modes it is the union of all of them, and in "all" mode hits lists
    them in lex order (otherwise hits is empty). Target 0 yields the empty
    set: (0, 0, [0]). Size 1 is read from the threshold table alone;
    each larger size runs search from the root, which records the memo
    entries of the children it calls.

    One table set serves the whole call: cl, bit, best, suffix and dead
    are built here, alone and far on first use, and the failure memo fills
    as the searches go. Only target, slack, found, hits and the success
    memo wins are set per target.
    A memo entry says that no completion of its state reaches the target
    it was recorded at, so none reaches a later target either; hence the
    targets must ascend.
    """
    n = g.order
    width = (n + 7) // 8  # bytes in a set's sort key
    first_only = mode == "first"
    union = mode == "union"
    order = range(n) if first_only else _breadth_first(g.adj)
    # Tables indexed by position i in the candidate order.
    full = g.full_mask
    cl = [0] * n  # cl[i]: N[order[i]]
    bit = [0] * n  # bit[i]: order[i] as a mask
    best = [0] * (n + 1)  # best[i]: largest |N[v]| over positions >= i
    suffix = [0] * (n + 1)  # suffix[i]: the vertices at positions >= i
    dead = [full] * (n + 1)  # dead[i]: vertices no pick at a position >= i can cover
    reach = top = tail = 0
    for i in range(n - 1, -1, -1):
        v = order[i]
        bit[i] = b = 1 << v
        cl[i] = c = g.adj[v] | b
        size = c.bit_count()
        if size > top:
            top = size
        best[i] = top
        suffix[i] = tail = tail | b
        reach |= c
        dead[i] = full ^ reach

    def search(first: int, left: int, covered: int, chosen: int) -> bool:
        # Scan the candidates of a node with two or more picks left that has
        # passed its tests (see the module docstring).
        nonlocal found, events
        count = covered.bit_count()
        uncovered = ~covered
        m = left - 1  # picks left to each child
        for i in range(first, n - m):
            if count + left * best[i] < target or (dead[i] & uncovered).bit_count() > slack:
                break  # both bounds only tighten as i grows
            child = covered | cl[i]
            child_count = child.bit_count()
            j = i + 1
            # The child's coverage bound first: most children end here. Its
            # slack bound at j holds already (see the module docstring).
            if child_count + m * best[j] < target:
                continue  # it would stop at its first candidate
            child_uncovered = ~child
            if m == 1:  # the child's last pick, scanned here; j passed both bounds
                for j in range(j, n):
                    if (child | cl[j]).bit_count() >= target:
                        hit = chosen | bit[i] | bit[j]
                        found |= hit
                        events += 1
                        if first_only:
                            return True
                        if not union:
                            hits.append(hit)
                    if child_count + best[j + 1] < target or (dead[j + 1] & child_uncovered).bit_count() > slack:
                        break
                continue
            pick = chosen | bit[i]
            if union:
                if not (pick | suffix[j]) & ~found:
                    events += 1  # the hits skipped here may exist, so no failure is recorded above
                    continue  # every hit below it lies inside found already
                # Per-pick coverage: some candidate must add a 1/m share of
                # what is still needed, since later picks add no more.
                need = -(-(target - child_count) // m)
                for x in range(j, n):
                    if (cl[x] & child_uncovered).bit_count() >= need:
                        break
                else:
                    continue  # no m picks reach the target
            if far:
                # Greedy 2-packing of the uncovered vertices: no vertex covers
                # two of them, so each needs a pick of its own.
                t = full & child_uncovered
                q = m
                while t and q:
                    q -= 1
                    t &= far[(t & -t).bit_length() - 1]
                if t:
                    continue  # more than m of them are packed
            elif slack:
                live = child & ~dead[j]
                key = live << 14 | m << 7 | j
                held = child_count - live.bit_count()
                if memo.get(key, -1) >= held:
                    continue  # the same state with as many dead vertices covered failed
                if m == reuse:
                    state = key << 7 | held
                    listed = wins.get(state)
                    if listed:  # the same state, listed already at this target
                        found |= pick | listed[0]
                        events += len(listed[1])
                        hits.extend([pick | r for r in listed[1]])
                        continue
            before = events
            if search(j, m, child, pick):
                return True
            if slack:
                if events == before:
                    memo[key] = held  # no hit and no union prune below it
                elif m == reuse:
                    # "all" mode counts one event per hit: these are the child's.
                    rest = [h ^ pick for h in hits[before - events:]]
                    wins[state] = reduce(or_, rest), rest
        return False

    # Failure memo (see the module docstring): (first, left, live covered
    # set) packed into one int -> the most dead vertices covered by a node
    # with that key whose subtree held no hit. Used only with slack. The
    # success memo wins, set per searched target and used in "all" mode,
    # maps that key and the exact dead count, packed as state, to the OR
    # and the list of the completions below a two-pick child.
    memo: dict[int, int] = {}
    far: list[int] = []  # the packing bound's table; empty while the bound is off
    alone: list[int] = []  # alone[t]: the vertices v with |N[v]| >= t; built on first use
    k = events = 0  # events: the hits (reused ones too) and union prunes so far
    reuse = 2 if mode == "all" else 0  # picks left at the children the success memo serves
    for target in targets:
        if target == 0:
            yield 0, 0, [0]
            continue
        k = max(k, -(-target // best[0]))
        slack = n - target
        hits: list[int] = []
        if k == 1:  # the counting bound is 1: some vertex covers the target alone
            if not alone:
                alone = [0] * (best[0] + 1)
                for c, b in zip(cl, bit):
                    alone[c.bit_count()] |= b
                for t in range(best[0] - 1, 0, -1):
                    alone[t] |= alone[t + 1]
            found = alone[target]
            if first_only:
                found &= -found  # the lowest label
            elif not union:  # the singletons in ascending order, which is lex order
                hits = [1 << v for v in members(found)]
        else:
            found = 0
            wins: dict[int, tuple[int, list[int]]] = {}
            for k in range(k, n + 1):
                search(0, k, 0, 0)
                if found:
                    break
                if not (slack or far):
                    # far[u]: the vertices whose closed neighborhoods miss N[u]
                    far = [full ^ g.closed_two_ball(v) for v in range(n)]
            else:  # pragma: no cover
                raise AssertionError("the whole vertex set covers every vertex")
            # "all" mode: lex order in the caller's labels. The set holding the
            # least vertex at which two sets differ comes first; the key lists
            # the set's bits from vertex 0 up (bytes from the lowest, each with
            # its bits reversed), so that set sorts last.
            if len(hits) > 1:
                hits.sort(key=lambda h: h.to_bytes(width, "little").translate(_REVERSED), reverse=True)
        yield k, found, hits


def partial_domination_number(g: Graph, p: Fraction | int) -> SolveResult:
    """Minimum size of a p-dominating set, with the lex-least witness.

    p = 0 asks for nothing and yields size 0 with the empty witness.
    """
    size, witness, _ = next(_minimum_covers(g, "first", [coverage_target(g.order, p)]))
    return SolveResult(size, witness)


def all_minimum_sets(g: Graph, p: Fraction | int) -> SetFamily:
    """Every minimum p-dominating set; {empty set} when the target is 0."""
    size, _, hits = next(_minimum_covers(g, "all", [coverage_target(g.order, p)]))
    return SetFamily(size, tuple(hits))


def influencing_set(g: Graph, p: Fraction | int) -> int:
    """Union of all minimum p-dominating sets, as a mask; 0 when the target is 0."""
    return next(_minimum_covers(g, "union", [coverage_target(g.order, p)]))[1]


def influencing_sweep(g: Graph) -> Iterator[int]:
    """The influencing sets for p = k/n, k = 1..n, in turn, from one kernel
    call; the k-th set is influencing_set(g, Fraction(k, n))."""
    return map(itemgetter(1), _minimum_covers(g, "union", range(1, g.order + 1)))


def influencing_intersection(g: Graph) -> int:
    """Intersection of the influencing sets over p = k/n for k = 1..n."""
    if g.order < 1:
        raise ValueError("influencing intersection needs at least one vertex")
    return reduce(and_, influencing_sweep(g), g.full_mask)
