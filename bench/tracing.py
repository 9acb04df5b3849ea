"""Per-layer tracing of pdom from outside the package.

`Tracer.installed()` replaces each traced public function with a timing
wrapper at every binding in every loaded pdom module, so calls made inside
a module (all_minimum_sets calling partial_domination_number) and calls
through names imported elsewhere (pdom.cli, pdom.conjecture) are all seen.
Spans nest: a span's self time is its duration minus the time of the traced
spans it caused. Totals are kept in memory and read once per pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter

import pdom.cli
import pdom.conjecture
import pdom.domination
import pdom.formats
import pdom.graphs

TRACED = (
    (pdom.domination, ("partial_domination_number", "all_minimum_sets", "influencing_intersection")),
    (pdom.graphs, ("cartesian_product", "format_vertex_set")),
    (pdom.conjecture, ("enumerate_graphs", "scan_conjecture")),
    (pdom.formats, ("write_graph6", "parse_edge_list")),
    (pdom.cli, ("main",)),
)

SOLVE = "domination.partial_domination_number"
SCAN = "conjecture.scan_conjecture"
ENUMERATE = "conjecture.enumerate_graphs"


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span name, seconds of child spans]
        self._products: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _close(self, start: float, calls: int = 1) -> None:
        elapsed = time.perf_counter() - start
        name, children = self._stack.pop()
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - children
        self.counts[name] += calls
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        if name == ENUMERATE:
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == SOLVE:
                g = args[0]
                span = "domination.product_solve" if self._products.get(id(g)) is g else "domination.factor_solve"
                if span == "domination.product_solve" and any(s[0] == SCAN for s in self._stack):
                    self.counts["conjecture.product_solves"] += 1
            start = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(start)
            self._observe(name, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        """Time a generator over its iteration: each resumption is a span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(start, calls=0)
                self.counts[f"{name}.graphs"] += 1
                yield item
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "graphs.cartesian_product":
            self._products[id(result)] = result
        elif name == "domination.all_minimum_sets":
            self.counts[f"{name}.sets"] += len(result.sets)
        elif name == SCAN:
            self.counts["conjecture.pairs"] += result.pairs

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each traced function, and restore them after."""
        bindings = []
        for module, names in TRACED:
            short = module.__name__.removeprefix("pdom.")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "pdom" or mod_name.startswith("pdom."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                bindings.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in bindings:
                setattr(mod, attr, original)

    # -- results ----------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics since the last call, then reset."""
        s, own, n = self.seconds, self.self_seconds, self.counts
        solve_s = s["domination.product_solve"] + s["domination.factor_solve"]
        solve_calls = n["domination.product_solve"] + n["domination.factor_solve"]
        sets_calls = n["domination.all_minimum_sets"]
        pairs = n["conjecture.pairs"]
        out = {
            "domination.product_solve.s": s["domination.product_solve"],
            "domination.product_solve.calls": n["domination.product_solve"],
            "domination.factor_solve.s": s["domination.factor_solve"],
            "domination.factor_solve.calls": n["domination.factor_solve"],
            "domination.partial_domination_number.s": solve_s,
            "domination.partial_domination_number.calls": solve_calls,
            "domination.all_minimum_sets.self_s": own["domination.all_minimum_sets"],
            "domination.all_minimum_sets.calls": sets_calls,
            "domination.all_minimum_sets.sets": n["domination.all_minimum_sets.sets"],
            "domination.all_minimum_sets.sets_per_call": n["domination.all_minimum_sets.sets"] / sets_calls if sets_calls else 0.0,
            "domination.influencing_intersection.s": s["domination.influencing_intersection"],
            "graphs.cartesian_product.s": s["graphs.cartesian_product"],
            "graphs.cartesian_product.calls": n["graphs.cartesian_product"],
            "graphs.format_vertex_set.s": s["graphs.format_vertex_set"],
            "graphs.format_vertex_set.calls": n["graphs.format_vertex_set"],
            "conjecture.enumerate_graphs.s": s[ENUMERATE],
            "conjecture.enumerate_graphs.graphs": n[f"{ENUMERATE}.graphs"],
            "conjecture.scan_conjecture.self_s": own[SCAN],
            "conjecture.pairs": pairs,
            "conjecture.product_solves": n["conjecture.product_solves"],
            "conjecture.solve_ratio": n["conjecture.product_solves"] / pairs if pairs else 0.0,
            "formats.write_graph6.s": s["formats.write_graph6"],
            "formats.parse_edge_list.s": s["formats.parse_edge_list"],
            "cli.main.self_s": own["cli.main"],
            "cli.main.calls": n["cli.main"],
        }
        self.seconds, self.self_seconds, self.counts = Counter(), Counter(), Counter()
        return out
