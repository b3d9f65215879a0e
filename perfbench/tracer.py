"""Spans around the library's layer boundaries, recorded from outside it.

`Tracer.install` wraps each listed function at every ``racover`` module
that holds it by name (``search.canonical_form`` as well as
``colouring.canonical_form``), and the ``Polytope`` constructor on its
class.  Each wrapped call becomes a span with a parent link and the
operation it belongs to; spans stay in memory until `write_spans`.  The
GF(2) helpers run millions of times, so they are only aggregated as one
layer (calls and outermost busy time) and keep no spans.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from racover import gf2, polytopes
from workloads import FULL

# (module, function) pairs traced as their own layer functions
FUNCTIONS = (
    ("polytopes", "Polytope"),
    ("polytopes", "connected_sum"),
    ("polytopes", "facet_subpolytope"),
    ("polytopes", "find_isomorphism"),
    ("polytopes", "symmetry_group"),
    ("colouring", "canonical_form"),
    ("colouring", "automorphism_order"),
    ("colouring", "is_proper"),
    ("colouring", "induced_colouring"),
    ("colouring", "equivalent"),
    ("search", "enumerate_small_covers"),
    ("search", "enumerate_chromatic_colourings"),
    ("search", "search_orientable_extension"),
    ("covers", "build_cover"),
    ("covers", "cover_euler_characteristic"),
    ("covers", "facet_preimage"),
    ("covers", "cut_along"),
    ("pipeline", "extend_class"),
    ("pipeline", "assemble_chain"),
    ("pipeline", "run_checks"),
    ("pipeline", "certify"),
    ("pipeline", "validate_certificate"),
    ("fileio", "write_certificate"),
    ("fileio", "load_certificate"),
    ("fileio", "load_polytope"),
)
GF2_FUNCTIONS = tuple(gf2.__all__)
# counters beyond calls / s / self_s, with their units
COUNTERS = (
    ("polytopes.Polytope.facets", "count"),
    ("polytopes.symmetry_group.order", "count"),
    ("search.enumerate_small_covers.nodes", "count"),
    ("search.enumerate_small_covers.classes_per_leaf", "ratio"),
    ("search.enumerate_chromatic_colourings.nodes", "count"),
    ("search.search_orientable_extension.nodes", "count"),
    ("search.search_orientable_extension.nodes_per_s", "1/s"),
    ("search.search_orientable_extension.decided_ratio", "ratio"),
    ("covers.build_cover.copies", "count"),
    ("fileio.write_certificate.bytes", "bytes"),
    ("fileio.load_certificate.bytes", "bytes"),
)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).parent.iterdir() if p.is_file())


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: List[tuple] = []  # (id, parent, op, name, start, end)
        self.stack: List[list] = []  # [span id, name, child seconds]
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, s, self_s]
        self.counters: Dict[str, float] = {}
        self.op: Optional[str] = None
        self.gf2 = [0, 0.0]  # calls, outermost busy seconds
        self._gf2_depth = 0
        self._ids = itertools.count()
        self._undo: List[Callable[[], None]] = []

    def begin_op(self, label: str) -> None:
        self.op = label

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[2] += busy
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[2]
                spans.append((frame[0], None if parent is None else parent[0], self.op,
                              name, start - self.t0, end - self.t0))
            if after is not None:
                after(self, args, kwargs, result, busy)
            return result

        return traced

    def aggregate_gf2(self, fn: Callable) -> Callable:
        acc, stack = self.gf2, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            acc[0] += 1
            if self._gf2_depth:
                return fn(*args, **kwargs)
            self._gf2_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                self._gf2_depth = 0
                acc[1] += busy
                if stack:
                    stack[-1][2] += busy

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package holds it."""
        modules = [m for k, m in sys.modules.items() if k.startswith("racover")]
        for mod_name, fn_name in FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "Polytope":
                init = polytopes.Polytope.__init__
                polytopes.Polytope.__init__ = self.span(name, init, AFTER[name])
                self._undo.append(functools.partial(setattr, polytopes.Polytope, "__init__", init))
                continue
            original = getattr(sys.modules[f"racover.{mod_name}"], fn_name)
            self._replace(modules, original, self.span(name, original, AFTER.get(name)))
        for fn_name in GF2_FUNCTIONS:
            original = getattr(gf2, fn_name)
            self._replace(modules, original, self.aggregate_gf2(original))

    def _replace(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit)."""
        out: Dict[str, tuple] = {
            "gf2.calls": (self.gf2[0], "count"),
            "gf2.s": (self.gf2[1], "s"),
        }
        for mod_name, fn_name in FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            calls, busy, own = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (busy, "s")
            out[f"{name}.self_s"] = (own, "s")
        for n in FULL.chain_lengths:
            out[f"pipeline.certify.n{n}.s"] = (self.counters.get(f"certify.n{n}.s", 0.0), "s")
        c = self.counters
        leaves = c.get("leaves", 0)
        ext = "search.search_orientable_extension"
        ext_calls, ext_s = self.stats.get(ext, (0, 0.0, 0.0))[:2]
        derived = {
            "search.enumerate_small_covers.classes_per_leaf":
                c.get("census.classes", 0) / leaves if leaves else 0.0,
            f"{ext}.nodes_per_s": c.get(f"{ext}.nodes", 0) / ext_s if ext_s else 0.0,
            f"{ext}.decided_ratio": c.get("decided", 0) / ext_calls if ext_calls else 0.0,
        }
        for name, unit in COUNTERS:
            out[name] = (derived[name] if name in derived else c.get(name, 0), unit)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": round(start, 7), "end": round(end, 7)}) + "\n")


# -- counters taken from arguments and results --------------------------------

def _after_polytope(tr, args, kwargs, result, busy):
    tr.add("polytopes.Polytope.facets", args[0].facet_count)


def _after_symmetry(tr, args, kwargs, result, busy):
    order = len(result)
    if order > tr.counters.get("polytopes.symmetry_group.order", 0):
        tr.counters["polytopes.symmetry_group.order"] = order


def _after_canonical(tr, args, kwargs, result, busy):
    if any(frame[1] == "search.enumerate_small_covers" for frame in tr.stack):
        tr.add("leaves", 1)


def _after_census(tr, args, kwargs, result, busy):
    tr.add("search.enumerate_small_covers.nodes", result.nodes)
    tr.add("census.classes", len(result.classes))


def _after_chromatic(tr, args, kwargs, result, busy):
    tr.add("search.enumerate_chromatic_colourings.nodes", result.nodes)


def _after_extension(tr, args, kwargs, result, busy):
    tr.add("search.search_orientable_extension.nodes", result.nodes)
    tr.add("decided", result.status != "budget-out")


def _after_cover(tr, args, kwargs, result, busy):
    tr.add("covers.build_cover.copies", result.copies)


def _after_certify(tr, args, kwargs, result, busy):
    tr.add(f"certify.n{args[0]}.s", busy)


def _after_write(tr, args, kwargs, result, busy):
    tr.add("fileio.write_certificate.bytes", _dir_bytes(result))


def _after_load(tr, args, kwargs, result, busy):
    tr.add("fileio.load_certificate.bytes", _dir_bytes(args[0]))


AFTER = {
    "polytopes.Polytope": _after_polytope,
    "polytopes.symmetry_group": _after_symmetry,
    "colouring.canonical_form": _after_canonical,
    "search.enumerate_small_covers": _after_census,
    "search.enumerate_chromatic_colourings": _after_chromatic,
    "search.search_orientable_extension": _after_extension,
    "covers.build_cover": _after_cover,
    "pipeline.certify": _after_certify,
    "fileio.write_certificate": _after_write,
    "fileio.load_certificate": _after_load,
}


def metric_names() -> List[tuple]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(k, unit) for k, (_, unit) in Tracer().metrics().items()]
