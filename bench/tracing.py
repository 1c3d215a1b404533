"""Instruments for the benchmark: a sweep meter and a span tracer.

Both work from the benchmark's own files: they replace posetsat's public
callables at the module boundaries (the names the calling module looks up)
with wrappers, and ``uninstall`` puts the originals back.  Nothing inside
the package changes.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (or None), ``attrs`` a dict or None.
Pool workers of a traced sweep are forked with the wrappers in place; each
writes its spans to a file when it exits, and the parent merges them under
the sweep's span.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import resource
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, ATTRS = range(5)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class _Patches:
    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, replacement) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


class SweepMeter(_Patches):
    """Absent subsets decided by every ``exceptions`` call, directly or
    through ``greedy_saturate`` and ``sat_star_exact``, and the seconds spent
    inside those calls.  Two clock reads per sweep; used in untraced passes.
    """

    def __init__(self, verify, solver):
        super().__init__()
        self.candidates = 0
        self.seconds = 0.0
        for module in (verify, solver):
            self._patch(module, "exceptions", self._metered(module.exceptions))

    def _metered(self, fn):
        meter = self

        @functools.wraps(fn)
        def metered(family, poset, **kwargs):
            start = perf_counter()
            try:
                return fn(family, poset, **kwargs)
            finally:
                meter.seconds += perf_counter() - start
                meter.candidates += (1 << family.n) - len(family)

        return metered


class Tracer(_Patches):
    def __init__(self, child_dir: Path | None = None):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._child_dir = child_dir

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> int:
        if os.getpid() != self._pid:
            self._become_child()
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _become_child(self) -> None:
        """First span in a forked pool worker: drop the parent's spans and
        write this process's own spans to a file when it exits."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        path = self._child_dir / f"{self._pid}.json"
        path.write_text(json.dumps(self.spans))

    def _merge_children(self, parent: int) -> None:
        """Append the spans pool workers wrote, re-parented under ``parent``."""
        for path in sorted(self._child_dir.glob("*.json")):
            offset = len(self.spans)
            for span in json.loads(path.read_text()):
                span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
                self.spans.append(span)
            path.unlink()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name: str, note=None):
        """Wrap fn in a span; ``note(attrs, args, kwargs, result)`` fills attrs."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {} if note is not None else None
            idx = tracer.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if note is not None:
                note(attrs, args, kwargs, result)
            return result

        return traced

    def _sweep(self, fn):
        """Wrap ``exceptions``: candidates decided, workers, pool child CPU."""
        tracer = self

        @functools.wraps(fn)
        def traced(family, poset, **kwargs):
            workers = kwargs.get("workers", 1)
            attrs = {"candidates": (1 << family.n) - len(family), "workers": workers}
            cpu0 = _children_cpu()
            idx = tracer.begin("verify.exceptions", attrs)
            try:
                return fn(family, poset, **kwargs)
            finally:
                tracer.end(idx)
                if workers > 1:
                    attrs["child_cpu"] = _children_cpu() - cpu0
                    tracer._merge_children(idx)

        return traced

    def _copy_search(self, cls):
        """Proxy for ``CopySearch``: construction and ``with_member`` are
        ``embed.init`` spans, ``find_containing`` is ``embed.pinned``."""
        tracer = self

        class TracedCopySearch:
            def __init__(self, *args, **kwargs):
                idx = tracer.begin("embed.init")
                try:
                    self._inner = cls(*args, **kwargs)
                finally:
                    tracer.end(idx)

            def find_containing(self, *args, **kwargs):
                idx = tracer.begin("embed.pinned")
                try:
                    return self._inner.find_containing(*args, **kwargs)
                finally:
                    tracer.end(idx)

            def find(self, *args, **kwargs):
                idx = tracer.begin("embed.free")
                try:
                    return self._inner.find(*args, **kwargs)
                finally:
                    tracer.end(idx)

            def with_member(self, g):
                out = object.__new__(TracedCopySearch)
                idx = tracer.begin("embed.init")
                try:
                    out._inner = self._inner.with_member(g)
                finally:
                    tracer.end(idx)
                return out

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        return TracedCopySearch

    def install_setup(self, constructs, posetspec) -> None:
        """Wrap the constructors and the poset parser that set-up calls."""
        for attr in ("construct_mck", "construct_mc2_binom", "construct_2ck_c1",
                     "construct_b3"):
            self._patch(constructs, attr, self._timed(getattr(constructs, attr),
                                                      "constructs.build"))
        self._patch(posetspec, "build_poset",
                    self._timed(posetspec.build_poset, "posetspec.build"))

    def install(self, verify, solver) -> None:
        """Wrap the callables of ``verify`` and ``solver`` at their imports."""
        self._child_dir.mkdir(parents=True, exist_ok=True)

        def accepted(attrs, args, kwargs, result):
            attrs["accepted"] = len(result) - len(args[0])

        def outer_nodes(attrs, args, kwargs, result):
            attrs["nodes"] = result.nodes_explored

        self._patch(verify, "CopySearch", self._copy_search(verify.CopySearch))
        self._patch(verify, "find_induced_copy",
                    self._timed(verify.find_induced_copy, "embed.free"))
        for module in (verify, solver):
            self._patch(module, "exceptions", self._sweep(module.exceptions))
            self._patch(module, "greedy_saturate",
                        self._timed(module.greedy_saturate, "verify.greedy", accepted))
        self._patch(solver, "sat_star_exact",
                    self._timed(solver.sat_star_exact, "solver.solve", outer_nodes))


# -- analysis ---------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap (pool workers run side by side), so the covered
    part is the length of the union of their intervals.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for s, e in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            s, e = max(s, reach), min(e, span[END])
            if e > s:
                covered += e - s
                reach = e
        out.append(span[END] - span[START] - covered)
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


UNITS = {
    "constructs.build_s": "s",
    "posetspec.build_s": "s",
    "embed.init_s": "s",
    "embed.init_calls": "count",
    "embed.pinned_s": "s",
    "embed.pinned_calls": "count",
    "embed.pinned_us.p50": "us",
    "embed.pinned_us.p99": "us",
    "embed.pinned_us.max": "us",
    "embed.free_s": "s",
    "verify.exceptions_s": "s",
    "verify.candidates": "count",
    "verify.calls_per_candidate": "ratio",
    "verify.sweep_overhead_s": "s",
    "verify.greedy_s": "s",
    "verify.greedy_accepted": "count",
    "verify.pool_wall_s": "s",
    "verify.pool_child_cpu_s": "s",
    "verify.pool_utilization": "ratio",
    "solver.solve_s": "s",
    "solver.outer_nodes": "count",
    "solver.saturation_checks": "count",
    "solver.saturation_s": "s",
    "solver.prefix_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A layer idle on the workload reports 0.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    pinned_us = []
    candidates = sweep_pinned = accepted = nodes = 0
    sweep_self = pool_wall = pool_slots = pool_cpu = 0.0
    saturation_checks = 0
    saturation_s = prefix_s = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        parent_name = spans[parent][NAME] if parent is not None else None
        if name == "embed.pinned":
            pinned_us.append(dur * 1e6)
            if parent_name == "verify.exceptions":
                sweep_pinned += 1
        elif name == "verify.exceptions":
            candidates += attrs["candidates"]
            sweep_self += own[i]
            if attrs["workers"] > 1:
                pool_wall += dur
                pool_slots += dur * attrs["workers"]
                pool_cpu += attrs["child_cpu"]
            if parent_name == "solver.solve":
                saturation_checks += 1
                saturation_s += dur
        elif name == "verify.greedy":
            accepted += attrs["accepted"]
        elif name == "solver.solve":
            nodes += attrs["nodes"]
            prefix_s += own[i]
    pinned_us.sort()
    return {
        "embed.init_s": total.get("embed.init", 0.0),
        "embed.init_calls": count.get("embed.init", 0),
        "embed.pinned_s": total.get("embed.pinned", 0.0),
        "embed.pinned_calls": count.get("embed.pinned", 0),
        "embed.pinned_us.p50": _quantile(pinned_us, 0.50),
        "embed.pinned_us.p99": _quantile(pinned_us, 0.99),
        "embed.pinned_us.max": pinned_us[-1] if pinned_us else 0.0,
        "embed.free_s": total.get("embed.free", 0.0),
        "verify.exceptions_s": total.get("verify.exceptions", 0.0),
        "verify.candidates": candidates,
        "verify.calls_per_candidate": sweep_pinned / candidates if candidates else 0.0,
        "verify.sweep_overhead_s": sweep_self,
        "verify.greedy_s": total.get("verify.greedy", 0.0),
        "verify.greedy_accepted": accepted,
        "verify.pool_wall_s": pool_wall,
        "verify.pool_child_cpu_s": pool_cpu,
        "verify.pool_utilization": pool_cpu / pool_slots if pool_slots else 0.0,
        "solver.solve_s": total.get("solver.solve", 0.0),
        "solver.outer_nodes": nodes,
        "solver.saturation_checks": saturation_checks,
        "solver.saturation_s": saturation_s,
        "solver.prefix_s": prefix_s,
    }


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Time spent in the package's constructors and poset parser during one set-up."""
    out = {"constructs.build_s": 0.0, "posetspec.build_s": 0.0}
    for name, start, end, _parent, _attrs in spans:
        key = name + "_s"
        if key in out:
            out[key] += end - start
    return out
