"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``Tracer.installed()``
rebinds each traced permlab function, at every module attribute where permlab
code (or the benchmark) looks it up, to a wrapper that opens and closes a
span.  Nothing under ``src/`` is edited, and leaving the context restores
the original bindings.

Each thread keeps its own parent stack.  A span opened on a thread with an
empty stack (a worker of a ``workers=2`` pool) takes as parent the innermost
open span of the thread that installed the tracer, which is the call that
started the pool and is blocked waiting for it.

Spans are held in memory; ``summarise`` turns them into per-layer metrics and
``write_spans`` writes them out at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Span name -> (defining module, attribute paths).  The layer is the part of
# the name before the dot; every path of one span shares its name.
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "rng.make_generator": ("permlab.rng", ("make_generator",)),
    "models.sample_score_matrix": ("permlab.models", ("sample_score_matrix",)),
    "models.sample_permutation_matrix": ("permlab.models", ("sample_permutation_matrix",)),
    "models.invert_rows": ("permlab.models", ("invert_rows",)),
    "models.walk": ("permlab.models", ("MarkovChainSpec.walk",)),
    "stats.ranks_matrix": ("permlab.stats", ("ranks_matrix",)),
    "stats.inversions_batch": ("permlab.stats", ("inversions_batch",)),
    "stats.m_descents_batch": ("permlab.stats", ("m_descents_batch",)),
    "stats.evaluate": ("permlab.stats", ("evaluate_batch", "evaluate")),
    "montecarlo.standardized_sample": ("permlab.montecarlo", ("standardized_sample",)),
    "montecarlo.ks_to_normal": ("permlab.montecarlo", ("ks_to_normal",)),
    "montecarlo.wasserstein1_to_normal": ("permlab.montecarlo", ("wasserstein1_to_normal",)),
    "sizebias.index_distribution": ("permlab.sizebias", ("index_distribution",)),
    "sizebias.draw_pair1": ("permlab.sizebias", ("IndexDistribution.draw_pair1",)),
    "sizebias.resample_conditional_pair": ("permlab.sizebias", ("resample_conditional_pair",)),
    "sizebias.couple_batch": ("permlab.sizebias", ("couple_batch",)),
    "sizebias.stein_bound": ("permlab.sizebias", ("stein_bound",)),
    "sizebias.verify_size_bias_identity": ("permlab.sizebias", ("verify_size_bias_identity",)),
    "exact.enumerate_law": ("permlab.exact", ("enumerate_law",)),
    "exact.pmf": ("permlab.exact", ("pmf",)),
    "exact.tv_distance": ("permlab.exact", ("tv_distance",)),
    "exact.mean_inversions_exact": ("permlab.exact", ("mean_inversions_exact",)),
    "perm.all_permutations": ("permlab.perm", ("all_permutations",)),
    "cli.main": ("permlab.cli", ("main",)),
}

ROOT_SPAN = "bench.iteration"


def _levels(n: int) -> int:
    return max(0, (n - 1).bit_length())


def _sort_elems(args, kwargs, result) -> dict[str, int]:
    """Elements the level-wise merge count passes through argsort: one pass
    of reps * n per level, ceil(log2 n) levels (computed, not measured)."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) != 2:
        return {}
    reps, n = shape
    return {"sort_elems_computed": reps * n * _levels(n)}


def _index_pairs(args, kwargs, result) -> dict[str, int]:
    """Pairs held by the O(n^2) size-bias index table, 0 if it has none."""
    pairs = getattr(result, "pairs", None)
    return {"index_pairs": 0 if pairs is None else len(pairs)}


COUNTERS: dict[str, Callable] = {
    "stats.inversions_batch": _sort_elems,
    "sizebias.index_distribution": _index_pairs,
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    thread: int
    caller: str  # code name of the function that made the call
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0


class Tracer:
    """Records spans around permlab calls while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    def open(self, name: str, caller: str = "") -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._stacks.get(self._owner)
            parent = owner[-1] if owner else None
        span = Span(name, parent, threading.get_ident(), caller,
                    time.perf_counter(), time.process_time())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        tracer = self

        def spanned(*args, **kwargs):
            idx = tracer.open(name, sys._getframe(1).f_code.co_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                with tracer._lock:
                    for key, value in count(args, kwargs, result).items():
                        tracer.counters[f"{name}.{key}"] += value
            return result

        return functools.update_wrapper(spanned, fn)

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        absent: list[str] = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "permlab" or key.startswith("permlab."))]
        try:
            for name, (modname, paths) in SPANS.items():
                for path in paths:
                    try:
                        owner, attr, fn = _resolve(modname, path)
                    except (ImportError, AttributeError, KeyError):
                        absent.append(f"{modname}.{path}")
                        continue
                    wrapper = self._wrap(name, fn)
                    if owner is not None:  # a method: one binding, on its class
                        undo.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
                        continue
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                undo.append((mod, key, value))
                                setattr(mod, key, wrapper)
            self.absent = absent
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)


def _resolve(modname: str, path: str):
    """(class or None, attribute, function) for ``module`` + ``Class.attr``."""
    obj = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    fn = vars(obj)[parts[-1]] if len(parts) > 1 else getattr(obj, parts[-1])
    if not callable(fn):
        raise AttributeError(f"{modname}.{path} is not callable")
    return (obj if len(parts) > 1 else None), parts[-1], fn


# -- summarising -----------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: the span's interval minus what its children cover.

    Where spans of two threads are open at once with no open child (leaves),
    each instant is shared equally among those leaves, so the self times of
    all spans add up to the wall time the root spans cover.
    """
    events = []
    for idx, s in enumerate(spans):
        events.append((s.start, 1, idx))
        events.append((s.end, 0, idx))
    events.sort()
    self_s = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    prev = events[0][0] if events else 0.0
    for t, kind, idx in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        prev = t
        parent = spans[idx].parent
        if kind == 1:
            is_open[idx] = True
            leaves.add(idx)
            if parent is not None and is_open[parent]:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[idx] = False
            leaves.discard(idx)
            if parent is not None and is_open[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_s


def layer(name: str) -> str:
    return name.partition(".")[0]


def summarise(tracer: Tracer) -> dict:
    """Totals per span name and per layer over everything recorded."""
    spans = tracer.spans
    self_s = self_times(spans)
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    entry_cpu: dict[str, float] = defaultdict(float)
    entry_wall: dict[str, float] = defaultdict(float)
    recount = 0.0
    for s, own in zip(spans, self_s):
        row = by_name[s.name]
        row["calls"] += 1
        row["self_s"] += own
        by_layer[layer(s.name)] += own
        parent_layer = layer(spans[s.parent].name) if s.parent is not None else None
        if parent_layer != layer(s.name):  # a call into the layer from outside
            entry_cpu[layer(s.name)] += s.cpu_end - s.cpu_start
            entry_wall[layer(s.name)] += s.end - s.start
        if s.name == "stats.inversions_batch" and s.caller == "_complete":
            recount += own
    roots = [s for s in spans if s.name == ROOT_SPAN]
    return {
        "by_name": {k: dict(v) for k, v in by_name.items()},
        "by_layer": dict(by_layer),
        "cpu_per_wall": {
            k: entry_cpu[k] / entry_wall[k] for k in entry_wall if entry_wall[k] > 0
        },
        "recount_self_s": recount,
        "counters": dict(tracer.counters),
        "root_wall_s": sum(s.end - s.start for s in roots),
        "self_total_s": sum(self_s),
        "absent": list(tracer.absent),
    }


def write_spans(path, spans: list[Span]) -> None:
    """One JSON array per line: name, parent, thread, caller, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.parent, s.thread, s.caller,
                                 round(s.start, 9), round(s.end, 9)]))
            fh.write("\n")
