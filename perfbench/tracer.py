"""Outside-in call tracer for the ``cliquebound`` package.

``install`` wraps every public function of every ``cliquebound.*`` module,
plus ``Graph.__post_init__`` (the validation every ``Graph`` construction
runs), without editing the package.  Modules import names with
``from .counting import clique_vector``, so patching only the defining
module would miss most calls: every module-level alias of a traced function,
in every ``cliquebound.*`` namespace, is replaced by the same wrapper.

While ``recording`` is true each call appends one span (function id, parent
span, start, end) to flat in-memory arrays; nothing is written until
``write_spans`` runs at the end.  A generator function is timed per
``next()`` so it stays lazy: its calls count generator creations and each
resumption is one span.  Self time is a span's duration minus the durations
of its direct child spans; calls are strictly nested in a single thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from typing import Dict, Iterable, List, Tuple

# Per-bit helpers run once per set bit, inside nearly every other function.
# A wrapper would cost more than the work it times, so their time stays in
# the caller's self time.
UNTRACED = frozenset({"graphs.bits", "graphs.bit_list", "graphs.mask_of"})

GRAPH_VALIDATION = "graphs.Graph"


class Tracer:
    """Span recorder shared by every wrapper that ``install`` creates."""

    def __init__(self, keep_results: Iterable[str] = ()):
        self.names: List[str] = []
        self.calls: List[int] = []
        self.recording = False
        self.keep_results = frozenset(keep_results)
        self.results: Dict[int, object] = {}  # span index -> return value
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """Traced stand-in for ``fn``, recorded under ``name``."""
        fid = self._register(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fid, fn)
        return self._wrap_function(fid, fn, name in self.keep_results)

    def _wrap_function(self, fid: int, fn, keep: bool):
        tracer = self
        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        stack, calls, results, clock = self._stack, self.calls, self.results, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            calls[fid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep:
                results[idx] = result
            return result

        return traced

    def _wrap_generator(self, fid: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.recording:
                return gen
            tracer.calls[fid] += 1
            return _TracedIterator(tracer, fid, gen)

        return traced

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def span_count(self) -> int:
        return len(self.span_fn)

    def self_times(self) -> array:
        """Self time of every span in ns: duration minus direct children."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = array("q", (e - s for s, e in zip(starts, ends)))
        child = array("q", bytes(8 * len(own)))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += own[i]
        for i in range(len(own)):
            own[i] -= child[i]
        return own

    def summary(self) -> Dict[str, dict]:
        """Per traced name: calls, spans, inclusive and self ns, max span ns."""
        out = {
            name: {"calls": self.calls[fid], "spans": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0}
            for fid, name in enumerate(self.names)
        }
        self_ns = self.self_times()
        for i, fid in enumerate(self.span_fn):
            row = out[self.names[fid]]
            dur = self.span_end[i] - self.span_start[i]
            row["spans"] += 1
            row["total_ns"] += dur
            row["self_ns"] += self_ns[i]
            if dur > row["max_ns"]:
                row["max_ns"] = dur
        return out

    def parent_name(self, idx: int) -> str:
        p = self.span_parent[idx]
        return self.names[self.span_fn[p]] if p >= 0 else ""

    def write_spans(self, path: str) -> None:
        doc = {
            "functions": self.names,
            "fn": self.span_fn.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    __slots__ = ("tracer", "fid", "gen")

    def __init__(self, tracer: Tracer, fid: int, gen):
        self.tracer = tracer
        self.fid = fid
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        if not tr.recording:
            return next(self.gen)
        fns, stack, ends = tr.span_fn, tr._stack, tr.span_end
        idx = len(fns)
        fns.append(self.fid)
        tr.span_parent.append(stack[-1])
        ends.append(0)
        stack.append(idx)
        tr.span_start.append(time.perf_counter_ns())
        try:
            return next(self.gen)
        finally:
            ends[idx] = time.perf_counter_ns()
            stack.pop()


def package_modules(package: str = "cliquebound") -> List[Tuple[str, object]]:
    """(layer name, module) for the package and every submodule, imported."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"{package}.{info.name}")
    prefix = package + "."
    return [
        (name[len(prefix):] if name != package else "", mod)
        for name, mod in sorted(sys.modules.items())
        if name == package or name.startswith(prefix)
    ]


def traced_functions(package: str = "cliquebound") -> Dict[str, object]:
    """Traced name -> original function, for every public function defined
    in a package module (minus ``UNTRACED``)."""
    found = {}
    for layer, mod in package_modules(package):
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in UNTRACED:
                found[name] = obj
    return found


def install(tracer: Tracer, package: str = "cliquebound") -> Dict[str, object]:
    """Wrap every traced function and rebind all of its module-level aliases.

    Returns traced name -> original function.  The process keeps the
    wrappers for its lifetime; the benchmark runs each traced unit in a
    fresh interpreter.
    """
    originals = traced_functions(package)
    by_id = {id(fn): tracer.wrap(name, fn) for name, fn in originals.items()}
    for _, mod in package_modules(package):
        for attr, obj in list(vars(mod).items()):
            wrapper = by_id.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(mod, attr, wrapper)
    graph_cls = importlib.import_module(f"{package}.graphs").Graph
    originals[GRAPH_VALIDATION] = graph_cls.__post_init__
    graph_cls.__post_init__ = tracer.wrap(GRAPH_VALIDATION, graph_cls.__post_init__)
    return originals


def unwrapped_aliases(originals: Dict[str, object], package: str = "cliquebound") -> List[str]:
    """``module.attr`` of every package-level reference still bound to an
    original (unwrapped) traced function; empty when coverage is complete."""
    ids = {id(fn) for fn in originals.values()}
    missed = []
    for layer, mod in package_modules(package):
        for attr, obj in vars(mod).items():
            if id(obj) in ids:
                missed.append(f"{layer or package}.{attr}")
    graph_cls = importlib.import_module(f"{package}.graphs").Graph
    if id(vars(graph_cls)["__post_init__"]) in ids:
        missed.append(GRAPH_VALIDATION)
    return missed
