"""Spans around the public functions of each ``andersonstats`` layer.

The tracer wraps a function at every place an ``andersonstats`` module binds
it (``andersonstats.variance.path_counts``,
``andersonstats.fluctuations.trace_poly_numeric``, ...), so calls between
layers pass through the wrapper without any change to the package. Spans
are kept in memory and written out when the run ends.

A span is ``(id, name, start, end, parent, thread, pass_id, key)``. The
parent is the innermost open span of the same thread; a span opened on a
worker thread of ``run_experiment`` takes the open ``run_experiment`` span
as its parent. ``key`` holds the call arguments the per-layer counts are
computed from.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# layer -> (defining module, public functions timed as spans)
TARGETS = {
    "cli": ("andersonstats.cli", ("main",)),
    "walks": ("andersonstats.walks", ("path_counts",)),
    "variance": ("andersonstats.variance", ("sigma_squared", "limiting_covariance", "classify")),
    "table": ("andersonstats.table", ("verify_reference_table",)),
    "hamiltonian": (
        "andersonstats.hamiltonian",
        ("mean_trace_exact", "sample_hamiltonian", "trace_poly_numeric", "trace_powers_numeric"),
    ),
    "moments": ("andersonstats.moments", ("sample",)),
    "fluctuations": (
        "andersonstats.fluctuations",
        ("run_experiment", "ks_test", "moment_diagnostics"),
    ),
}

POOL_SPAN = "fluctuations.run_experiment"
SAMPLE_SPANS = ("hamiltonian.sample_hamiltonian", "hamiltonian.trace_poly_numeric")

# Call arguments recorded for the counts; the signatures mirror the package's.
_KEYS = {
    "walks.path_counts": lambda k, d, budget=None: (k, d),
    "variance.limiting_covariance": lambda powers, model, d, budget=None: (
        tuple(powers), repr(model), d
    ),
    "hamiltonian.trace_powers_numeric": lambda h, max_power, budget=None: (
        h.box.volume, h.box.d, max_power
    ),
    "moments.sample": lambda model, seed, count: count,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._pass_id: int | None = None

    @contextmanager
    def recording(self, pass_id: int):
        """Wrap every binding of the target functions while the block runs."""
        self._pass_id = pass_id
        replaced = []
        wrappers = {}
        for layer, (module_name, functions) in TARGETS.items():
            module = importlib.import_module(module_name)
            for function in functions:
                original = getattr(module, function)
                wrappers[id(original)] = self._wrap(f"{layer}.{function}", original)
        for name, module in list(sys.modules.items()):
            if name != "andersonstats" and not name.startswith("andersonstats."):
                continue
            for attribute, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    replaced.append((module, attribute, value))
                    setattr(module, attribute, wrapper)
        try:
            yield self
        finally:
            for module, attribute, value in replaced:
                setattr(module, attribute, value)

    def _wrap(self, name: str, function):
        key_of = _KEYS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._pool_parent
            span_id = next(self._ids)
            key = key_of(*args, **kwargs) if key_of else None
            outer_pool = self._pool_parent
            if name == POOL_SPAN:
                self._pool_parent = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == POOL_SPAN:
                    self._pool_parent = outer_pool
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), self._pass_id, key)
                )

        return wrapper


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the union of children.

    ``spans`` come from one process; ids are only unique within it.
    """
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    totals: dict[str, float] = {}
    for span_id, name, start, end, *_ in spans:
        own = end - start - _covered(children.get(span_id, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def parallel_efficiency(spans, threads: int) -> list[float]:
    """Per ``run_experiment`` span: time its threads spent drawing and
    tracing samples, summed over threads, divided by wall time x ``threads``."""
    work: dict[int, dict[int, list]] = {}
    for span in spans:
        if span[1] in SAMPLE_SPANS:
            work.setdefault(span[4], {}).setdefault(span[5], []).append((span[2], span[3]))
    result = []
    for span_id, name, start, end, *_ in spans:
        if name == POOL_SPAN and end > start:
            busy = sum(
                _covered(intervals, start, end)
                for intervals in work.get(span_id, {}).values()
            )
            result.append(busy / ((end - start) * threads))
    return result


def _freeze(key):
    """Keys read back from JSON are lists; make them hashable again."""
    return tuple(_freeze(k) for k in key) if isinstance(key, (list, tuple)) else key


def call_counts(spans) -> dict:
    """Calls, cache hits and the call keys the computed counts need.

    A ``path_counts`` call is a hit when the same (k, d) was already built
    earlier in the process; a ``limiting_covariance`` call is a repeat when
    its (powers, model, d) was already seen.
    """
    built, seen = set(), set()
    out = {"path_counts.calls": 0, "path_counts.hits": 0, "path_counts.misses": [],
           "limiting_covariance.calls": 0, "limiting_covariance.repeats": 0,
           "limiting_covariance.keys": [], "trace_powers_numeric.keys": [], "sample.draws": 0}
    for span in sorted(spans, key=lambda s: s[2]):
        name, key = span[1], _freeze(span[7])
        if name == "walks.path_counts":
            out["path_counts.calls"] += 1
            if key in built:
                out["path_counts.hits"] += 1
            else:
                built.add(key)
                out["path_counts.misses"].append(key)
        elif name == "variance.limiting_covariance":
            out["limiting_covariance.calls"] += 1
            out["limiting_covariance.repeats"] += key in seen
            seen.add(key)
            out["limiting_covariance.keys"].append(key)
        elif name == "hamiltonian.trace_powers_numeric":
            out["trace_powers_numeric.keys"].append(key)
        elif name == "moments.sample":
            out["sample.draws"] += key
    return out
