"""Span and counter recorder wrapped around the package's module boundaries.

The recorder lives entirely in the benchmark: ``Instrumentation.install``
replaces module attributes (every binding of a wrapped function in every
``periodic_spectra`` module, since modules import functions by name) and a few
class methods with recording wrappers, and ``uninstall`` puts the original
objects back, so untraced runs execute unmodified code.

A span has a name, a start, an end, a parent (the enclosing span on the same
thread) and a serial number that orders spans by their start.  A span's self
time is its duration minus the durations of its child spans; self times of
the spans under one root add up to the root's duration, so per-layer self
times partition the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter

PACKAGE = "periodic_spectra"

# Public functions timed as spans: module -> function names.  A name missing
# from the module is skipped, so the metric built on it reads 0.
SPANS = {
    "floquet": ["band_grid", "essential_spectrum", "locate_band_value", "band_eigensystem"],
    "graphs": ["apply_laplacian", "weighted_norm", "weighted_inner", "sup_norm", "translate_state"],
    "perturbation": [
        "find_unperturbed_box", "apply_defect", "embed_state", "embedding_norm_bounds",
    ],
    "weyl": [
        "build_weyl_state", "windowed_bloch_state", "rayleigh_value", "residual",
        "embedded_route_residual", "residual_bound", "residual_row", "residual_sweep",
        "fit_loglog_slope", "box_support", "sup_norm_bound",
    ],
    "truncation": ["truncate", "spectrum_of_box", "compare_spectra", "zero_mode_count"],
    "catalog": ["get_entry", "clear_box_monte_carlo", "clear_box_probability"],
    "io": ["load_graph_file", "load_perturbation_file", "perturbation_from_spec"],
}

# Hot functions and methods that are counted, not timed: (module, attribute
# path, counter).
COUNTED = [
    ("floquet", "floquet_matrix", "floquet.fiber_assemblies"),
    ("graphs", "GraphOracle.degree", "graphs.oracle_queries"),
    ("graphs", "PeriodicOracle.contains", "graphs.oracle_queries"),
    ("graphs", "PeriodicOracle.out_edges", "graphs.oracle_queries"),
    ("graphs", "PeriodicOracle.degree", "graphs.oracle_queries"),
    ("perturbation", "PerturbedOracle.contains", "graphs.oracle_queries"),
    ("perturbation", "PerturbedOracle.out_edges", "graphs.oracle_queries"),
    ("randomfield", "bernoulli", "randomfield.scalar_draws"),
    ("randomfield", "bernoulli_array", "randomfield.array_draws"),
]

# Entry points of an unperturbed-set query; nested calls count once.
MEMBERSHIP = ["UnperturbedSet.contains", "UnperturbedSet._contains_known"]


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A finished span is a tuple of numbers, which the garbage collector stops
    tracking, so a pass with a million spans does not slow the collections of
    the code it measures.  Recording takes no lock on the hot paths:
    ``list.append`` and ``itertools.count`` steps are atomic, so threads of
    the Monte Carlo pool can record too.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (serial, name id, start, end, parent serial or -1)
        self.maxima: dict[str, float] = {}
        self._serials = itertools.count()
        self._amounts: Counter = Counter()
        self._ticks: dict[str, itertools.count] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def begin(self, nid: int) -> int:
        """Open a span inside the thread's innermost open span; its serial."""
        stack = self._stack()
        serial = next(self._serials)
        stack.append((serial, nid, stack[-1][0] if stack else -1, time.perf_counter()))
        return serial

    def end(self) -> None:
        """Close the thread's innermost open span."""
        end = time.perf_counter()
        serial, nid, parent, start = self._stack().pop()
        self.spans.append((serial, nid, start, end, parent))

    def ticker(self, name: str):
        """A call that adds one to counter ``name``."""
        with self._lock:
            return self._ticks.setdefault(name, itertools.count()).__next__

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self._amounts[name] += amount

    @property
    def counts(self) -> Counter:
        out = Counter(self._amounts)
        for name, ticks in self._ticks.items():
            out[name] += int(repr(ticks)[len("count("):-1])  # read without a step
        return out

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def self_times(self, root_factor: dict[int, float] | None = None) -> dict[str, float]:
        """Sum of self time per span name; a span's time is multiplied by the
        factor of its root span, keyed by the root's serial (1 without one)."""
        factor = root_factor or {}
        spans = sorted(self.spans)  # a parent opens, so sorts, before its children
        child: Counter = Counter()
        root: dict[int, int] = {}
        for serial, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            root[serial] = serial if parent < 0 else root[parent]
        out: Counter = Counter()
        for serial, nid, start, end, _ in spans:
            out[self.names[nid]] += ((end - start) - child[serial]) * factor.get(root[serial], 1.0)
        return dict(out)

    def to_json(self) -> dict:
        return {"names": self.names, "spans": sorted(self.spans)}


def _timed(rec: Recorder, name: str, fn, after=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(rec, result, args)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn, amount=None):
    if amount is None:
        tick = rec.ticker(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(name, amount(args))
            return fn(*args, **kwargs)

    return wrapper


def _membership(rec: Recorder, fn, depth: threading.local):
    """Span and count of the outermost membership call; ``depth`` is shared by
    every membership wrapper so that nested entry points do not record again."""
    nid = rec.name_id("perturbation.membership")
    tick = rec.ticker("perturbation.membership_queries")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(depth, "level", 0) > 0:
            return fn(*args, **kwargs)
        tick()
        depth.level = 1
        rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end()
            depth.level = 0

    return wrapper


def _after_band_grid(rec, result, args):
    rec.count("floquet.band_grid_points", int(result[0].shape[0]))


def _after_apply_laplacian(rec, result, args):
    rec.count("graphs.apply_laplacian_vertices", len(result))


def _after_find_box(rec, result, args):
    rec.count("perturbation.centres_searched", int(result.searched))
    rec.count("perturbation.box_hits", int(result.center is not None))


def _after_build_state(rec, result, args):
    rec.count("weyl.state_vertices", len(result.vector))


def _after_residual_row(rec, result, args):
    rec.peak("weyl.residual_over_bound_max", result.residual / result.bound)


def _after_truncate(rec, result, args):
    rec.count("truncation.box_vertices", len(result))


def _after_spectrum_of_box(rec, result, args):
    rec.count("truncation.dense_solves", 1)


def _after_load(rec, result, args):
    rec.count("io.bytes_read", os.path.getsize(args[0]))


AFTER = {
    "floquet.band_grid": _after_band_grid,
    "graphs.apply_laplacian": _after_apply_laplacian,
    "perturbation.find_unperturbed_box": _after_find_box,
    "weyl.build_weyl_state": _after_build_state,
    "weyl.residual_row": _after_residual_row,
    "truncation.truncate": _after_truncate,
    "truncation.spectrum_of_box": _after_spectrum_of_box,
    "io.load_graph_file": _after_load,
    "io.load_perturbation_file": _after_load,
}


def _resolve(module, path: str):
    """(owner, original) for ``name`` or ``Class.name`` in ``module``, or None."""
    owner = module
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if attr not in owner.__dict__:
        return None
    return owner, owner.__dict__[attr]


class Instrumentation:
    """Installs recording wrappers into the package and removes them again."""

    def __init__(self, recorder: Recorder, modules: dict):
        self.rec = recorder
        self.modules = modules  # short name -> module object
        self._saved: list[tuple[object, str, object]] = []
        self.unperturbed_sets: list = []

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name that refers to ``original``."""
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, owner, original, wrapper) -> None:
        """Rebind every class attribute (aliases included) bound to ``original``."""
        for attr, value in list(owner.__dict__.items()):
            if value is original:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def _wrap(self, module_name: str, path: str, make) -> None:
        module = self.modules.get(module_name)
        found = _resolve(module, path) if module is not None else None
        if found is None:
            return
        owner, original = found
        wrapper = make(original)
        if owner is module:
            self._replace_everywhere(original, wrapper)
        else:
            self._replace_method(owner, original, wrapper)

    def install(self) -> None:
        rec = self.rec
        for module_name, names in SPANS.items():
            for name in names:
                span = f"{module_name}.{name}"
                self._wrap(
                    module_name, name,
                    lambda fn, span=span: _timed(rec, span, fn, AFTER.get(span)),
                )
        for module_name, path, counter in COUNTED:
            amount = (lambda args: len(args[1])) if path == "bernoulli_array" else None
            self._wrap(
                module_name, path,
                lambda fn, counter=counter, amount=amount: _counted(rec, counter, fn, amount),
            )
        depth = threading.local()
        for path in MEMBERSHIP:
            self._wrap("perturbation", path, lambda fn: _membership(rec, fn, depth))
        self._wrap("perturbation", "UnperturbedSet.__init__", self._track_instances)

    def _track_instances(self, init):
        tracked = self.unperturbed_sets

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracked.append(obj)

        return wrapper

    def end_operation(self) -> None:
        """Record the membership cache size left by one operation."""
        entries = sum(len(getattr(s, "_cache", ())) for s in self.unperturbed_sets)
        self.rec.peak("perturbation.membership_cache_entries", entries)
        self.unperturbed_sets.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def snapshot(modules: dict) -> dict:
    """Identity snapshot of every module and class attribute in the package."""
    out = {}
    for module in modules.values():
        out[(module.__name__, "")] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                out[(module.__name__, value.__qualname__)] = dict(value.__dict__)
    return out


def same_snapshot(before: dict, after: dict) -> bool:
    if before.keys() != after.keys():
        return False
    for key, table in before.items():
        other = after[key]
        if table.keys() != other.keys():
            return False
        if any(other[name] is not value for name, value in table.items()):
            return False
    return True
