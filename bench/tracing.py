"""Spans around the package's functions, and a separate counting pass.

Spans are recorded from outside: every binding of a module's functions and
of its classes' methods, including names imported into other modules (such
as ``limit.omega_geometric`` or ``cli.convergence_study``), is replaced by a
wrapper for the duration of the traced replay and restored afterwards.
Helpers that run once per point, entry or grid cell are not wrapped; a span
around each would cost more than the work inside it.  Their time is part of
the self time of the span that calls them, and the counting pass counts the
hot ones (Jet operators, kappa calls and curve evaluators).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "frieze", "jets", "cluster", "recurrence", "curves", "hill",
    "continuous", "kirillov", "quadrature", "limit", "serialize", "cli",
)

PER_POINT = {
    "frieze._is_zero", "frieze.as_fraction", "jets.Jet._lift", "frieze.FriezePattern.entry",
    "frieze.FriezePattern.ent", "jets._as_value", "recurrence.det2",
    "recurrence._matmul", "recurrence.step_matrix",
    "recurrence.DiscreteHillEquation.coefficient", "quadrature.mixed_partial",
    "quadrature.central_d1", "quadrature.central_d2", "serialize.fraction_to_str",
    "serialize.str_to_fraction", "serialize.scalar_to_json",
    "curves.SmoothFunction.deriv", "curves.LiftedCurve.gamma",
    "curves.LiftedCurve.dgamma", "curves.LiftedCurve.d2gamma",
    "hill.HillPotential.hill_k", "hill.HillPotential.hill_dk", "curves._missing",
}

JET_OPS = {"__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__"}


class Spans:
    """Spans held in memory: (name, start, end, parent index, request id, raised)."""

    def __init__(self):
        self.records: list = []
        self._stack: list[int] = []
        self.request = -1

    def _open(self):
        idx = len(self.records)
        self.records.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def wrap(self, name, fn):
        spans = self

        def traced(*args, **kwargs):
            idx, parent = spans._open()
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter()
                spans._stack.pop()
                spans.records[idx] = (name, t0, t1, parent, spans.request, raised)

        traced.__wrapped__ = fn
        return traced

    def run_request(self, request_id, kind, fn):
        self.request = request_id
        return self.wrap(f"request.{kind}", fn)()

    def dump(self):
        keys = ("name", "start", "end", "parent", "request", "raised")
        return [dict(zip(keys, r)) for r in self.records]


def instrument(pkg, spans: Spans):
    """Wrap the package's functions and methods; returns a function that undoes it."""
    mods = [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]
    wrappers = {}
    undo = []
    for mod in mods:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if f"{layer}.{name}" not in PER_POINT:
                    wrappers[obj] = spans.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in list(vars(obj).items()):
                    qual = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(fn) and not attr.startswith("__") and qual not in PER_POINT:
                        undo.append((obj, attr, fn))
                        setattr(obj, attr, spans.wrap(qual, fn))
    for mod in [pkg, *mods]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def restore():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)

    return restore


def summarize(records):
    """Per-layer calls, busy, self time and failures, plus per-function busy time.

    Busy time counts a span only when no enclosing span has the same layer
    (or, per function, the same name), so nested calls are not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, _, _ in records:
        if parent >= 0:
            child[parent] += t1 - t0
    layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0})
    func_busy = defaultdict(float)
    request_s = 0.0
    for idx, (name, t0, t1, parent, _, raised) in enumerate(records):
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        if layer == "request":
            request_s += dur
            continue
        stats = layers[layer]
        stats["calls"] += 1
        stats["self_s"] += dur - child[idx]
        stats["failures"] += raised
        enclosing = set()
        p = parent
        while p >= 0:
            enclosing.add(records[p][0])
            p = records[p][3]
        if not any(e.split(".", 1)[0] == layer for e in enclosing):
            stats["busy_s"] += dur
        if name not in enclosing:
            func_busy[name] += dur
    return layers, func_busy, request_s


class CallCounter:
    """Counts Python calls by code object through sys.setprofile.

    Kept apart from the span pass so that counting does not inflate span
    times.  For kappa it also records the abscissae it was called at.
    """

    def __init__(self, curves_file, jets_file):
        self.curves_file = curves_file
        self.jets_file = jets_file
        self.calls = Counter()
        self.kappa_points = []

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.calls[code] += 1
            if code.co_name == "kappa" and code.co_filename == self.curves_file:
                self.kappa_points.append(frame.f_locals.get("x"))

    def run(self, fn):
        sys.setprofile(self._profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)

    def reset(self):
        self.calls.clear()
        self.kappa_points.clear()

    def jet_ops(self):
        return sum(n for c, n in self.calls.items() if c.co_filename == self.jets_file and c.co_name in JET_OPS)

    def curve_calls(self):
        return sum(n for c, n in self.calls.items() if c.co_filename == self.curves_file)

    def kappa(self):
        """(calls, points evaluated, distinct points); array arguments count each element."""
        calls = points = 0
        distinct = set()
        for x in self.kappa_points:
            calls += 1
            flat = x.ravel().tolist() if hasattr(x, "ravel") else [x]
            points += len(flat)
            distinct.update(flat)
        return calls, points, len(distinct)
