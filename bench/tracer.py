"""Timing wrappers around boundlab's functions, for one traced run.

The wrappers live here, outside the package: ``Tracer.install()`` rebinds
every public function of each boundlab module (plus a few named private
targets) at every binding in the loaded ``boundlab.*`` namespaces, found by
object identity, so ``from .x import f`` call sites are caught too.
``uninstall()`` puts the originals back.  Spans stay in memory; self time is
a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

# the package's modules, in dependency order; each is a layer
LAYERS = (
    "exponents", "mesh", "quadrature", "assembly", "linear_solver",
    "norms", "nonlinear", "verify_chain", "cli",
)

# targets outside the public function surface: (module, attribute, span name)
EXTRA_TARGETS = (
    # solve_ground_state discards the iteration counts _pcg returns
    ("linear_solver", "_pcg", "linear_solver.pcg"),
    # the direct factorization inside newton_refine
    ("nonlinear", "splu", "nonlinear.splu"),
)

# methods of the workspace object fem_space returns that build operators or
# loads; the cheap evaluation helpers stay unwrapped so their time counts as
# the caller's self time
WORKSPACE_METHODS = (
    "h1_operator", "mass_operator",
    "boundary_load_from_values", "boundary_operator_from_values",
)


def mesh_level(objects):
    """Level ``n`` of the first object that is a mesh or has a ``.mesh``."""
    for obj in objects:
        mesh = getattr(obj, "mesh", obj)
        n = getattr(mesh, "n", None)
        if isinstance(n, int) and hasattr(mesh, "tets"):
            return n
    return None


def self_times(spans):
    """Self time of each span: duration minus the time its children cover.

    ``spans`` is a list of ``(name, parent_index, start, end, level)``; the
    children of one span run one after another inside it, so the covered
    time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


def aggregate(spans):
    """Per-name and per-(level, name) totals: calls, self_s, total_s."""
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    by_level = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
    for (name, _, start, end, level), own in zip(spans, self_times(spans)):
        row = by_name[name]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
        cell = by_level["none" if level is None else str(level)][name]
        cell["calls"] += 1
        cell["self_s"] += own
    return (
        {k: dict(v) for k, v in by_name.items()},
        {lvl: {k: dict(v) for k, v in rows.items()} for lvl, rows in by_level.items()},
    )


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, package="boundlab", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans = []            # [name, parent, start, end, level]
        self.counters = defaultdict(int)
        self.unmeasured = {}       # span name -> reason
        self.wrapped = set()       # span names with a wrapper installed
        self._stack = []
        self._patches = []         # (owner, attribute, original)
        self._spaces = weakref.WeakSet()
        self._workspace_patched = False

    # -- spans ----------------------------------------------------------------

    def enter(self, name, level=None):
        parent = self._stack[-1] if self._stack else None
        if level is None and parent is not None:
            level = self.spans[parent][4]
        self.spans.append([name, parent, self.clock(), None, level])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index, result=None):
        span = self.spans[index]
        span[3] = self.clock()
        if span[4] is None:
            span[4] = mesh_level((result,))
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.enter(name, mesh_level((*args, *kwargs.values())))
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index, result)
            if on_result is not None:
                try:
                    on_result(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    # the result changed shape: its counters become unmeasured
                    tracer.unmeasured[f"{name}:counters"] = f"result hook failed: {exc!r}"
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _namespaces(self):
        prefix = self.package + "."
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def patch_everywhere(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` wherever a package namespace holds it."""
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def targets(self):
        """(span name, function) for every function this tracer wraps."""
        found = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{self.package}.{layer}")
            if mod is None:
                self.unmeasured[layer] = f"module {self.package}.{layer} is not loaded"
                continue
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    found.append((f"{layer}.{attr}", value))
        for layer, attr, name in EXTRA_TARGETS:
            value = getattr(sys.modules.get(f"{self.package}.{layer}"), attr, None)
            if callable(value):
                found.append((name, value))
            else:
                self.unmeasured[name] = f"{self.package}.{layer}.{attr} not found"
        return found

    def install(self):
        hooks = {
            "assembly.fem_space": self._on_fem_space,
            "linear_solver.pcg": self._on_pcg,
            "nonlinear.splu": self._on_splu,
            "nonlinear.solve_ground_state": self._on_ground_state,
        }
        for name, fn in self.targets():
            self.patch_everywhere(fn, self.wrap(name, fn, hooks.get(name)))
            self.wrapped.add(name)
        if "assembly.fem_space" in self.wrapped:
            # patched on the workspace class when fem_space first returns; if it
            # never does, no workspace method can have run
            self.wrapped.update(f"assembly.{m}" for m in WORKSPACE_METHODS)

    def table(self):
        """The run's span tables, counters and coverage, as plain data."""
        by_name, by_level = aggregate(self.spans)
        return {
            "spans": len(self.spans),
            "by_name": by_name,
            "by_level": by_level,
            "counters": dict(self.counters),
            "wrapped": sorted(self.wrapped),
            "unmeasured": dict(self.unmeasured),
        }

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- result hooks -------------------------------------------------------------

    def _on_fem_space(self, args, space):
        if space not in self._spaces:
            self._spaces.add(space)
            self.counters["assembly.fem_space.misses"] += 1
        if not self._workspace_patched:
            self._workspace_patched = True
            cls = type(space)
            for method in WORKSPACE_METHODS:
                original = cls.__dict__.get(method)
                if inspect.isfunction(original):
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self.wrap(f"assembly.{method}", original))
                else:
                    self.wrapped.discard(f"assembly.{method}")
                    self.unmeasured[f"assembly.{method}"] = (
                        f"{cls.__name__} has no method {method}")

    def _on_pcg(self, args, result):
        iterations = result[1]
        self.counters["linear_solver.pcg.iterations"] += iterations
        self.counters["linear_solver.pcg.matvec_nnz"] += iterations * args[0].nnz

    def _on_splu(self, args, lu):
        fill = lu.L.nnz + lu.U.nnz
        key = "nonlinear.splu.fill_nnz_max"
        self.counters[key] = max(self.counters[key], fill)

    def _on_ground_state(self, args, outcome):
        self.counters["nonlinear.outer_iterations"] += outcome.outer_iterations
        self.counters["nonlinear.newton_iterations"] += outcome.newton_iterations


# per-layer counters and the wrapped function each one depends on
COUNTER_SOURCES = {
    "assembly.fem_space.misses": "assembly.fem_space",
    "linear_solver.pcg.iterations": "linear_solver.pcg",
    "linear_solver.pcg.matvec_nnz": "linear_solver.pcg",
    "nonlinear.splu.fill_nnz_max": "nonlinear.splu",
    "nonlinear.outer_iterations": "nonlinear.solve_ground_state",
    "nonlinear.newton_iterations": "nonlinear.solve_ground_state",
}
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "s": "total_s"}


def layer_metric(name, table):
    """(value, reason) of one per-layer metric read from ``Tracer.table()``.

    ``<layer>.<function>.calls|self_s|s`` read one function's spans (``s`` is
    its total time), ``<layer>.self_s`` sums a layer's self time, and the
    names in ``COUNTER_SOURCES`` are counters.  A metric whose function was not
    wrapped has value ``None`` and a reason.
    """
    wrapped = set(table["wrapped"])

    def missing(target):
        function = target.partition(":")[0]
        layer = function.partition(".")[0]
        reasons = table["unmeasured"]
        return None, (reasons.get(target) or reasons.get(function) or reasons.get(layer)
                      or f"no wrapped function {function}")

    if name in COUNTER_SOURCES:
        source = COUNTER_SOURCES[name]
        if source not in wrapped or f"{source}:counters" in table["unmeasured"]:
            return missing(f"{source}:counters")
        return table["counters"].get(name, 0), None
    stem, _, field = name.rpartition(".")
    if stem in LAYERS and field == "self_s":
        if not any(w.startswith(stem + ".") for w in wrapped):
            return missing(stem)
        rows = [row for key, row in table["by_name"].items() if key.startswith(stem + ".")]
        return sum((row["self_s"] for row in rows), 0.0), None
    if field in SPAN_FIELDS:
        if stem not in wrapped:
            return missing(stem)
        row = table["by_name"].get(stem, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        return row[SPAN_FIELDS[field]], None
    return None, f"unknown per-layer metric {name}"
