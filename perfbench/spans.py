"""In-memory spans and counters around the public functions of fembasis.

A :class:`Tracer` patches functions and methods from outside the program:
module functions in every ``fembasis`` module that holds them (so that,
for example, ``run_driven_cavity`` finds its traced stages in
``fembasis.stokes``), and methods on their classes.  Each timed call
records a span (name, start, end, parent span, pass id); per-entry calls
(``add_to_entry``, ``index``, ``MultiIndex.__new__`` and the shape
function tabulations) only bump a counter and read no clock.
``uninstall`` restores every original.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name)
FUNCTION_SPANS = (
    ("fembasis.basis", "make_basis", "basis.make_basis"),
    ("fembasis.stokes", "assemble_element_matrix", "stokes.element_matrix"),
    ("fembasis.stokes", "assemble_stokes_matrix", "stokes.assemble"),
    ("fembasis.stokes", "apply_dirichlet", "stokes.dirichlet"),
    ("fembasis.stokes", "weak_divergence_norm", "stokes.divergence"),
    ("fembasis.stokes", "run_driven_cavity", "stokes.run_driven_cavity"),
    ("fembasis.gmres", "solve_system", "gmres.solve_system"),
    ("fembasis.functions", "interpolate", "functions.interpolate"),
    ("fembasis.functions", "interpolate_masked", "functions.interpolate_masked"),
    ("fembasis.functions", "for_each_boundary_dof", "functions.boundary_walk"),
    ("fembasis.functions", "evaluate_discrete", "functions.evaluate"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("fembasis.basis", "LocalView", "bind", "basis.bind"),
    ("fembasis.containers", "NestedVector", "resize_from_basis", "containers.resize"),
    ("fembasis.containers", "SparseSystem", "matvec", "containers.matvec"),
)
# (module, class, method, counter name)
METHOD_COUNTS = (
    ("fembasis.basis", "LocalView", "index", "basis.index.calls"),
    ("fembasis.containers", "SparseSystem", "add_to_entry", "containers.add_to_entry.calls"),
    ("fembasis.containers", "SparseSystem", "set_row_to_identity", "containers.identity_rows"),
    ("fembasis.localfe", "LagrangeQk", "values", "localfe.values.calls"),
    ("fembasis.localfe", "LagrangeQk", "gradients", "localfe.gradients.calls"),
    ("fembasis.multiindex", "MultiIndex", "__new__", "multiindex.new.calls"),
)

NAME, START, END, PARENT, PASS = range(5)


class Tracer:
    """Span and counter recorder; ``pass_id`` tags everything recorded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.values: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.pass_id][name] += 1
            return fn(*args, **kwargs)

        return counted

    def _record(self, name, value) -> None:
        self.values[self.pass_id][name] += value

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name, attr, wrapper_of):
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrapper_of(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fembasis" or name.startswith("fembasis.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def install(self) -> None:
        """Patch every traced boundary; ``uninstall`` undoes it."""
        for module_name, attr, name in FUNCTION_SPANS:
            self._patch_function(module_name, attr, lambda fn, name=name: self._span(name, fn))

        def gmres_wrapper(fn):
            def counted_matvec_gmres(matvec, *args, **kwargs):
                return fn(self._span("gmres.matvec", matvec), *args, **kwargs)

            def after(args, kwargs, result):
                _, relres, iterations = result
                self._record("gmres.iterations", iterations)
                self._record("gmres.relres", relres)

            return self._span("gmres.gmres", counted_matvec_gmres, after)

        self._patch_function("fembasis.gmres", "gmres", gmres_wrapper)

        def vtu_after(args, kwargs, result):
            path = kwargs["path"] if "path" in kwargs else args[3]
            self._record("vtu.bytes", os.path.getsize(path))

        self._patch_function("fembasis.vtu", "write_vtu", lambda fn: self._span("vtu.write", fn, vtu_after))

        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, attr, self._span(name, cls.__dict__[attr]))
        containers = importlib.import_module("fembasis.containers")
        system_cls = containers.SparseSystem

        def freeze_after(args, kwargs, result):
            self._record("containers.nnz", len(args[0]))

        self._set(system_cls, "freeze", self._span("containers.freeze", system_cls.__dict__["freeze"], freeze_after))
        for module_name, cls_name, attr, name in METHOD_COUNTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._counter(name, raw.__func__)))
            else:
                self._set(cls, attr, self._counter(name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pass"],
                    "spans": self.spans,
                    "counts": {str(p): dict(c) for p, c in self.counts.items()},
                    "values": {str(p): dict(v) for p, v in self.values.items()},
                },
                fh,
            )


def covered_length(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Self time of every span, in span order."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered_length(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


class PassSummary:
    """Per-name call counts, total and self seconds of one pass's spans."""

    def __init__(self, tracer: Tracer, pass_id: int, own_self: list[float]):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self: Counter = Counter()
        for span, own in zip(tracer.spans, own_self):
            if span[PASS] != pass_id:
                continue
            name = span[NAME]
            self.calls[name] += 1
            self.total[name] += span[END] - span[START]
            self.self[name] += own
        self.counts = tracer.counts[pass_id]
        self.values = tracer.values[pass_id]


def layer_metrics(p: PassSummary) -> dict[str, float]:
    """Per-layer metrics of one pass (see README.md for the layer map)."""
    iterations = p.values["gmres.iterations"]
    matvecs = p.calls["gmres.matvec"]
    return {
        "gmres.iterations": iterations,
        # each cycle starts with one residual matvec and the final
        # convergence test takes one more
        "gmres.restarts": max(matvecs - iterations - 2, 0),
        "gmres.matvec.calls": matvecs,
        "gmres.matvec_s": p.total["gmres.matvec"],
        "gmres.krylov_self_s": p.self["gmres.gmres"],
        "gmres.flatten_s": p.self["gmres.solve_system"],
        "gmres.relres": p.values["gmres.relres"],
        "stokes.element_matrix.calls": p.calls["stokes.element_matrix"],
        "stokes.element_matrix_s": p.total["stokes.element_matrix"],
        "localfe.gradients.calls": p.counts["localfe.gradients.calls"],
        "localfe.values.calls": p.counts["localfe.values.calls"],
        "stokes.assemble_self_s": p.self["stokes.assemble"],
        "containers.add_to_entry.calls": p.counts["containers.add_to_entry.calls"],
        "containers.identity_rows": p.counts["containers.identity_rows"],
        "containers.nnz": p.values["containers.nnz"],
        "containers.freeze_s": p.total["containers.freeze"],
        "stokes.dirichlet_s": p.total["stokes.dirichlet"],
        "functions.boundary_walk_s": p.total["functions.boundary_walk"],
        "containers.matvec_s": p.total["containers.matvec"],
        "stokes.divergence_s": p.total["stokes.divergence"],
        "basis.make_basis_s": p.total["basis.make_basis"],
        "basis.bind.calls": p.calls["basis.bind"],
        "basis.bind_s": p.total["basis.bind"],
        "basis.index.calls": p.counts["basis.index.calls"],
        "multiindex.new.calls": p.counts["multiindex.new.calls"],
        "containers.resize_s": p.total["containers.resize"],
        "functions.interpolate_s": p.total["functions.interpolate"],
        "functions.evaluate.calls": p.calls["functions.evaluate"],
        "functions.evaluate_s": p.total["functions.evaluate"],
        "vtu.write_s": p.self["vtu.write"],
        "vtu.bytes": p.values["vtu.bytes"],
    }


def per_layer(tracer: Tracer, setup_pass: int, traced_passes) -> dict[str, float]:
    """Set-up share plus the median over traced passes, per metric.

    Counts repeat exactly from pass to pass, so their median is the count.
    """
    own = self_times(tracer.spans)
    setup = layer_metrics(PassSummary(tracer, setup_pass, own))
    passes = [layer_metrics(PassSummary(tracer, p, own)) for p in traced_passes]
    return {k: setup[k] + statistics.median(m[k] for m in passes) for k in setup}
