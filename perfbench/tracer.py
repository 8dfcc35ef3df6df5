"""Layer tracer: wraps the public functions of every trinorm module from
outside and records spans, without touching the package's source.

A layer is a module.  A span (function, start, end, parent span) is
recorded when a wrapped call enters a layer from another layer, and for
every call of the functions in ``ALWAYS_SPAN`` and of the verify
criteria, whose own time the benchmark reports.  Calls that stay inside
one layer are only counted, so the three hot per-disc helpers of
``surface`` and ``cocycle`` (millions of calls on the verify grid) cost a
counter increment, not a span.

The tracer replaces every module-global binding of a wrapped function
across ``trinorm.*`` (``analyze`` and ``cli`` import several functions by
name), function entries of module-level tuples (``verifysuite.CHECKS``),
the cached ``Triangulation.skeleton`` and ``canonical_table``
computations and ``Triangulation.__init__``.  ``uninstall`` restores all
of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("triangulation", "homology", "build", "cocycle", "surface",
          "analyze", "cli", "verifysuite")
ROOT = "bench"

# functions whose own time, or whose callers, a per-layer metric needs
ALWAYS_SPAN = frozenset({
    "analyze.find_maximal_lsts", "analyze.low_degree_lint",
    "homology.smith_normal_form", "homology.gf2_rank",
    "homology.gf2_kernel_basis",
    "build.lst", "build.fold_along_edge",
    "triangulation.parse", "triangulation.Triangulation.skeleton",
    "triangulation.Triangulation.canonical_table",
    "cocycle.cocycle_basis",
    "surface.b_modification", "surface.canonical_surface",
})


def _snf_entries(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    cols = args[2] if len(args) > 2 else kwargs.get("cols")
    if rows is None:
        rows = len(matrix)
        cols = len(matrix[0]) if matrix else 0
    return rows * cols


# extra counters computed from a call's arguments or its result
ARG_COUNTERS = {"homology.smith_normal_form": ("homology.snf_entries",
                                               _snf_entries)}
RESULT_COUNTERS = {"cocycle.all_nonzero_classes": ("cocycle.classes", len)}


class Tracer:
    """Spans and counts of one traced run; use as a context manager to
    install and uninstall the wrappers."""

    def __init__(self):
        self.names = []           # function id -> "layer.name"
        self.layer_of = []        # function id -> layer
        self.calls = Counter()    # function name -> calls, every call
        self.counters = Counter()
        self.spans = []           # [fid, start, end, parent span or -1]
        self.stack = []
        self._undo = []
        self._wrapped = {}        # original function -> wrapper
        self.originals = {}       # name -> original function
        self._root_fids = {}

    # ----- recording -------------------------------------------------------

    def _fid(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        fid = self._fid(name, layer)
        self.originals[name] = fn
        always = name in ALWAYS_SPAN or name.startswith("verifysuite.check_")
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        calls, counters = self.calls, self.counters
        spans, stack, layer_of = self.spans, self.stack, self.layer_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if arg_counter is not None:
                counters[arg_counter[0]] += arg_counter[1](args, kwargs)
            if not always and stack and \
                    layer_of[spans[stack[-1]][0]] == layer:
                result = fn(*args, **kwargs)
            else:
                span = [fid, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            if result_counter is not None:
                counters[result_counter[0]] += result_counter[1](result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own code, in the ``bench`` layer."""
        if name not in self._root_fids:
            self._root_fids[name] = self._fid(name, ROOT)
        span = [self._root_fids[name], 0.0, 0.0,
                self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    # ----- installation ----------------------------------------------------

    def install(self):
        import trinorm
        modules = {layer: importlib.import_module(f"trinorm.{layer}")
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrapped[obj] = self._wrap(obj, f"{layer}.{attr}",
                                                    layer)
        package = [m for n, m in sorted(sys.modules.items())
                   if m is trinorm or n.startswith("trinorm.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                new = self._replace(obj)
                if new is not obj:
                    self._set(mod, attr, new)
        tri_cls = modules["triangulation"].Triangulation
        for attr in ("skeleton", "canonical_table"):
            prop = tri_cls.__dict__[attr]
            new = functools.cached_property(self._wrap(
                prop.func, f"triangulation.Triangulation.{attr}",
                "triangulation"))
            new.__set_name__(tri_cls, attr)
            self._set(tri_cls, attr, new)
        self._set(tri_cls, "__init__", self._wrap(
            tri_cls.__init__, "triangulation.Triangulation.__init__",
            "triangulation"))
        return self

    def _replace(self, obj):
        if inspect.isfunction(obj):
            return self._wrapped.get(obj, obj)
        if isinstance(obj, tuple):
            items = tuple(self._replace(x) for x in obj)
            if any(a is not b for a, b in zip(items, obj)):
                return items
        return obj

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ----- analysis --------------------------------------------------------

    def layer_times(self):
        """Self seconds per layer: each span's duration minus its direct
        children's, attributed to the span's layer.  Same-layer children
        land on the same layer, so this is busy time minus the time
        covered by other layers."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (fid, t0, t1, parent) in enumerate(self.spans):
            out[self.layer_of[fid]] += (t1 - t0) - child[i]
        return out

    def entries(self):
        """Calls that entered each layer from another layer (or from the
        benchmark)."""
        out = Counter()
        for fid, _, _, parent in self.spans:
            layer = self.layer_of[fid]
            if parent < 0 or self.layer_of[self.spans[parent][0]] != layer:
                out[layer] += 1
        return out

    def inclusive(self, name):
        """Seconds inside calls of one function, outermost calls only."""
        fids = {i for i, n in enumerate(self.names) if n == name}
        total = 0.0
        for fid, t0, t1, parent in self.spans:
            if fid not in fids:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in fids:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def children_of(self, name, parent_pred):
        """Spans of ``name`` whose parent span satisfies ``parent_pred``
        (called with the parent's function name and layer)."""
        n = 0
        for fid, _, _, parent in self.spans:
            if self.names[fid] != name or parent < 0:
                continue
            pfid = self.spans[parent][0]
            if parent_pred(self.names[pfid], self.layer_of[pfid]):
                n += 1
        return n

    def dump(self, path):
        """Write the spans as JSON lines: name, layer, start, end, parent."""
        with open(path, "w") as fh:
            for i, (fid, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[fid],
                                     "layer": self.layer_of[fid],
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
