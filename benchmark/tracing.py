"""In-memory span tracing of sodhh's public functions, from outside sodhh.

The benchmark wraps the functions listed in TARGETS without touching the
package's source.  A function imported by name into other modules (for
example `bar_resolution` into `hochschild` and `kernels`, or `rank` into
`complexes`) is rebound in every sodhh module that holds it, so calls are
traced whichever module makes them.  A class is traced through its
`__init__`, never by replacing the class, so `isinstance` keeps working.

Each call records a span (id, name, start_ns, end_ns, parent id).  A span's
self time is its duration minus the durations of its direct child spans;
one thread runs, so children never overlap.  Counts and times are also
aggregated per name as the spans close.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# (module, attribute path).  "Class" alone traces the constructor;
# "Class.method" traces that method.
TARGETS = [
    ("linalg", "rank"),
    ("linalg", "ColumnEchelon"),
    ("algebra", "build_path_algebra"),
    ("algebra", "Algebra.enveloping"),
    ("algebra", "center"),
    ("modules", "ModuleRep"),
    ("modules", "regular_bimodule"),
    ("modules", "dual_bimodule"),
    ("complexes", "ProjComplex"),
    ("complexes", "bar_resolution"),
    ("complexes", "projective_resolution"),
    ("complexes", "tensor_env_module"),
    ("complexes", "ModuleHomComplex"),
    ("complexes", "ModuleHomComplex.ext_profile"),
    ("hochschild", "global_dimension"),
    ("hochschild", "hh_cohomology"),
    ("hochschild", "hh_homology"),
    ("hochschild", "homology_via_serre_dual"),
    ("exceptional", "projective_collection"),
    ("exceptional", "mutate"),
    ("exceptional", "dual_collection"),
    ("kernels", "projection_kernels"),
    ("kernels", "decomposable_to_env"),
    ("kernels", "convolution_homology_dims"),
    ("kernels", "orthogonality_report"),
    ("kernels", "additivity_check"),
    ("catalog", "CatalogEntry.algebra"),
    ("cli", "run_command"),
    ("cli", "parse_quiver_file"),
    ("report", "Report.to_json"),
]

SPAN_NAMES = [f"{mod}.{path}" for mod, path in TARGETS]

# Extra counters: span name -> function of the call's arguments giving
# {counter suffix: amount}.  The work is done before the span's clock starts.
COUNTERS = {
    "linalg.rank": lambda m: {"cells": m.nrows * m.ncols, "nnz": m.nnz()},
}
COUNTER_NAMES = ["linalg.rank.cells", "linalg.rank.nnz"]


class Tracer:
    """Installs wrappers while active; keeps spans and per-name totals."""

    def __init__(self):
        self.spans = []       # (id, name, start_ns, end_ns, parent id or -1)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []      # open spans: [id, child_ns]
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        self._next_id = 0
        self._patches = []    # (owner, attribute, original)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, amount in count(*args, **kwargs).items():
                    self.counters[f"{name}.{key}"] += amount
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            self._depth[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._depth[name] -= 1
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if self._depth[name] == 0:   # recursion counts once
                    self.total_ns[name] += duration
                self.spans.append((span_id, name, start, end, parent))

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the loaded sodhh modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == "sodhh" or n.startswith("sodhh.")]
        for (mod, path), name in zip(TARGETS, SPAN_NAMES):
            owner = sys.modules[f"sodhh.{mod}"]
            parts = path.split(".")
            if len(parts) == 2:
                cls = getattr(owner, parts[0])
                self._set(cls, parts[1], self._wrap(name, cls.__dict__[parts[1]]))
                continue
            obj = getattr(owner, path)
            if isinstance(obj, type):
                self._set(obj, "__init__",
                          self._wrap(name, obj.__dict__["__init__"]))
                continue
            wrapped = self._wrap(name, obj)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._set(module, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, units):
        """Per-unit values: calls, self_s and total_s per span name, and the
        counters.  Counts are divided by the number of identical units."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / units, "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / units / 1e9, "s")
            out[f"{name}.total_s"] = (self.total_ns[name] / units / 1e9, "s")
        for name in COUNTER_NAMES:
            out[name] = (self.counters[name] / units, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
