"""Spans and counters recorded from the benchmark's side of the API.

`Tracer.install` replaces each listed public function of `mink1` with a
timed wrapper in every namespace that binds it (`from .x import f`
copies the name into each importing module), wraps the constructors of
the listed classes, wraps each acceptance check in `verify.ALL_CHECKS`,
and counts calls into `numpy.linalg`.  Nothing is recorded outside an
op: the harness opens a root span per op, so input generation and the
answer checks never show up in the trace.

Spans stay in memory (name, parent, start, end) and are written once,
at the end.  A span's self time is its duration minus the time its
child spans cover.  The per-layer times are scaled to calib.py's
reference speed by the factor of the op they ran in; the written spans
keep the raw clock.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# module -> public names whose calls and self time are recorded
TRACED = {
    "minkowski": ("exp_element", "Motion", "causal_of_span", "generator_class"),
    "algebra": ("AlgebraElement", "SubalgebraSpec", "span_residual", "closure_residual",
                "kernel_of_l", "linear_part", "adjoint_spec"),
    "catalog": ("build", "expected_orbit"),
    "orbits": ("orbit_report", "orbit_dimension", "stabilizer_algebra", "orbit_causal",
               "orbit_class", "sample_orbit", "shape_operator"),
    "properness": ("stabilizer_compactness", "make_witness", "recovery_test"),
    "classify": ("classify", "signature", "standardize_linear"),
    "reportio": ("to_json",),
}
LINALG = ("svd", "lstsq", "eig", "eigvals", "eigh", "eigvalsh", "det")
CHECK_COUNT = 8
ROOT = "op"


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._index = {ROOT: 0}
        # one entry per span, in start order
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # open spans: [span id, name index, start ns, child ns]
        self.stack = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        # raw times of the op in progress, scaled into the totals at its end
        self._op_self = Counter()
        self._op_total = Counter()
        self.counts = Counter()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _open(self, idx):
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        t0 = perf_counter_ns()
        self.span_start.append(t0)
        self.span_end.append(0)
        self.stack.append([sid, idx, t0, 0])

    def _close(self):
        t1 = perf_counter_ns()
        sid, idx, t0, child = self.stack.pop()
        self.span_end[sid] = t1
        dur = t1 - t0
        name = self.names[idx]
        self.calls[name] += 1
        self._op_total[name] += dur
        self._op_self[name] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    def begin_op(self):
        self._open(0)

    def end_op(self, factor):
        """Close the op's root span; `factor` scales its times to the
        reference speed."""
        self._close()
        for name, ns in self._op_self.items():
            self.self_ns[name] += ns * factor
        for name, ns in self._op_total.items():
            self.total_ns[name] += ns * factor
        self._op_self.clear()
        self._op_total.clear()

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name, fn, on_result=None):
        idx = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # outside an op, or a recursive call folded into its caller
            if not self.stack or self.stack[-1][1] == idx:
                return fn(*args, **kwargs)
            self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_modules=()):
        """Wrap every listed name; `extra_modules` are harness modules
        that also bound some of them at import."""
        from mink1.classify import Rejection

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "mink1" or n.startswith("mink1.")] + list(extra_modules)
        for mod, names in TRACED.items():
            module = sys.modules[f"mink1.{mod}"]
            for attr in names:
                orig = getattr(module, attr)
                name = f"{mod}.{attr}"
                if isinstance(orig, type):
                    self._set(orig, "__init__", self.wrap(name, orig.__init__))
                    continue
                hook = None
                if name == "classify.classify":
                    def hook(res):
                        if isinstance(res, Rejection):
                            self.counts["classify.rejected"] += 1
                wrapped = self.wrap(name, orig, hook)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, key, wrapped)
        verify = sys.modules["mink1.verify"]
        checks = tuple(self.wrap(f"verify.C{i + 1}", fn)
                       for i, fn in enumerate(verify.ALL_CHECKS))
        self._set(verify, "ALL_CHECKS", checks)
        for fname in LINALG:
            self._set(np.linalg, fname, self._count(f"linalg.{fname}",
                                                      getattr(np.linalg, fname)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def per_op(self):
        """Per-layer metrics, each divided by the number of ops traced."""
        ops = self.calls[ROOT]
        if ops == 0:
            raise ValueError("no op was traced")
        out = {}
        for mod, names in TRACED.items():
            for attr in names:
                name = f"{mod}.{attr}"
                out[f"{name}.calls"] = (self.calls[name] / ops, "calls/op")
                out[f"{name}.self_us"] = (self.self_ns[name] / ops / 1e3, "us/op")
        for i in range(CHECK_COUNT):
            name = f"verify.C{i + 1}"
            out[f"{name}_s"] = (self.total_ns[name] / ops / 1e9, "s/op")
        n_classify = self.calls["classify.classify"]
        out["classify.rejected_ratio"] = (
            self.counts["classify.rejected"] / n_classify if n_classify else 0.0, "ratio")
        for fname in LINALG:
            out[f"linalg.{fname}.calls"] = (self.counts[f"linalg.{fname}"] / ops, "calls/op")
        return out

    def write(self, path):
        """Spans as CSV: id, parent id (-1 for an op), name, start and end
        in ns of the process's performance counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{self.span_parent[sid]},{self.names[self.span_name[sid]]},"
                         f"{self.span_start[sid]},{self.span_end[sid]}\n")
