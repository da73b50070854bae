"""Tracing from outside the library: wrap spikedho's public functions at
each module boundary, record spans in memory, and turn them into the
per-layer metrics of the benchmark.

Every binding of a wrapped function is replaced, not only the defining
one, because modules call each other through their own imported names
(``perturb.pfq``, ``series.pfq``, ``model.ln_gamma``) and the solver calls
``numpy.linalg.eigvalsh`` through the numpy module.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import time
from collections import Counter, defaultdict

import numpy as np

import spikedho
from spikedho import bounds, model, perturb, series, solver, specfun
from spikedho.specfun import ConvergenceError

_PACKAGE_MODULES = (spikedho, specfun, model, perturb, bounds, solver, series)

# (span name, defining module, attribute)
TRACED = (
    ("specfun.ln_gamma", specfun, "ln_gamma"),
    ("specfun.pfq", specfun, "pfq"),
    ("model.matrix_element_table", model, "matrix_element_table"),
    ("model.matrix_element_general", model, "matrix_element_general"),
    ("perturb.coefficients", perturb, "coefficients"),
    ("bounds.bound_report", bounds, "bound_report"),
    ("bounds.residual_integral", bounds, "residual_integral"),
    ("solver.ground_state", solver, "ground_state"),
    ("solver.build_hamiltonian", solver, "build_hamiltonian"),
    ("solver.eigvalsh", np.linalg, "eigvalsh"),
    ("series.double_sum_truncated", series, "double_sum_truncated"),
)


class Tracer:
    """Spans (name, start, end, parent span, query id) and boundary counts
    for one traced pass."""

    def __init__(self):
        self.spans = []
        self.query_id = -1
        self._stack = []
        self.elements = Counter()
        self.distinct = defaultdict(set)
        self.ladders = []             # basis sizes of each ground_state call
        self.convergence_failures = 0

    def _wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.query_id)

        traced.__wrapped__ = fn
        return traced

    # Counts taken at the boundary, before the call.
    def _count_ln_gamma(self, x):
        self.elements["specfun.ln_gamma"] += np.size(x)

    def _count_table(self, alpha, gamma, size):
        self.elements["model.matrix_element_table"] += size * size

    def _count_coefficients(self, params):
        self.distinct["perturb.coefficients"].add((params.alpha, params.gamma))

    def _count_residual(self, alpha, gamma):
        self.distinct["bounds.residual_integral"].add((alpha, gamma))

    def _count_eigvalsh(self, a, *args, **kwargs):
        if self.ladders:
            self.ladders[-1].append(a.shape[0])

    def _ground_state(self, fn):
        def ground_state(*args, **kwargs):
            self.ladders.append([])
            try:
                return fn(*args, **kwargs)
            except ConvergenceError:
                self.convergence_failures += 1
                raise
        return ground_state

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the TRACED functions by a wrapper for
        the duration of the block."""
        counters = {
            "specfun.ln_gamma": self._count_ln_gamma,
            "model.matrix_element_table": self._count_table,
            "perturb.coefficients": self._count_coefficients,
            "bounds.residual_integral": self._count_residual,
            "solver.eigvalsh": self._count_eigvalsh,
        }
        saved = []
        for name, owner, attr in TRACED:
            orig = getattr(owner, attr)
            inner = self._ground_state(orig) if attr == "ground_state" else orig
            wrapped = self._wrap(name, inner, counters.get(name))
            for mod in _PACKAGE_MODULES + (owner,):
                if getattr(mod, attr, None) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def self_times(self):
        """Per span name: total self time, i.e. each span's duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _q in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for (name, t0, t1, _p, _q), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def metrics(self):
        """Per-layer metrics of this pass: (value, unit) by metric name."""
        calls = Counter(name for name, *_ in self.spans)
        self_s = self.self_times()
        sizes = [n for ladder in self.ladders for n in ladder]
        final_cubes = sum(ladder[-1] ** 3 for ladder in self.ladders
                          if ladder)
        all_cubes = sum(n ** 3 for n in sizes)

        def useful(name):
            return len(self.distinct[name]) / calls[name] if calls[name] else 0.0

        m = {}
        for name in ("specfun.ln_gamma", "specfun.pfq",
                     "model.matrix_element_table",
                     "model.matrix_element_general", "perturb.coefficients",
                     "bounds.bound_report", "bounds.residual_integral",
                     "solver.ground_state", "series.double_sum_truncated"):
            m[name + ".calls"] = (calls[name], "count")
        for name in ("specfun.ln_gamma", "specfun.pfq",
                     "model.matrix_element_table", "perturb.coefficients",
                     "bounds.bound_report", "solver.ground_state",
                     "solver.build_hamiltonian", "solver.eigvalsh",
                     "series.double_sum_truncated"):
            m[name + ".self_s"] = (self_s[name], "s")
        m["specfun.ln_gamma.elements"] = (
            self.elements["specfun.ln_gamma"], "count")
        m["model.matrix_element_table.elements"] = (
            self.elements["model.matrix_element_table"], "count")
        m["model.table_bytes_computed"] = (
            8 * self.elements["model.matrix_element_table"], "B")
        m["perturb.coefficients.useful_ratio"] = (
            useful("perturb.coefficients"), "ratio")
        m["bounds.residual_integral.useful_ratio"] = (
            useful("bounds.residual_integral"), "ratio")
        m["solver.ladder_steps"] = (len(sizes), "count")
        m["solver.basis_max"] = (max(sizes, default=0), "count")
        m["solver.ladder_useful_ratio"] = (
            final_cubes / all_cubes if all_cubes else 0.0, "ratio")
        m["solver.convergence_failures"] = (self.convergence_failures, "count")
        m["solver.eigvalsh.flops_computed"] = (
            sum(4.0 / 3.0 * n ** 3 for n in sizes), "flop")
        return m

    def write_spans(self, path):
        """Write the spans as gzip-compressed CSV, times relative to the
        first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent",
                          "query"))
            for sid, (name, t0, t1, parent, qid) in enumerate(self.spans):
                out.writerow((sid, name, "%.9f" % (t0 - base),
                              "%.9f" % (t1 - base), parent, qid))
