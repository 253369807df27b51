"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces public functions of the ``moeeqi`` modules with
thin wrappers that record one span per call (name, start, end, parent span,
loop id) plus a few work counters, and ``Tracer.uninstall()`` puts the
originals back. Spans stay in memory until ``write_jsonl``. Nothing here is
active unless a traced run installs it.
"""

from __future__ import annotations

import functools
import json
import time

import moeeqi
import moeeqi.acquisition
import moeeqi.cli
import moeeqi.gp
import moeeqi.optimizer
import moeeqi.pareto
import moeeqi.problems

MARK = "__perfbench_wrapped__"

# (owner, attribute, span name). A function imported by name into another
# module is patched at every place the package looks it up, except that the
# truth front keeps its own build_front call inside the oracle_front span.
TARGETS = [
    (moeeqi.cli, "main", "cli"),
    (moeeqi, "run", "optimizer.run"),
    (moeeqi.optimizer, "run", "optimizer.run"),
    (moeeqi.cli, "run", "optimizer.run"),
    (moeeqi.gp, "fit_hyperparameters", "gp.fit_hyperparameters"),
    (moeeqi.gp.GpEmulator, "fit", "gp.emulator_fit"),
    (moeeqi.gp.GpEmulator, "posterior", "gp.posterior"),
    (moeeqi.optimizer, "moeeqi_scores", "pareto.scores"),
    (moeeqi.pareto, "moeeqi_scores", "pareto.scores"),
    (moeeqi.optimizer, "build_front", "pareto.build_front"),
    (moeeqi.pareto, "build_front", "pareto.build_front"),
    (moeeqi.optimizer, "initial_design", "problems.initial_design"),
    (moeeqi.problems, "initial_design", "problems.initial_design"),
    (moeeqi.optimizer, "sample_environment", "problems.simulate"),
    (moeeqi.problems, "sample_environment", "problems.simulate"),
    (moeeqi.optimizer, "mc_aggregate", "problems.simulate"),
    (moeeqi.problems, "mc_aggregate", "problems.simulate"),
    (moeeqi.problems, "oracle_front", "problems.oracle_front"),
    (moeeqi.cli, "oracle_front", "problems.oracle_front"),
    (moeeqi.optimizer, "merge_replicate", "acquisition.merge"),
    (moeeqi.acquisition, "merge_replicate", "acquisition.merge"),
    (moeeqi.optimizer, "future_noise", "acquisition.future_noise"),
    (moeeqi.acquisition, "future_noise", "acquisition.future_noise"),
]


def installed_wrappers() -> list:
    """Names of the target attributes that currently hold a tracing wrapper."""
    found = []
    for owner, attr, _ in TARGETS:
        fn = owner.__dict__.get(attr)
        inner = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
        if getattr(inner, MARK, False):
            found.append(f"{owner.__name__}.{attr}")
    return found


def wrapper_cost(calls: int = 50000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    mid = time.perf_counter()
    for _ in range(calls):
        wrapped()
    end = time.perf_counter()
    return max((end - mid) - (mid - start), 0.0) / calls


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, loop id]
        self.counts = {}
        self.loop = 0
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.loop]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            tracer._observe(name, args, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _observe(self, name: str, args, out) -> None:
        # Work counters, read from the arguments and results of the call.
        if name == "gp.posterior":
            x = args[1]
            self.count("gp.posterior_points", 1 if getattr(x, "ndim", 1) == 1 else len(x))
        elif name == "pareto.scores":
            self.count("pareto.scores_calls")
            self.count("pareto.scores_points", len(args[1]))
            self.count("pareto.front_size_sum", len(args[0]))
        elif name == "acquisition.merge":
            self.count("acquisition.merge_calls")
        elif name == "optimizer.run":
            self.count("optimizer.steps", len(out.history))
            self.count("optimizer.replicate_steps", sum(r.replicate for r in out.history))
            self.count("optimizer.fallback_steps", sum(r.fallback for r in out.history))

    def _minimize(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.count("gp.fit_nfev", int(res.nfev))
            return res

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        # Likelihood evaluations: summed from the optimizer results of the fit.
        self._saved.append((moeeqi.gp, "minimize", moeeqi.gp.minimize))
        moeeqi.gp.minimize = self._minimize(moeeqi.gp.minimize)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time covered by its
        direct children, summed over all spans of that name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def call_counts(self) -> dict:
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, loop) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "loop": loop}) + "\n")
