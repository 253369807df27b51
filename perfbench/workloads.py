"""Workload definitions, the closed-loop runners and the correctness gate.

A run of one workload executes *units* one after another in this process: a
unit is one optimization loop (``moeeqi.run``) on ``protocol`` and
``dense_select``, and one ``moeeqi study`` command (``moeeqi.cli.main``) on
``study``.

Seeds: for workload seed ``S``, unit ``k`` uses loop seed ``10000*S + 100*k``
(the study command uses it as its base seed, so replicate ``r`` runs with
``10000*S + 100*k + r``). The tiny check unit uses the seed of unit 0.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import moeeqi
import moeeqi.cli
import spans

A = 0.5
BETA = 0.7
N_MC = 10
STUDY_VARIANTS = 3  # two study betas plus the moeei comparator


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    init: int
    schedule: tuple  # ((mode, iterations), ...)
    unit_s: float  # wall time of one unit on the reference machine
    refit: bool = True
    replicates: int = 0  # > 0: the unit is a study command with this many replicates
    truth_resolution: int = 500

    @property
    def n_iter(self) -> int:
        return sum(c for _, c in self.schedule)

    @property
    def is_study(self) -> bool:
        return self.replicates > 0

    def traced_units(self, seconds: float) -> int:
        """Distinct seeds of a traced run: with the untraced reference unit,
        about ``seconds`` of work on the reference machine."""
        return max(1, int(seconds / self.unit_s) - 1)

    def tiny(self) -> "Workload":
        """The same kind of unit at the smallest size: grid 10, 5 initial
        points, 2 iterations, 1 study replicate."""
        return dataclasses.replace(
            self, grid=10, init=5, truth_resolution=50, replicates=min(self.replicates, 1),
            schedule=tuple((mode, 2 // len(self.schedule)) for mode, _ in self.schedule),
        )

    def config(self, seed: int) -> moeeqi.RunConfig:
        return moeeqi.RunConfig(
            beta=BETA, n_mc=N_MC, n_iter=self.n_iter, grid_resolution=self.grid,
            initial_design_size=self.init, seed=seed, mode_schedule=self.schedule,
            refit_hyperparameters=self.refit,
        )

    def config_doc(self, seed: int) -> dict:
        return {
            "beta": BETA, "n_mc": N_MC, "n_iter": self.n_iter,
            "grid_resolution": self.grid, "initial_design_size": self.init, "seed": seed,
            "mode_schedule": [list(step) for step in self.schedule],
            "refit_hyperparameters": self.refit,
            "study_betas": [0.7, 0.9], "truth_resolution": self.truth_resolution,
        }


# The units of study and dense_select are kept short (one replicate; 5+5
# iterations) so that a run holds 6-10 of them and the medians over units
# ride out the host's slow spells. protocol is not in BENCHMARK.json: it
# stresses the same layers as study, and two workloads leave room for 50 s runs.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("protocol", grid=100, init=5, schedule=(("aggressive", 20),), unit_s=4.0),
        Workload("dense_select", grid=300, init=20, refit=False, unit_s=5.5,
                 schedule=(("aggressive", 5), ("non_aggressive", 5))),
        Workload("study", grid=100, init=5, schedule=(("aggressive", 9),), replicates=1,
                 unit_s=8.0),
    ]
}


def loop_seed(seed: int, k: int) -> int:
    """Loop seed of unit ``k`` under workload seed ``seed``."""
    return 10000 * seed + 100 * k


class FirstCall(BaseException):
    """Raised by an aborting simulator at its first call; a BaseException so
    that the study command's per-replicate ``except Exception`` lets it out."""


class Simulator:
    """The toy simulator as the benchmark's evaluator: it times every batch,
    checks that the batch is finite, and optionally traces it."""

    def __init__(self, abort: bool = False):
        self.inner = None  # set by loop_problem or injected_simulator
        self.abort = abort
        self.tracer = None
        self.calls = []  # (start, end) of each batch
        self.bad_batches = 0
        self.wrappers_seen = set()  # checked at the first batch of every unit

    def __call__(self, xc, xe_batch):
        start = time.perf_counter()
        if self.abort:
            raise FirstCall(start)
        if not self.calls:
            self.wrappers_seen.update(spans.installed_wrappers())
        if self.tracer is None:
            out = self.inner(xc, xe_batch)
        else:
            out = self.tracer.span("problems.evaluator", self.inner, xc, xe_batch)
        if not np.all(np.isfinite(out)):
            self.bad_batches += 1
        self.calls.append((start, time.perf_counter()))
        return out

    def reset(self) -> None:
        self.calls = []
        self.bad_batches = 0

    def steps(self, init: int, n_iter: int) -> list:
        """Decision latency: gap from the return of one batch to the start of
        the next, skipping the gaps inside each loop's initial design."""
        per_loop = init + n_iter
        out = []
        for base in range(0, len(self.calls), per_loop):
            chunk = self.calls[base:base + per_loop]
            out += [chunk[k][0] - chunk[k - 1][1] for k in range(init, len(chunk))]
        return out


@dataclasses.dataclass
class UnitResult:
    seed: int
    wall_s: float
    steps: list
    front_dist: float
    digest: str
    attempted: int  # loops (or study replicates) in this unit
    failed: int
    problems: list  # gate violations, empty when the unit passed


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


def _is_staircase(front) -> bool:
    q1, q2 = front.q1s(), front.q2s()
    return bool(np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))
                and np.all(np.diff(q1) > 0.0) and np.all(np.diff(q2) < 0.0))


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for ds in state.datasets:
        for arr in (ds.locations(), ds.means(), ds.variances(),
                    np.array([o.replications for o in ds], dtype=float)):
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(state.front.q1s().tobytes())
    h.update(state.front.q2s().tobytes())
    return h.hexdigest()


def truth_front(resolution: int):
    """Noise-free front of the toy problem on a control grid, by the same
    (q1, q2) sweep as ``build_front`` but vectorized. ``oracle_front`` builds
    one Python object per grid point (about 110 MB at resolution 500), which
    would dominate ``peak_rss_mb`` of a loop workload."""
    grid = moeeqi.candidate_grid(moeeqi.toy_problem(A).control_bounds, resolution)
    f1, f2 = moeeqi.ground_truth(grid)
    order = np.lexsort((f2, f1))
    f1, f2, grid = f1[order], f2[order], grid[order]
    keep = f2 < np.minimum.accumulate(np.r_[np.inf, f2[:-1]])
    return moeeqi.ParetoFront([moeeqi.FrontPoint(float(a), float(b), source=x)
                               for a, b, x in zip(f1[keep], f2[keep], grid[keep])])


def loop_problem(sim: Simulator):
    """The protocol problem with the benchmark's simulator as its evaluator."""
    toy = moeeqi.toy_problem(A)
    sim.inner = toy.evaluator
    return dataclasses.replace(toy, evaluator=sim)


def run_loop(wl: Workload, seed: int, truth, sim: Simulator) -> UnitResult:
    sim.reset()
    problem = loop_problem(sim)
    config = wl.config(seed)
    start = time.perf_counter()
    state = moeeqi.run(problem, config)
    wall = time.perf_counter() - start

    problems = []
    fronts = [state.initial_front, state.front] + [rec.front for rec in state.history]
    if not all(_is_staircase(f) for f in fronts):
        problems.append("front is not a strict staircase")
    for ds in state.datasets:
        if not (np.all(np.isfinite(ds.means())) and np.all(np.isfinite(ds.variances()))):
            problems.append("non-finite observation")
    if sim.bad_batches:
        problems.append(f"{sim.bad_batches} non-finite simulator batches")
    expected = wl.init + (len(state.history) if state.stopped_early else wl.n_iter)
    total_reps = sum(o.replications for o in state.datasets[0])
    if total_reps != expected or len(sim.calls) != expected:
        problems.append(f"replications {total_reps}, batches {len(sim.calls)}, expected {expected}")
    dist = moeeqi.evaluate_metrics(state, truth).mean_distance
    if not (math.isfinite(dist) and dist > 0.0):
        problems.append(f"front distance {dist}")
    return UnitResult(
        seed=seed, wall_s=wall, steps=sim.steps(wl.init, wl.n_iter), front_dist=dist,
        digest=_state_digest(state), attempted=1, failed=int(bool(problems)), problems=problems,
    )


# ---------------------------------------------------------------------------
# Study command
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def injected_simulator(sim: Simulator):
    """Make the study command evaluate through ``sim``: the problem document
    is still parsed by the package, then its evaluator is wrapped."""
    original = moeeqi.cli.load_problem

    def load_problem(source):
        problem = original(source)
        sim.inner = problem.evaluator
        return dataclasses.replace(problem, evaluator=sim)

    moeeqi.cli.load_problem = load_problem
    try:
        yield
    finally:
        moeeqi.cli.load_problem = original


def study_args(wl: Workload, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    problem_path = workdir / "problem.json"
    config_path = workdir / "config.json"
    problem_path.write_text(json.dumps({"problem": "toy", "a": A}))
    config_path.write_text(json.dumps(wl.config_doc(seed)))
    return ["study", "--problem", str(problem_path), "--config", str(config_path),
            "--replicates", str(wl.replicates), "--out", str(workdir / "out")]


def run_study(wl: Workload, seed: int, workdir: Path, sim: Simulator) -> UnitResult:
    sim.reset()
    try:
        args = study_args(wl, seed, workdir)
        with injected_simulator(sim), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = moeeqi.cli.main(args)
            wall = time.perf_counter() - start
        return _check_study(wl, seed, workdir / "out", sim, code, wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_study(wl: Workload, seed: int, out: Path, sim: Simulator, code: int, wall: float):
    runs = STUDY_VARIANTS * wl.replicates
    problems = []
    rows = []
    failures = []
    if code != 0:
        problems.append(f"study exit code {code}")
    metrics_path = out / "metrics.csv"
    if metrics_path.is_file():
        data = metrics_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        failures = json.loads((out / "study_meta.json").read_text())["failures"]
    else:
        data = b""
        problems.append("metrics.csv missing")
    if len(rows) != runs * wl.n_iter:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {runs * wl.n_iter}")
    if failures:
        problems.append(f"{len(failures)} failed replicates")
    if sim.bad_batches:
        problems.append(f"{sim.bad_batches} non-finite simulator batches")
    if len(sim.calls) != runs * (wl.init + wl.n_iter):
        problems.append(f"{len(sim.calls)} batches, expected {runs * (wl.init + wl.n_iter)}")
    final = [float(r["mean_distance"]) for r in rows if int(r["iteration"]) == wl.n_iter]
    dist = statistics.fmean(final) if final else math.nan
    if not final or not all(math.isfinite(d) and d > 0.0 for d in final):
        problems.append("non-finite or missing final front distance")
    return UnitResult(
        seed=seed, wall_s=wall, steps=sim.steps(wl.init, wl.n_iter), front_dist=dist,
        digest=hashlib.sha256(data).hexdigest(), attempted=runs,
        failed=len(failures) or (runs if problems else 0), problems=problems,
    )
