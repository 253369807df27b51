"""End-to-end and per-layer benchmark of the moeeqi sequential-design loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 50 --trace 0

``--workload`` is ``protocol``, ``dense_select``, ``study`` or ``all`` (each
workload in its own fresh process). The run executes its units one at a time
(closed loop, one process), checks the outputs, prints a report and, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` installs span wrappers around the package
modules and gives the per-layer metrics instead. Files go to
``perfbench/out/``. The exit code is nonzero when any correctness check
fails. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Single-threaded BLAS unless the caller says otherwise: on these matrix sizes
# two OpenBLAS threads make a loop slower and its timing noisier. Set before
# numpy loads; the setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import moeeqi
    import spans
    from workloads import (
        STUDY_VARIANTS, WORKLOADS, FirstCall, Simulator, UnitResult, injected_simulator,
        loop_problem, loop_seed, run_loop, run_study, study_args, truth_front,
    )
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {SRC}: {exc}")
if Path(moeeqi.__file__).resolve().parent != (SRC / "moeeqi").resolve():
    sys.exit(f"perfbench: moeeqi was imported from {moeeqi.__file__}, not from {SRC}")

END_TO_END = {
    "setup_s": "s",
    "step_s.p50": "s",
    "step_s.p90": "s",
    "loop_s.p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gp.fit_s": "s",
    "gp.fit_calls": "count",
    "gp.fit_nfev": "count",
    "gp.fit_nfev_per_fit": "count",
    "gp.posterior_s": "s",
    "gp.posterior_points": "count",
    "gp.posterior_points_per_s": "1/s",
    "pareto.scores_s": "s",
    "pareto.scores_points": "count",
    "pareto.front_size_mean": "count",
    "pareto.build_front_s": "s",
    "problems.initial_design_s": "s",
    "problems.oracle_front_s": "s",
    "problems.simulate_s": "s",
    "acquisition.merge_calls": "count",
    "acquisition.replicate_frac": "fraction",
    "optimizer.self_s": "s",
    "optimizer.fallback_frac": "fraction",
    "cli.self_s": "s",
    "trace.traced_unit_s": "s",
    "trace.untraced_unit_s": "s",
    "trace.overhead_frac": "fraction",
    "quality.front_dist": "1",
}
SETUP_PROBES = 5
MAX_UNITS = 99  # keeps loop seeds of neighbouring workload seeds apart


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import scipy

    def blas_version(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def probe_setup(wl, seed: int) -> float:
    """Set the workload up as a user would and return the clock reading at
    the first simulator call (the set-up itself is abandoned there)."""
    sim = Simulator(abort=True)
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        if wl.is_study:
            with injected_simulator(sim), contextlib.redirect_stdout(io.StringIO()):
                moeeqi.cli.main(study_args(wl, seed, workdir))
        else:
            moeeqi.run(loop_problem(sim), wl.config(seed))
    except FirstCall as stop:
        return stop.args[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raise RuntimeError("the simulator was never called")


def measure_setup(name: str, seed: int, n: int) -> list:
    """Set-up time of ``n`` fresh processes: from before the process starts
    (interpreter, imports, problem, grid, truth front on ``study``) to the
    first simulator call. Both ends read the same system-wide monotonic clock."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _unit(wl, k: int, seed: int, truth, sim: Simulator) -> UnitResult:
    try:
        if wl.is_study:
            return run_study(wl, seed, OUT / f"work-{os.getpid()}-{k}", sim)
        return run_loop(wl, seed, truth, sim)
    except Exception as exc:  # noqa: BLE001 - a failing unit is counted, not fatal
        runs = STUDY_VARIANTS * wl.replicates if wl.is_study else 1
        return UnitResult(seed, float("nan"), [], float("nan"), "", runs, runs,
                          [f"{type(exc).__name__}: {exc}"])


def run_workload(wl, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its metrics, samples and gate.

    A tiny unit of the same kind runs first, as the warm-up, and again last:
    a loop seed repeated within one invocation must give the same digest.
    The timed units between them use distinct seeds.
    """
    sim = Simulator()
    truth = None if wl.is_study else truth_front(wl.truth_resolution)
    tiny = wl.tiny()
    first = _unit(tiny, 0, loop_seed(seed, 0), truth, sim)
    repeats = []
    tracer = None
    if trace:
        # A fixed plan, so that counts repeat exactly for a seed: unit 0
        # untraced as the overhead reference, then the distinct seeds traced.
        reference = _unit(wl, 0, loop_seed(seed, 0), truth, sim)
        tracer = spans.Tracer()
        sim.tracer = tracer
        tracer.install()
        try:
            timed = []
            for k in range(wl.traced_units(seconds)):
                tracer.loop = k
                timed.append(_unit(wl, k, loop_seed(seed, k), truth, sim))
        finally:
            tracer.uninstall()
            sim.tracer = None
        repeats.append((reference, timed[0]))
    else:
        # Time-boxed: another seed while it still fits in ``seconds``.
        start = time.perf_counter()
        timed = []
        while len(timed) < MAX_UNITS:
            timed.append(_unit(wl, len(timed), loop_seed(seed, len(timed)), truth, sim))
            elapsed = time.perf_counter() - start
            if elapsed * (len(timed) + 1) / len(timed) > seconds:
                break
    last = _unit(tiny, 0, loop_seed(seed, 0), truth, sim)
    repeats.append((first, last))

    ran = [first, last] + timed + ([reference] if trace else [])
    problems = [f"seed {u.seed}: {p}" for u in ran for p in u.problems]
    for a, b in repeats:
        if a.digest != b.digest:
            problems.append(f"seed {a.seed} repeated with a different digest")
    if sim.wrappers_seen and not trace:
        problems.append(f"wrappers installed in an untraced run: {sorted(sim.wrappers_seen)}")
    attempted = sum(u.attempted for u in ran)
    failed = sum(u.failed for u in ran)
    if problems and not failed:
        failed = last.attempted  # a digest mismatch fails the repeated unit
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "unit_seeds": [u.seed for u in timed], "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "front_dist": front_dist(timed),
        "wrappers_seen": sorted(sim.wrappers_seen),
        "units": [{"seed": u.seed, "wall_s": u.wall_s, "front_dist": u.front_dist,
                   "digest": u.digest} for u in timed],
    }
    if trace:
        result.update(layer_metrics(tracer, timed, reference))
    else:
        result.update(end_to_end(wl, seed, timed, probes))
    return result


def front_dist(units: list) -> float:
    """Mean distance of the final fronts to the truth front over the timed
    units; deterministic for a seed set."""
    return statistics.fmean(u.front_dist for u in units)


def end_to_end(wl, seed: int, units: list, probes: int) -> dict:
    """Each timing is summarized per unit first and then as the median over
    the units of the run, so a slow spell of the host that covers a minority
    of the units leaves the figure unchanged."""
    setup = measure_setup(wl.name, seed, probes) if probes else []
    timed = [u for u in units if u.steps]

    def per_unit(q):
        if not timed:
            return float("nan")
        return statistics.median(float(np.percentile(u.steps, q)) for u in timed)

    n_steps = sum(len(u.steps) for u in timed)
    values = {
        "setup_s": (statistics.median(setup) if setup else float("nan"), len(setup)),
        "step_s.p50": (per_unit(50), n_steps),
        "step_s.p90": (per_unit(90), n_steps),
        "loop_s.p50": (statistics.median(u.wall_s for u in units), len(units)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()},
        "samples": {k: n for k, (_, n) in values.items()},
        "setup_samples_s": setup,
    }


def layer_metrics(tracer, units: list, reference: UnitResult) -> dict:
    n = len(units)
    st = tracer.self_times()
    calls = tracer.call_counts()
    c = tracer.counts

    def t(*names):
        return sum(st.get(x, 0.0) for x in names) / n

    fit_calls = calls.get("gp.fit_hyperparameters", 0)
    posterior_s = st.get("gp.posterior", 0.0)
    traced_s = statistics.median(u.wall_s for u in units)
    span_cost = spans.wrapper_cost()
    overhead_frac = len(tracer.spans) / n * span_cost / traced_s
    steps = c.get("optimizer.steps", 0)
    values = {
        "gp.fit_s": t("gp.emulator_fit", "gp.fit_hyperparameters"),
        "gp.fit_calls": fit_calls / n,
        "gp.fit_nfev": c.get("gp.fit_nfev", 0) / n,
        "gp.fit_nfev_per_fit": c.get("gp.fit_nfev", 0) / max(fit_calls, 1),
        "gp.posterior_s": t("gp.posterior"),
        "gp.posterior_points": c.get("gp.posterior_points", 0) / n,
        "gp.posterior_points_per_s": c.get("gp.posterior_points", 0) / posterior_s if posterior_s else 0.0,
        "pareto.scores_s": t("pareto.scores"),
        "pareto.scores_points": c.get("pareto.scores_points", 0) / n,
        "pareto.front_size_mean": c.get("pareto.front_size_sum", 0) / max(c.get("pareto.scores_calls", 0), 1),
        "pareto.build_front_s": t("pareto.build_front"),
        "problems.initial_design_s": t("problems.initial_design"),
        "problems.oracle_front_s": t("problems.oracle_front"),
        "problems.simulate_s": t("problems.simulate", "problems.evaluator"),
        "acquisition.merge_calls": c.get("acquisition.merge_calls", 0) / n,
        "acquisition.replicate_frac": c.get("optimizer.replicate_steps", 0) / max(steps, 1),
        "optimizer.self_s": t("optimizer.run"),
        "optimizer.fallback_frac": c.get("optimizer.fallback_steps", 0) / max(steps, 1),
        "cli.self_s": t("cli"),
        "trace.traced_unit_s": traced_s,
        "trace.untraced_unit_s": reference.wall_s,
        "trace.overhead_frac": overhead_frac,
        "quality.front_dist": front_dist(units),
    }
    total = sum(st.values())
    table = [f"{'span':28s} {'self_s/unit':>12s} {'share':>7s} {'calls/unit':>11s}"]
    for name in sorted(st, key=st.get, reverse=True):
        table.append(f"{name:28s} {st[name] / n:12.4f} {st[name] / total:7.1%} {calls[name] / n:11.1f}")
    table += [
        f"traced total {total / n:.4f} s/unit over {n} units",
        f"gp.fit_nfev_per_fit = {c.get('gp.fit_nfev', 0)} likelihood evaluations / {fit_calls} fits",
        f"gp.posterior_points_per_s = {c.get('gp.posterior_points', 0)} points / {posterior_s:.4f} s",
        f"pareto.front_size_mean = {c.get('pareto.front_size_sum', 0)} front points / "
        f"{c.get('pareto.scores_calls', 0)} scoring calls",
        f"acquisition.replicate_frac = {c.get('optimizer.replicate_steps', 0)} replicate steps / {steps} steps",
        f"optimizer.fallback_frac = {c.get('optimizer.fallback_steps', 0)} fallback steps / {steps} steps",
        f"trace.overhead_frac = {len(tracer.spans) / n:.0f} spans/unit x {span_cost * 1e6:.2f} us "
        f"/ {traced_s:.4f} s per traced unit",
        f"traced minus untraced, seed {reference.seed}: {units[0].wall_s - reference.wall_s:+.4f} s "
        f"(one pair, within machine noise)",
    ]
    return {
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()},
        "samples": {k: n for k in values},
        "layer_table": table,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def result_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def report(result: dict, env: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"units {len(result['units'])} (seeds {result['unit_seeds']})")
    print("environment " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:8s} n={result['samples'][name]}")
    if not result["trace"]:
        print(f"  {'front_dist':28s} {result['front_dist']:14.6g} {'1':8s} "
              f"n={len(result['unit_seeds'])}")
    print(f"  {'failed_frac':28s} {result['failed_frac']:14.6g} {'fraction':8s} "
          f"n={result['attempted']}")
    for line in result.get("layer_table", []):
        print("  " + line)
    for line in result["problems"]:
        print("  FAILED " + line)


def save(result: dict, env: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"spans-{stem}.jsonl")
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, "environment": env}, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1,
                                                    "metrics": {}}
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        print(repr(probe_setup(wl, args.seed)))
        return 0
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    env = environment()
    report(result, env)
    save(result, env)
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
