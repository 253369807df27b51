"""Command-line front end: single runs, truth-front oracles, and seeded
replicate studies, all emitting CSV/JSON artifacts for external plotting.

Exit codes: 0 success, 1 runtime failure, 2 validation failure. The RNG seed
can be overridden with --seed or the MOEEQI_SEED environment variable
(flag beats env beats config file).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .gp import whole_number
from .optimizer import RunConfig, RunState, front_metrics, pinned_bounds, run
from .pareto import ParetoFront
from .problems import (ProblemSchemaError, load_problem, oracle_front, read_document, read_field,
                       reject_unknown)

def _fmt(x) -> str:
    return format(float(x), ".17g")


def load_config(source) -> tuple[RunConfig, dict]:
    """Parse a config document into a RunConfig plus study-level options.

    RunConfig checks the values; this adds only what is particular to JSON:
    a null field takes its default, ``fixed_coords`` keys are strings, and a
    key that is not a RunConfig field is an error rather than ignored.
    """
    doc = {k: v for k, v in read_document(source, "config").items() if v is not None}
    study = {"study_betas": doc.pop("study_betas", None),
             "truth_resolution": doc.pop("truth_resolution", 500)}
    reject_unknown(doc, {f.name for f in fields(RunConfig)}, "config")
    for key in ("beta", "n_mc", "n_iter"):
        read_field(doc, key)
    if "fixed_coords" in doc:
        doc["fixed_coords"] = read_field(doc, "fixed_coords", lambda fixed: {
            int(k) if isinstance(k, str) else k: v for k, v in dict(fixed).items()})
    try:
        config = RunConfig(**doc)
    except ValueError as exc:
        raise ProblemSchemaError(f"invalid config: {exc}") from exc
    read_field(study, "study_betas", lambda betas: _check_study_betas(config, betas), default=None)
    study["truth_resolution"] = read_field(
        study, "truth_resolution", lambda r: whole_number(r, "truth_resolution", 2))
    return config, study


def _check_study_betas(config: RunConfig, betas) -> None:
    if not betas:
        raise ValueError("expected at least one beta")
    for b in betas:
        replace(config, beta=b)  # RunConfig's own check
    if len(set(betas)) < len(betas):
        raise ValueError("expected distinct betas")


def _resolve_seed(config: RunConfig, cli_seed) -> RunConfig:
    seed = read_field(dict(os.environ), "MOEEQI_SEED", int, default=config.seed)
    try:
        return replace(config, seed=seed if cli_seed is None else cli_seed)
    except ValueError as exc:
        raise ProblemSchemaError(f"invalid seed: {exc}") from exc


def _read(option: str, loader, source):
    """``loader(source)``, with an unreadable file a validation error that
    names the option."""
    try:
        return loader(source)
    except OSError as exc:
        raise ProblemSchemaError(f"{option} {source}: {exc.strerror}") from exc


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProblemSchemaError(f"--out {path}: {exc.strerror}") from exc


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    echo["mode_schedule"] = [[m.value, c] for m, c in config.mode_schedule]
    return echo


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_front_csv(path: Path, front: ParetoFront, dim: int) -> None:
    header = ["q1", "q2"] + [f"x{k}" for k in range(dim)]
    rows = []
    for p in front:
        src = ["" for _ in range(dim)] if p.source is None else [_fmt(v) for v in p.source]
        rows.append([_fmt(p.q1), _fmt(p.q2)] + src)
    _write_csv(path, header, rows)


def _write_run_artifacts(state: RunState, out_dir: Path, wall_time: float) -> None:
    dim = state.problem.dim
    added = [0] * state.config.initial_design_size
    added += [rec.iteration for rec in state.history if not rec.replicate]
    obs_rows = []
    for j, (o1, o2) in enumerate(zip(state.datasets[0], state.datasets[1])):
        obs_rows.append(
            [_fmt(v) for v in o1.location]
            + [_fmt(o1.mean), _fmt(o1.variance), _fmt(o2.mean), _fmt(o2.variance)]
            + [str(o1.replications), str(added[j])]
        )
    _write_csv(
        out_dir / "observations.csv",
        [f"x{k}" for k in range(dim)]
        + ["mean_1", "variance_1", "mean_2", "variance_2", "replications", "iteration_added"],
        obs_rows,
    )
    _write_front_csv(out_dir / "front.csv", state.front, dim)
    _write_csv(
        out_dir / "evolution.csv",
        ["iteration", "score", "mode", "replicate", "fallback"],
        [
            [str(r.iteration), _fmt(r.score), r.mode.value, str(int(r.replicate)), str(int(r.fallback))]
            for r in state.history
        ],
    )
    meta = {
        "seed": state.config.seed,
        "config": _config_echo(state.config),
        "problem": state.problem.name,
        "version": __version__,
        "wall_time_s": wall_time,
        "n_observations": len(state.datasets[0]),
        "stopped_early": state.stopped_early,
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    problem = _read("--problem", load_problem, args.problem)
    config, _ = _read("--config", load_config, args.config)
    config = _resolve_seed(config, args.seed)
    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    t0 = time.perf_counter()
    state = run(problem, config)
    _write_run_artifacts(state, out_dir, time.perf_counter() - t0)
    print(
        f"run complete: {len(state.datasets[0])} observations, "
        f"front size {len(state.front)}, artifacts in {out_dir}"
    )
    return 0


def cmd_oracle(args) -> int:
    problem = _read("--problem", load_problem, args.problem)
    if args.resolution < 2:
        raise ProblemSchemaError("field 'resolution' must be at least 2")
    out = Path(args.out)
    if out.is_dir():
        raise ProblemSchemaError(f"--out {out}: Is a directory")
    _make_out_dir(out.parent)
    front = oracle_front(problem, args.resolution)
    _write_front_csv(out, front, problem.dim)
    print(f"oracle front with {len(front)} points written to {out}")
    return 0


def _study_variants(config: RunConfig, study: dict) -> list:
    """(comparator, beta, RunConfig) per study variant."""
    betas = [config.beta] if study["study_betas"] is None else study["study_betas"]
    variants = [("moeeqi", b, replace(config, beta=b, comparator="moeeqi")) for b in betas]
    variants.append(("moeei", 0.5, replace(config, beta=0.5, comparator="moeei")))
    return variants


def cmd_study(args) -> int:
    problem = _read("--problem", load_problem, args.problem)
    config, study = _read("--config", load_config, args.config)
    config = _resolve_seed(config, args.seed)
    if args.replicates < 1:
        raise ProblemSchemaError("field 'replicates' must be at least 1")
    pinned_bounds(problem, config.fixed_coords)  # fail before the truth front, not per replicate
    variants = _study_variants(config, study)
    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    truth = oracle_front(problem, study["truth_resolution"])

    records = []
    failures = []
    for comparator, beta, variant in variants:
        for rep in range(args.replicates):
            try:
                state = run(problem, replace(variant, seed=config.seed + rep))
            except Exception as exc:  # noqa: BLE001 - study keeps going per replicate
                failures.append({"comparator": comparator, "beta": beta, "replicate": rep,
                                 "type": type(exc).__name__, "error": str(exc)})
                continue
            for rec in state.history:
                mean_dist, penalized, size = front_metrics(rec.front, truth)
                records.append((comparator, beta, rep, rec.iteration, mean_dist,
                                penalized[5.0], penalized[10.0], size, rec.score))
    _write_csv(
        out_dir / "metrics.csv",
        ["comparator", "beta", "replicate", "iteration", "mean_distance",
         "penalized_5", "penalized_10", "front_size", "score"],
        [[c, _fmt(b), str(r), str(it), _fmt(d), _fmt(p5), _fmt(p10), str(n), _fmt(sc)]
         for c, b, r, it, d, p5, p10, n, sc in records],
    )
    _write_study_summary(out_dir, records)
    meta = {
        "seed": config.seed,
        "replicates": args.replicates,
        "config": _config_echo(config),
        "problem": problem.name,
        "version": __version__,
        "failures": failures,
    }
    (out_dir / "study_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    total = args.replicates * len(variants)
    if failures:
        print(f"study finished with {len(failures)}/{total} failed replicates", file=sys.stderr)
        if len(failures) == total:
            return 1
    print(f"study complete: {len(records)} metric rows in {out_dir}")
    return 0


def _write_study_summary(out_dir: Path, records: list) -> None:
    """Per-iteration mean and 5%/95% bands across replicates for each variant;
    the distance cells skip the replicates with an empty front (a nan
    distance), and are nan when every replicate's front is empty."""
    groups = {}
    for comparator, beta, _, iteration, dist, _, _, size, score in records:
        groups.setdefault((comparator, beta, iteration), []).append((dist, size, score))
    out = []
    for (comparator, beta, iteration), vals in sorted(groups.items()):
        dist, size, score = np.array(vals, dtype=float).T
        if np.isnan(dist).all():  # numpy's nan-functions would warn on an all-nan slice
            dist_cells = [np.nan] * 3
        else:
            dist_cells = [np.nanmean(dist), np.nanpercentile(dist, 5), np.nanpercentile(dist, 95)]
        out.append(
            [comparator, _fmt(beta), str(iteration), *map(_fmt, dist_cells),
             _fmt(size.mean()), _fmt(np.percentile(size, 5)), _fmt(np.percentile(size, 95)),
             _fmt(score.mean())]
        )
    _write_csv(
        out_dir / "summary.csv",
        ["comparator", "beta", "iteration",
         "mean_distance_mean", "mean_distance_p05", "mean_distance_p95",
         "front_size_mean", "front_size_p05", "front_size_p95", "score_mean"],
        out,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moeeqi",
        description="Multi-objective Bayesian optimization of noisy Monte Carlo objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one optimization run")
    p_run.add_argument("--problem", required=True, help="problem JSON document")
    p_run.add_argument("--config", required=True, help="run config JSON document")
    p_run.add_argument("--out", required=True, help="output directory for artifacts")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="write the noise-free reference front")
    p_oracle.add_argument("--problem", required=True)
    p_oracle.add_argument("--resolution", type=int, required=True, help="grid points per dimension")
    p_oracle.add_argument("--out", required=True, help="output CSV path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_study = sub.add_parser("study", help="seeded replicate study with per-iteration metrics")
    p_study.add_argument("--problem", required=True)
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--replicates", type=int, required=True)
    p_study.add_argument("--out", required=True)
    p_study.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemSchemaError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
