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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .optimizer import RunConfig, RunState, front_metrics, pinned_bounds, run
from .pareto import ParetoFront
from .problems import ProblemSchemaError, load_problem, oracle_front

_PENALTY_FACTORS = (5.0, 10.0)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ProblemSchemaError(f"missing field '{key}'")
    return doc[key]


def load_config(source) -> tuple[RunConfig, dict]:
    """Parse a config document into a RunConfig plus study-level options."""
    if isinstance(source, dict):
        doc = dict(source)
    else:
        try:
            doc = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ProblemSchemaError(f"config is not valid JSON: {exc}") from exc
    study = {
        "study_betas": doc.pop("study_betas", None),
        "truth_resolution": int(doc.pop("truth_resolution", 500)),
    }
    kwargs = {
        "beta": float(_require(doc, "beta")),
        "n_mc": int(_require(doc, "n_mc")),
        "n_iter": int(_require(doc, "n_iter")),
    }
    for key, cast in [
        ("grid_resolution", int),
        ("initial_design_size", int),
        ("seed", int),
        ("comparator", str),
        ("refit_hyperparameters", bool),
        ("literal_constraint_formula", bool),
        ("fit_restarts", int),
        ("min_score", float),
    ]:
        if key in doc and doc[key] is not None:
            kwargs[key] = cast(doc[key])
    if doc.get("mode_schedule") is not None:
        kwargs["mode_schedule"] = tuple((str(m), int(c)) for m, c in doc["mode_schedule"])
    if doc.get("fixed_coords") is not None:
        kwargs["fixed_coords"] = {int(k): float(v) for k, v in doc["fixed_coords"].items()}
    try:
        config = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProblemSchemaError(f"invalid config: {exc}") from exc
    if study["study_betas"] is not None:
        study["study_betas"] = [float(b) for b in study["study_betas"]]
    return config, study


def _resolve_seed(config: RunConfig, cli_seed) -> RunConfig:
    seed = config.seed
    env_seed = os.environ.get("MOEEQI_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    if cli_seed is not None:
        seed = int(cli_seed)
    config.seed = seed
    return config


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
    problem = load_problem(args.problem)
    config, _ = load_config(args.config)
    config = _resolve_seed(config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    state = run(problem, config)
    _write_run_artifacts(state, out_dir, time.perf_counter() - t0)
    print(
        f"run complete: {len(state.datasets[0])} observations, "
        f"front size {len(state.front)}, artifacts in {out_dir}"
    )
    return 0


def cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    if args.resolution < 2:
        raise ProblemSchemaError("field 'resolution' must be at least 2")
    front = oracle_front(problem, args.resolution)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_front_csv(out, front, problem.dim)
    print(f"oracle front with {len(front)} points written to {out}")
    return 0


def _study_variants(config: RunConfig, study: dict) -> list:
    betas = study["study_betas"] or [config.beta]
    variants = [("moeeqi", float(b)) for b in betas]
    variants.append(("moeei", 0.5))
    return variants


def cmd_study(args) -> int:
    problem = load_problem(args.problem)
    config, study = load_config(args.config)
    config = _resolve_seed(config, args.seed)
    if args.replicates < 1:
        raise ProblemSchemaError("field 'replicates' must be at least 1")
    pinned_bounds(problem, config.fixed_coords)  # fail before the truth front, not per replicate
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = oracle_front(problem, study["truth_resolution"])

    rows = []
    failures = []
    for comparator, beta in _study_variants(config, study):
        for rep in range(args.replicates):
            cfg = RunConfig(
                **{
                    **asdict(config),
                    "beta": beta,
                    "comparator": comparator,
                    "seed": config.seed + rep,
                    "mode_schedule": config.mode_schedule,
                }
            )
            try:
                state = run(problem, cfg)
            except Exception as exc:  # noqa: BLE001 - study keeps going per replicate
                failures.append({"comparator": comparator, "beta": beta, "replicate": rep, "error": str(exc)})
                continue
            for rec in state.history:
                mean_dist, penalized, size = front_metrics(rec.front, truth, _PENALTY_FACTORS)
                rows.append(
                    [comparator, _fmt(beta), str(rep), str(rec.iteration), _fmt(mean_dist),
                     _fmt(penalized[5.0]), _fmt(penalized[10.0]), str(size), _fmt(rec.score)]
                )
    _write_csv(
        out_dir / "metrics.csv",
        ["comparator", "beta", "replicate", "iteration", "mean_distance",
         "penalized_5", "penalized_10", "front_size", "score"],
        rows,
    )
    _write_study_summary(out_dir, rows)
    meta = {
        "seed": config.seed,
        "replicates": args.replicates,
        "config": _config_echo(config),
        "problem": problem.name,
        "version": __version__,
        "failures": failures,
    }
    (out_dir / "study_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    total = args.replicates * len(_study_variants(config, study))
    if failures:
        print(f"study finished with {len(failures)}/{total} failed replicates", file=sys.stderr)
        if len(failures) == total:
            return 1
    print(f"study complete: {len(rows)} metric rows in {out_dir}")
    return 0


def _write_study_summary(out_dir: Path, rows: list) -> None:
    """Per-iteration mean and 5%/95% bands across replicates for each variant."""
    groups = {}
    for row in rows:
        key = (row[0], row[1], row[3])
        groups.setdefault(key, []).append((float(row[4]), int(row[7]), float(row[8])))
    out = []
    for (comparator, beta, iteration), vals in sorted(
        groups.items(), key=lambda kv: (kv[0][0], float(kv[0][1]), int(kv[0][2]))
    ):
        dist = np.array([v[0] for v in vals])
        size = np.array([v[1] for v in vals], dtype=float)
        score = np.array([v[2] for v in vals])
        out.append(
            [comparator, beta, iteration,
             _fmt(np.nanmean(dist)), _fmt(np.nanpercentile(dist, 5)), _fmt(np.nanpercentile(dist, 95)),
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
