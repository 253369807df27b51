"""Sequential design loop for bi-objective optimization over a candidate grid.

Each iteration rebuilds the quantile-based Pareto front at the current design
locations, picks the grid candidate of largest Euclidean expected quantile
improvement under a conservative future-noise assumption (scoring exactly
only the candidates whose upper bound can reach the best score), evaluates
it with a fresh Monte Carlo batch, and either adds it as a new design point
or pools it into an existing one. A plug-in comparator that estimates
the front from posterior means and ignores future noise is available for
benchmarking, as are distance-to-truth metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acquisition import future_noise, merge_replicate, quantile_posterior_arrays
from .gp import (GpDataset, GpEmulator, NoisyObservation, real_number, std_normal_quantile,
                 whole_number)
from .pareto import (ImprovementMode, ParetoFront, _score_bounds, build_front, feasible_mask,
                     moeeqi_scores)
from .problems import (
    ProblemSchemaError,
    ProblemSpec,
    candidate_axes,
    candidate_grid,
    initial_design,
    mc_aggregate,  # noqa: F401 - bound here only so benchmark tracing can find it
    sample_environment,
)

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunState",
    "Metrics",
    "run",
    "select_next",
    "evaluate_metrics",
    "front_metrics",
    "pinned_bounds",
]

_COMPARATORS = ("moeeqi", "moeei")
_PENALTY_FACTORS = (5.0, 10.0)  # distance multipliers for overestimating front points
_SEED_CANDIDATES = 64  # exactly scored to set the pruning threshold of a selection


@dataclass
class RunConfig:
    """Settings for one optimization run; see README for field meanings.

    Construction checks every field's type and range and raises a ValueError
    that names the field; whole-number fields store a whole float as an int.
    """

    beta: float = 0.7
    n_mc: int = 10
    n_iter: int = 9
    grid_resolution: int = 100
    initial_design_size: int = 5
    seed: int = 0
    mode_schedule: tuple = None  # ((mode, count), ...); default all-aggressive
    comparator: str = "moeeqi"
    refit_hyperparameters: bool = True
    literal_constraint_formula: bool = False
    min_score: float = None  # optional early-stop threshold on the best score
    fixed_coords: dict = None  # {coordinate index: frozen value}

    def __post_init__(self):
        if not 0.5 <= real_number(self.beta, "beta") < 1.0:
            raise ValueError(f"beta must lie in [0.5, 1), got {self.beta}")
        for name, minimum in [("n_mc", 2), ("n_iter", 0), ("grid_resolution", 2),
                              ("initial_design_size", 2), ("seed", 0)]:
            setattr(self, name, whole_number(getattr(self, name), name, minimum))
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}, got {self.comparator!r}")
        for name in ("refit_hyperparameters", "literal_constraint_formula"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.min_score is not None and math.isnan(real_number(self.min_score, "min_score")):
            raise ValueError("min_score must be a number or null, got NaN")
        if self.mode_schedule is None:
            self.mode_schedule = ((ImprovementMode.AGGRESSIVE, self.n_iter),)
        try:
            self.mode_schedule = tuple(
                (ImprovementMode(mode), whole_number(count, "count", 0))
                for mode, count in self.mode_schedule
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"mode_schedule must hold (mode, count) pairs: {exc}") from exc
        if sum(c for _, c in self.mode_schedule) != self.n_iter:
            raise ValueError("mode_schedule counts must sum to n_iter")
        if self.fixed_coords is not None:
            try:
                self.fixed_coords = {whole_number(k, "coordinate"): real_number(v, "value")
                                     for k, v in dict(self.fixed_coords).items()}
            except (TypeError, ValueError) as exc:
                raise ValueError(f"fixed_coords must map coordinates to values: {exc}") from exc

    def iteration_modes(self) -> list:
        modes = []
        for mode, count in self.mode_schedule:
            modes.extend([mode] * count)
        return modes


@dataclass
class IterationRecord:
    """One sequential-design step: the chosen point, its score, and the front
    after incorporating the new batch."""

    iteration: int
    point: np.ndarray
    score: float
    mode: ImprovementMode
    replicate: bool
    fallback: bool
    front: ParetoFront


@dataclass
class RunState:
    """Everything produced by a run: aligned per-objective datasets, fitted
    emulators, the per-iteration history, and the final quantile front."""

    problem: ProblemSpec
    config: RunConfig
    datasets: tuple
    emulators: tuple
    iteration: int
    initial_front: ParetoFront
    front: ParetoFront
    history: list = field(default_factory=list)
    stopped_early: bool = False


@dataclass
class Metrics:
    """Distance-to-truth summary of a front plus the run's score trace."""

    mean_distance: float
    penalized: dict
    front_size: int
    moeeqi_trace: list


# ---------------------------------------------------------------------------
# Scoring pipeline
# ---------------------------------------------------------------------------


def _criterion(state: "RunState") -> tuple:
    """The comparator's quantile level and per-objective future noise: the
    configured beta and the conservative future noise for moeeqi; for the
    plug-in moeei, posterior means (beta one half) and an exact observation."""
    if state.config.comparator == "moeeqi":
        return state.config.beta, future_noise(state.datasets)
    return 0.5, [0.0, 0.0]


def _quantiles(state: "RunState", X: np.ndarray, axes=None) -> tuple:
    """The comparator's beta, each objective's posterior ``(mean, variance)``
    at ``X`` and the one-step-ahead quantile means and sds, all (n, 2) arrays;
    a quantile that is not finite is a ValueError naming the objective.
    ``axes``, when given, are the per-coordinate values whose product is
    ``X`` (see ``GpEmulator.posterior``)."""
    beta, sigma2_future = _criterion(state)
    m, s2 = np.stack([em.posterior(X, axes=axes) for em in state.emulators], axis=-1)
    mq, sq = quantile_posterior_arrays(m, s2, np.array(sigma2_future), beta)
    if not (np.isfinite(mq).all() and np.isfinite(sq).all()):
        bad = ~(np.isfinite(mq) & np.isfinite(sq))
        i = int(np.argmax(bad.any(axis=0)))
        raise ValueError(f"objective {i + 1}: the quantile posterior is not finite at "
                         f"{np.count_nonzero(bad[:, i])} of {len(X)} points; rescale the objective")
    return beta, (m, s2), mq, sq


def _design_front(state: "RunState") -> ParetoFront:
    """Front of current-emulator quantiles at the design locations, with the
    noise-adjusted constraint filter applied."""
    locations = state.datasets[0].locations()
    beta, (m, s2), _, sd = _quantiles(state, locations)
    quantiles = m + float(std_normal_quantile(beta)) * np.sqrt(s2)
    keep = feasible_mask(quantiles, sd, state.problem.constraints, beta,
                         state.config.literal_constraint_formula)
    return build_front(quantiles[keep], locations[keep])


def _select(state: "RunState", front: ParetoFront, grid: np.ndarray, mode: ImprovementMode,
            axes=None):
    """Argmax of the criterion over the grid against the design-location
    ``front``, first on ties; ``axes`` are the grid's per-coordinate values
    when it is a lattice (see ``_quantiles``). Candidates failing the
    constraint filter are not scored; when no candidate scores above zero,
    the point of largest summed posterior variance is taken instead.
    Returns (point, score, fallback).

    Only candidates whose score bound reaches the best exact score among the
    ``_SEED_CANDIDATES`` largest bounds are scored. The bound holds for the
    computed scores, rounding included, so the result equals the full
    argmax."""
    beta, (_, s2), mq, sq = _quantiles(state, grid, axes)
    rows = np.flatnonzero(feasible_mask(mq, sq, state.problem.constraints, beta,
                                        state.config.literal_constraint_formula))
    if len(front) > 0 and rows.size > 0:
        cols = (mq[rows, 0], sq[rows, 0], mq[rows, 1], sq[rows, 1])
        bound = _score_bounds(front, *cols, mode)
        lead = np.argpartition(bound, -min(_SEED_CANDIDATES, bound.size))[-_SEED_CANDIDATES:]
        best = np.max(moeeqi_scores(front, *(c[lead] for c in cols), mode))
        live = np.flatnonzero(bound >= best)
        scores = moeeqi_scores(front, *(c[live] for c in cols), mode)
        top = int(np.argmax(scores))
        if scores[top] > 0.0:
            return grid[rows[live[top]]], float(scores[top]), False
    return grid[int(np.argmax(s2[:, 0] + s2[:, 1]))], 0.0, True


def select_next(state: RunState, grid: np.ndarray, mode: ImprovementMode):
    """Grid point maximizing the criterion of the state's comparator (see
    ``_criterion``). Lexicographically first on ties; falls back to the
    maximum-variance point when every candidate scores zero.
    """
    point, score, _ = _select(state, _design_front(state), grid, mode)
    return point, score


# ---------------------------------------------------------------------------
# The sequential-design loop
# ---------------------------------------------------------------------------


def pinned_bounds(problem: ProblemSpec, fixed_coords) -> np.ndarray:
    """Control bounds with each ``fixed_coords`` coordinate pinned to its
    value; a key outside the problem's coordinates, a value outside the
    control range, or pins that leave no coordinate free (every design point
    would be one location) is a ``ProblemSchemaError``."""
    bounds = problem.control_bounds.copy()
    for k, value in (fixed_coords or {}).items():
        if k not in range(problem.dim):
            raise ProblemSchemaError(
                f"field 'fixed_coords' names coordinate {k!r}, but the problem has "
                f"coordinates 0..{problem.dim - 1}"
            )
        lo, hi = bounds[k]
        if not lo <= value <= hi:
            raise ProblemSchemaError(
                f"field 'fixed_coords' pins coordinate {k} to {value}, outside its "
                f"control range [{lo}, {hi}]"
            )
        bounds[k] = (value, value)
    if np.all(bounds[:, 0] == bounds[:, 1]):
        raise ProblemSchemaError(
            f"field 'fixed_coords' pins all {problem.dim} coordinates; leave at least one free")
    return bounds


def _fit_emulators(datasets, problem, rng, warm=None):
    return tuple(
        GpEmulator.fit(ds, control_bounds=problem.control_bounds, rng=int(rng.integers(2**31 - 1)),
                       warm_start=None if warm is None else warm[i])
        for i, ds in enumerate(datasets)
    )


def run(problem: ProblemSpec, config: RunConfig) -> RunState:
    """Execute the full sequential-design loop and return the final state.

    Starts from a space-filling design evaluated on a shared batch of
    environmental draws, then iterates: rebuild the quantile front, score the
    grid, evaluate the winning point on fresh draws, and merge it into the
    design (pooling when the point repeats an existing location). Emulators
    are refit each iteration unless frozen in the config. Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    bounds = pinned_bounds(problem, config.fixed_coords)
    axes = candidate_axes(bounds, config.grid_resolution)
    grid = candidate_grid(bounds, config.grid_resolution)

    design = initial_design(config.initial_design_size, bounds, rng)
    env0 = sample_environment(problem.env, config.n_mc, rng)
    batches = [problem.evaluate_mc(xc, config.n_mc, rng, draws=env0) for xc in design]
    datasets = tuple(
        GpDataset([NoisyObservation(xc, b.means[i], b.variances[i]) for xc, b in zip(design, batches)])
        for i in range(2)
    )
    state = RunState(
        problem=problem,
        config=config,
        datasets=datasets,
        emulators=_fit_emulators(datasets, problem, rng),
        iteration=0,
        initial_front=None,
        front=None,
    )
    # The design front that ends one iteration starts the next.
    state.initial_front = state.front = _design_front(state)

    for it, mode in enumerate(config.iteration_modes(), start=1):
        point, score, fallback = _select(state, state.front, grid, mode, axes)
        if config.min_score is not None and not fallback and score < config.min_score:
            state.stopped_early = True
            break

        batch = problem.evaluate_mc(point, config.n_mc, rng)
        existing = state.datasets[0].index_of(point)
        folded = []
        for i, ds in enumerate(state.datasets):
            obs = list(ds)
            if existing is None:
                obs.append(NoisyObservation(point, batch.means[i], batch.variances[i]))
            else:
                obs[existing] = merge_replicate(obs[existing], batch.means[i], batch.variances[i], config.n_mc)
            folded.append(GpDataset(obs))
        state.datasets = tuple(folded)
        if config.refit_hyperparameters:
            state.emulators = _fit_emulators(
                state.datasets, problem, rng, warm=[em.params for em in state.emulators]
            )
        else:
            state.emulators = tuple(
                GpEmulator(ds, em.params, control_bounds=problem.control_bounds)
                for ds, em in zip(state.datasets, state.emulators)
            )
        state.front = _design_front(state)
        state.iteration = it
        state.history.append(
            IterationRecord(
                iteration=it,
                point=np.array(point, dtype=float),
                score=score,
                mode=mode,
                replicate=existing is not None,
                fallback=fallback,
                front=state.front,
            )
        )
    return state


# ---------------------------------------------------------------------------
# Metrics against a reference front
# ---------------------------------------------------------------------------


def front_metrics(front: ParetoFront, truth: ParetoFront):
    """Mean distance from front points to their nearest truth points, plus
    penalized variants, keyed by factor, that multiply the distance of
    overestimating points (those no truth point dominates or equals) by each
    of ``_PENALTY_FACTORS``."""
    if len(truth) == 0:
        raise ValueError("truth front is empty")
    if len(front) == 0:
        return math.nan, {f: math.nan for f in _PENALTY_FACTORS}, 0
    tq1, tq2 = truth.q1s(), truth.q2s()
    q1, q2 = front.q1s()[:, None], front.q2s()[:, None]
    dists = np.sqrt(np.min((tq1 - q1) ** 2 + (tq2 - q2) ** 2, axis=1))
    # The last truth point with q1 <= the front point's has the least q2 of those.
    idx = np.searchsorted(tq1, q1[:, 0], side="right") - 1
    overs = (idx < 0) | (tq2[np.maximum(idx, 0)] > q2[:, 0])
    penalized = {f: float(np.mean(np.where(overs, f * dists, dists))) for f in _PENALTY_FACTORS}
    return float(np.mean(dists)), penalized, len(front)


def evaluate_metrics(state: RunState, truth: ParetoFront) -> Metrics:
    """Summarize a finished run against a reference front."""
    mean_dist, penalized, size = front_metrics(state.front, truth)
    return Metrics(
        mean_distance=mean_dist,
        penalized=penalized,
        front_size=size,
        moeeqi_trace=[rec.score for rec in state.history],
    )
