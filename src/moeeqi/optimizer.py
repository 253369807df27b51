"""Sequential design loop for bi-objective optimization over a candidate grid.

Each iteration rebuilds the quantile-based Pareto front at the current design
locations, scores every grid candidate with the Euclidean expected quantile
improvement under a conservative future-noise assumption, evaluates the best
candidate with a fresh Monte Carlo batch, and either adds it as a new design
point or pools it into an existing one. A plug-in comparator that estimates
the front from posterior means and ignores future noise is available for
benchmarking, as are distance-to-truth metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acquisition import future_noise, merge_replicate, quantile_posterior_arrays
from .gp import GpDataset, GpEmulator, NoisyObservation, std_normal_quantile
from .pareto import (
    FrontPoint,
    ImprovementMode,
    ParetoFront,
    build_front,
    feasible_mask,
    moeeqi_scores,
)
from .problems import (
    ProblemSchemaError,
    ProblemSpec,
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
    "moeei_select",
    "evaluate_metrics",
    "front_metrics",
    "pinned_bounds",
]

_COMPARATORS = ("moeeqi", "moeei")


@dataclass
class RunConfig:
    """Settings for one optimization run; see README for field meanings."""

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
    fit_restarts: int = 3
    min_score: float = None  # optional early-stop threshold on the best score
    fixed_coords: dict = None  # {coordinate index: frozen value}

    def __post_init__(self):
        if not 0.5 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0.5, 1), got {self.beta}")
        if self.n_mc < 2:
            raise ValueError("n_mc must be at least 2")
        if self.n_iter < 0:
            raise ValueError("n_iter must be non-negative")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.initial_design_size < 2:
            raise ValueError("initial_design_size must be at least 2")
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if self.mode_schedule is None:
            self.mode_schedule = ((ImprovementMode.AGGRESSIVE, self.n_iter),)
        schedule = []
        for mode, count in self.mode_schedule:
            if isinstance(mode, str):
                mode = ImprovementMode(mode)
            schedule.append((mode, int(count)))
        self.mode_schedule = tuple(schedule)
        if sum(c for _, c in self.mode_schedule) != self.n_iter:
            raise ValueError("mode schedule counts must sum to n_iter")

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


def _design_front(state: "RunState", beta: float, sigma2_future) -> ParetoFront:
    """Front of current-emulator quantiles at the design locations, with the
    noise-adjusted constraint filter applied."""
    locations = state.datasets[0].locations()
    z = float(std_normal_quantile(beta)) if beta > 0.5 else 0.0
    quantiles = np.empty((locations.shape[0], 2))
    adj_sd = np.empty_like(quantiles)
    for i, em in enumerate(state.emulators):
        m, s2 = em.posterior(locations)
        quantiles[:, i] = m + z * np.sqrt(s2)
        _, adj_sd[:, i] = quantile_posterior_arrays(m, s2, sigma2_future[i], beta)
    points = [
        FrontPoint(float(q1), float(q2), source=locations[j])
        for j, (q1, q2) in enumerate(quantiles)
    ]
    return build_front(
        points, state.problem.constraints, noise_sd=adj_sd, beta=beta,
        literal_formula=state.config.literal_constraint_formula,
    )


def _select(state: "RunState", front: ParetoFront, grid: np.ndarray, mode: ImprovementMode,
            beta: float, sigma2_future):
    """Argmax of the criterion over the grid against the design-location
    ``front``. Candidates failing the constraint filter score zero; when every
    candidate does, the point of largest summed posterior variance is taken
    instead. Returns (point, score, fallback)."""
    mq = np.empty((grid.shape[0], 2))
    sq = np.empty_like(mq)
    var_sum = np.zeros(grid.shape[0])
    for i, em in enumerate(state.emulators):
        m, s2 = em.posterior(grid)
        mq[:, i], sq[:, i] = quantile_posterior_arrays(m, s2, sigma2_future[i], beta)
        var_sum += s2
    if len(front) == 0:
        scores = np.zeros(grid.shape[0])
    else:
        scores = moeeqi_scores(front, mq[:, 0], sq[:, 0], mq[:, 1], sq[:, 1], mode)
    keep = feasible_mask(mq, sq, state.problem.constraints, beta, state.config.literal_constraint_formula)
    scores = np.where(keep, scores, 0.0)
    best = int(np.argmax(scores))
    if scores[best] > 0.0:
        return grid[best], float(scores[best]), False
    return grid[int(np.argmax(var_sum))], 0.0, True


def select_next(state: RunState, grid: np.ndarray, mode: ImprovementMode, beta: float):
    """Grid point maximizing the expected quantile improvement criterion under
    the conservative (maximum observed) future-noise rule. Lexicographically
    first on ties; falls back to the maximum-variance point when every
    candidate scores zero.
    """
    sigma2 = future_noise(state.datasets)
    point, score, _ = _select(state, _design_front(state, beta, sigma2), grid, mode, beta, sigma2)
    return point, score


def moeei_select(state: RunState, grid: np.ndarray, mode: ImprovementMode = ImprovementMode.AGGRESSIVE):
    """Plug-in comparator: front built from posterior means and the future
    observation treated as exact (zero variance), i.e. the same pipeline with
    the quantile level pinned at one half."""
    sigma2 = [0.0, 0.0]
    point, score, _ = _select(state, _design_front(state, 0.5, sigma2), grid, mode, 0.5, sigma2)
    return point, score


# ---------------------------------------------------------------------------
# The sequential-design loop
# ---------------------------------------------------------------------------


def pinned_bounds(problem: ProblemSpec, fixed_coords) -> np.ndarray:
    """Control bounds with each ``fixed_coords`` coordinate pinned to its
    value; a key outside the problem's coordinates or a value outside the
    control range is a ``ProblemSchemaError``."""
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
    return bounds


def _fit_emulators(datasets, problem, config, rng, warm=None):
    # Cold fits get extra restarts; warm-started refits converge quickly.
    restarts = config.fit_restarts if warm else config.fit_restarts + 2
    emulators = []
    for i, ds in enumerate(datasets):
        seed = int(rng.integers(2**31 - 1))
        emulators.append(
            GpEmulator.fit(
                ds,
                control_bounds=problem.control_bounds,
                restarts=restarts,
                rng=seed,
                warm_start=warm[i] if warm else None,
            )
        )
    return tuple(emulators)


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
    future = config.comparator == "moeeqi"
    beta_eff = config.beta if future else 0.5
    grid = candidate_grid(pinned_bounds(problem, config.fixed_coords), config.grid_resolution)

    design = initial_design(config.initial_design_size, problem.control_bounds, rng)
    for k, value in (config.fixed_coords or {}).items():
        design[:, k] = value
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
        emulators=_fit_emulators(datasets, problem, config, rng),
        iteration=0,
        initial_front=None,
        front=None,
    )
    # The design front and future noise that end one iteration start the next.
    sigma2 = future_noise(state.datasets) if future else [0.0, 0.0]
    state.initial_front = state.front = _design_front(state, beta_eff, sigma2)

    for it, mode in enumerate(config.iteration_modes(), start=1):
        point, score, fallback = _select(state, state.front, grid, mode, beta_eff, sigma2)
        if config.min_score is not None and not fallback and score < config.min_score:
            state.stopped_early = True
            break

        batch = problem.evaluate_mc(point, config.n_mc, rng)
        existing = state.datasets[0].index_of(point)
        if existing is None:
            state.datasets = tuple(
                ds.with_observation(NoisyObservation(point, batch.means[i], batch.variances[i]))
                for i, ds in enumerate(state.datasets)
            )
        else:
            state.datasets = tuple(
                ds.with_replaced(
                    existing,
                    merge_replicate(ds[existing], batch.means[i], batch.variances[i], config.n_mc),
                )
                for i, ds in enumerate(state.datasets)
            )
        if config.refit_hyperparameters:
            state.emulators = _fit_emulators(
                state.datasets, problem, config, rng, warm=[em.params for em in state.emulators]
            )
        else:
            state.emulators = tuple(
                GpEmulator(ds, em.params, control_bounds=problem.control_bounds)
                for ds, em in zip(state.datasets, state.emulators)
            )
        sigma2 = future_noise(state.datasets) if future else [0.0, 0.0]
        state.front = _design_front(state, beta_eff, sigma2)
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


def _overestimates(q1: float, q2: float, truth: ParetoFront) -> bool:
    # True when no truth point dominates-or-equals (q1, q2): the point claims
    # objective values on the better side of the attainable front.
    tq1, tq2 = truth.q1s(), truth.q2s()
    idx = int(np.searchsorted(tq1, q1, side="right")) - 1
    return idx < 0 or tq2[idx] > q2


def front_metrics(front: ParetoFront, truth: ParetoFront, penalty_factors=(5.0, 10.0)):
    """Mean distance from front points to their nearest truth points, plus
    penalized variants multiplying the distance of overestimating points."""
    if len(truth) == 0:
        raise ValueError("truth front is empty")
    if len(front) == 0:
        return math.nan, {float(f): math.nan for f in penalty_factors}, 0
    tq1, tq2 = truth.q1s(), truth.q2s()
    dists = np.empty(len(front))
    overs = np.empty(len(front), dtype=bool)
    for j, p in enumerate(front):
        dists[j] = math.sqrt(float(np.min((tq1 - p.q1) ** 2 + (tq2 - p.q2) ** 2)))
        overs[j] = _overestimates(p.q1, p.q2, truth)
    penalized = {}
    for f in penalty_factors:
        penalized[float(f)] = float(np.mean(np.where(overs, float(f) * dists, dists)))
    return float(np.mean(dists)), penalized, len(front)


def evaluate_metrics(state: RunState, truth: ParetoFront, penalty_factors=(5.0, 10.0)) -> Metrics:
    """Summarize a finished run against a reference front."""
    mean_dist, penalized, size = front_metrics(state.front, truth, penalty_factors)
    return Metrics(
        mean_distance=mean_dist,
        penalized=penalized,
        front_size=size,
        moeeqi_trace=[rec.score for rec in state.history],
    )
