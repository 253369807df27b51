"""Problem definitions and data generation.

Provides the two-objective benchmark pair with its known noise-free truth,
environmental-variable sampling, Monte Carlo aggregation into noisy
observations, space-filling initial designs, candidate grids, the intervention
cost model for synthetic resource-allocation problems, and JSON loading of
problem documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .pareto import ConstraintSpec, FrontPoint, ParetoFront, build_front

__all__ = [
    "Uniform",
    "Normal",
    "McBatch",
    "CostParams",
    "ProblemSpec",
    "ProblemSchemaError",
    "sample_environment",
    "mc_aggregate",
    "toy_objectives",
    "ground_truth",
    "true_pareto_front",
    "oracle_front",
    "toy_problem",
    "intervention_cost",
    "intervention_cost_parts",
    "initial_design",
    "candidate_grid",
    "load_problem",
]

TOY_CONTROL_BOUNDS = np.array([[0.0, math.pi / 2.0], [0.0, 1.0]])


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform bounds must satisfy lo < hi, got ({self.lo}, {self.hi})")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class Normal:
    mu: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError(f"normal sd must be positive, got {self.sd}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sd, size=n)


TOY_ENV = (Uniform(-math.pi, math.pi), Normal(0.0, 0.5))


def sample_environment(env: Sequence, n: int, rng) -> np.ndarray:
    """Draw ``n`` joint samples of the environmental variables, one column per
    variable; deterministic under a seeded generator."""
    if n < 1:
        raise ValueError("need at least one environmental draw")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    return np.column_stack([dist.sample(n, rng) for dist in env])


@dataclass
class McBatch:
    """Per-objective Monte Carlo summary of one batch of simulator runs."""

    means: np.ndarray
    variances: np.ndarray
    n: int
    raw: np.ndarray | None = None  # (n_objectives, n) draws, test harness only


def mc_aggregate(draws, keep_raw: bool = False) -> McBatch:
    """Aggregate per-objective simulator draws into mean and plug-in variance.

    The stored variance is the unbiased sample variance divided by the batch
    size, i.e. the variance of the batch mean as an estimator.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    n = draws.shape[1]
    if n < 2:
        raise ValueError("variance is undefined for fewer than 2 draws")
    means = draws.mean(axis=1)
    variances = draws.var(axis=1, ddof=1) / n
    return McBatch(means, variances, n, raw=draws.copy() if keep_raw else None)


# ---------------------------------------------------------------------------
# Benchmark pair
# ---------------------------------------------------------------------------


def toy_objectives(xc, xe, a: float):
    """Two-objective benchmark with nonlinear and linear variable effects.

    h1 = 1 - sin(xc1) + a*cos(xe1) + (xc2 + xe2)/10
    h2 = 1 - cos(xc1) + a*sin(xe1) + (xc2 + xe2)/3

    ``xe`` may be a single pair or an (n, 2) stack of environmental draws.
    """
    xc = np.asarray(xc, dtype=float)
    if not (0.0 <= xc[0] <= math.pi / 2.0 and 0.0 <= xc[1] <= 1.0):
        raise ValueError(f"control point {xc} is outside [0, pi/2] x [0, 1]")
    xe = np.asarray(xe, dtype=float)
    e1 = xe[..., 0]
    e2 = xe[..., 1]
    h1 = 1.0 - math.sin(xc[0]) + a * np.cos(e1) + (xc[1] + e2) / 10.0
    h2 = 1.0 - math.cos(xc[0]) + a * np.sin(e1) + (xc[1] + e2) / 3.0
    return h1, h2


def ground_truth(xc):
    """Benchmark objectives with the environmental noise integrated out:
    (1 - sin(xc1) + xc2/10, 1 - cos(xc1) + xc2/3)."""
    xc = np.asarray(xc, dtype=float)
    f1 = 1.0 - np.sin(xc[..., 0]) + xc[..., 1] / 10.0
    f2 = 1.0 - np.cos(xc[..., 0]) + xc[..., 1] / 3.0
    return f1, f2


def true_pareto_front(resolution: int) -> ParetoFront:
    """Reference front of the noise-free benchmark on a control-space grid."""
    return oracle_front(toy_problem(0.0), resolution)


def oracle_front(problem: "ProblemSpec", resolution: int) -> ParetoFront:
    """Reference front from a problem's noise-free truth function, evaluated
    on a grid over its control box."""
    if problem.truth is None:
        raise ValueError(f"problem {problem.name!r} has no ground truth to evaluate")
    grid = candidate_grid(problem.control_bounds, resolution)
    f1, f2 = problem.truth(grid)
    pts = [FrontPoint(float(a), float(b), source=grid[i]) for i, (a, b) in enumerate(zip(f1, f2))]
    return build_front(pts)


def toy_problem(
    a: float,
    constraints: ConstraintSpec | None = None,
    env: Sequence | None = None,
    control_bounds: np.ndarray | None = None,
) -> "ProblemSpec":
    """Benchmark problem instance with tuning parameter ``a`` controlling the
    nonlinear part of the environmental noise."""
    if a < 0.0:
        raise ValueError("a must be non-negative")

    def evaluator(xc, xe_batch):
        h1, h2 = toy_objectives(xc, xe_batch, a)
        return np.column_stack([h1, h2])

    return ProblemSpec(
        evaluator=evaluator,
        env=tuple(env) if env is not None else TOY_ENV,
        control_bounds=np.array(control_bounds if control_bounds is not None else TOY_CONTROL_BOUNDS, dtype=float),
        constraints=constraints,
        truth=ground_truth,
        name=f"toy(a={a})",
    )


@dataclass
class ProblemSpec:
    """Black-box bi-objective problem under environmental uncertainty.

    ``evaluator(xc, xe_batch)`` maps one control point and an (n, d) stack of
    environmental draws to an (n, 2) array of objective values.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    env: Sequence
    control_bounds: np.ndarray
    constraints: ConstraintSpec | None = None
    truth: Callable | None = None
    cost_params: "CostParams | None" = None
    name: str = "custom"

    def __post_init__(self):
        cb = np.asarray(self.control_bounds, dtype=float).reshape(-1, 2)
        if np.any(~np.isfinite(cb)) or np.any(cb[:, 0] >= cb[:, 1]):
            raise ValueError("control bounds must be finite with lb < ub")
        self.control_bounds = cb

    @property
    def dim(self) -> int:
        return self.control_bounds.shape[0]

    def evaluate_mc(self, xc, n: int, rng, keep_raw: bool = False, draws=None) -> McBatch:
        """Run the simulator at ``xc`` over ``n`` environmental draws and
        aggregate into a Monte Carlo batch. The draws are sampled fresh from
        ``rng`` unless given (a batch shared by several points). The evaluator
        must return a finite (n, 2) array."""
        if draws is None:
            draws = sample_environment(self.env, n, rng)
        xc = np.asarray(xc, dtype=float)
        values = np.asarray(self.evaluator(xc, draws), dtype=float)
        if values.shape != (n, 2):
            raise ValueError(f"evaluator returned shape {values.shape}, expected ({n}, 2)")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"evaluator returned non-finite values at control point {xc}")
        return mc_aggregate(values.T, keep_raw=keep_raw)


# ---------------------------------------------------------------------------
# Intervention cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostParams:
    """Inputs to the countermeasure stockpile-and-administration cost model."""

    dose_cost: float  # purchase cost per dose
    doses_per_person: float
    wastage: float  # multiplier >= 1 covering wasted doses
    population: float  # affected population size
    horizon_years: float
    shelf_life_years: float
    center_setup_cost: float  # per collection center
    staff_admin_cost: float  # per staff member per dose delivered
    centers: float
    staff: float

    def __post_init__(self):
        values = (
            self.dose_cost, self.doses_per_person, self.wastage, self.population,
            self.horizon_years, self.shelf_life_years, self.center_setup_cost,
            self.staff_admin_cost, self.centers, self.staff,
        )
        if any(v < 0.0 for v in values):
            raise ValueError("cost parameters must be non-negative")
        if not self.shelf_life_years > 0.0:
            raise ValueError("shelf life must be positive")
        if self.wastage < 1.0:
            raise ValueError("wastage multiplier must be at least 1")


def intervention_cost(p: CostParams) -> float:
    """Total intervention cost over the planning horizon (no discounting):

    C = ((g X / (nu P) + d S) + a rho / T) * nu P Y

    i.e. administration (center setup plus staffed delivery) together with the
    recurring procurement of the perishable stockpile.
    """
    nu_pop = p.doses_per_person * p.population
    if nu_pop == 0.0:
        admin, procurement = intervention_cost_parts(p)
        return admin + procurement
    return (
        (p.center_setup_cost * p.centers / nu_pop + p.staff_admin_cost * p.staff)
        + p.dose_cost * p.wastage / p.shelf_life_years
    ) * nu_pop * p.horizon_years


def intervention_cost_parts(p: CostParams) -> tuple:
    """(administration, procurement) cost components whose sum is the total:
    C_A = (g X + d S nu P) Y and C_P = a nu rho P Y / T."""
    admin = (
        p.center_setup_cost * p.centers
        + p.staff_admin_cost * p.staff * p.doses_per_person * p.population
    ) * p.horizon_years
    procurement = (
        p.dose_cost * p.doses_per_person * p.wastage * p.population
        * p.horizon_years / p.shelf_life_years
    )
    return admin, procurement


# ---------------------------------------------------------------------------
# Designs and grids
# ---------------------------------------------------------------------------


def _maxpro_criterion(design: np.ndarray) -> float:
    # sum over point pairs of 1 / prod_k (x_jk - x_lk)^2; lower is better
    diff = design[:, None, :] - design[None, :, :]
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.prod(diff * diff, axis=2)
    iu = np.triu_indices(design.shape[0], k=1)
    return float(np.sum(inv[iu]))


def _latin_hypercube(s: int, v: int, rng: np.random.Generator) -> np.ndarray:
    design = np.empty((s, v))
    for k in range(v):
        design[:, k] = (rng.permutation(s) + rng.uniform(size=s)) / s
    return design


def initial_design(s: int, bounds, rng, restarts: int = 4, max_sweeps: int = 20) -> np.ndarray:
    """Space-filling initial design: a Latin hypercube improved by coordinate
    exchange under the maximum-projection criterion.

    Column-wise swaps preserve the Latin hypercube property, so every
    projection keeps exactly one point per bin. Returns an (s, v) array in
    problem units; deterministic under a seeded generator.
    """
    if s < 2:
        raise ValueError("initial design needs at least 2 points")
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    v = bounds.shape[0]
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    best, best_crit = None, np.inf
    for _ in range(max(restarts, 1)):
        design = _latin_hypercube(s, v, rng)
        crit = _maxpro_criterion(design)
        for _ in range(max_sweeps):
            improved = False
            for k in range(v):
                for i in range(s - 1):
                    for j in range(i + 1, s):
                        design[i, k], design[j, k] = design[j, k], design[i, k]
                        trial = _maxpro_criterion(design)
                        if trial < crit:
                            crit = trial
                            improved = True
                        else:
                            design[i, k], design[j, k] = design[j, k], design[i, k]
            if not improved:
                break
        if crit < best_crit:
            best, best_crit = design.copy(), crit
    return bounds[:, 0] + best * (bounds[:, 1] - bounds[:, 0])


def candidate_grid(bounds, resolution: int) -> np.ndarray:
    """Full-factorial candidate grid including the boundary values, ordered
    lexicographically so argmax tie-breaking is deterministic. An axis with
    lo == hi is pinned to its single value."""
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError(f"grid bounds must satisfy lo <= hi, got {bounds.tolist()}")
    axes = [np.array([lo]) if lo == hi else np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# JSON problem documents
# ---------------------------------------------------------------------------


class ProblemSchemaError(ValueError):
    """A problem or config document failed validation; message names the field."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ProblemSchemaError(f"missing field '{where}{key}'")
    return doc[key]


def _parse_env(entries, where: str):
    dists = []
    for i, entry in enumerate(entries):
        path = f"{where}[{i}]."
        kind = _require(entry, "type", path)
        try:
            if kind == "uniform":
                dists.append(Uniform(float(_require(entry, "lo", path)), float(_require(entry, "hi", path))))
            elif kind == "normal":
                dists.append(Normal(float(_require(entry, "mu", path)), float(_require(entry, "sd", path))))
            else:
                raise ProblemSchemaError(f"field '{path}type' must be 'uniform' or 'normal', got {kind!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ProblemSchemaError):
                raise
            raise ProblemSchemaError(f"invalid distribution at '{where}[{i}]': {exc}") from exc
    return tuple(dists)


def _parse_constraints(doc, where: str) -> ConstraintSpec:
    bounds = _require(doc, "upper_bounds", where)
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ProblemSchemaError(f"field '{where}upper_bounds' must be a list of two entries")
    return ConstraintSpec(tuple(None if b is None else float(b) for b in bounds))


def _parse_cost_params(doc, where: str) -> CostParams:
    keys = (
        "dose_cost", "doses_per_person", "wastage", "population", "horizon_years",
        "shelf_life_years", "center_setup_cost", "staff_admin_cost", "centers", "staff",
    )
    try:
        return CostParams(**{k: float(_require(doc, k, where)) for k in keys})
    except ValueError as exc:
        if isinstance(exc, ProblemSchemaError):
            raise
        raise ProblemSchemaError(f"invalid cost parameters at '{where.rstrip('.')}': {exc}") from exc


def _is_path(source) -> bool:
    # A JSON document longer than the file-name limit makes the probe raise.
    try:
        return Path(str(source)).exists()
    except (OSError, ValueError):
        return False


def load_problem(source) -> ProblemSpec:
    """Build a ProblemSpec from a JSON document (path, JSON string, or dict).

    See README for the schema. Only the benchmark family ('toy') ships with
    the package; custom problems are constructed in code.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text() if _is_path(source) else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemSchemaError(f"problem document is not valid JSON: {exc}") from exc
    kind = _require(doc, "problem", "")
    if kind != "toy":
        raise ProblemSchemaError(f"field 'problem' must be 'toy', got {kind!r}")
    a = float(_require(doc, "a", ""))
    env = _parse_env(doc["env"], "env") if "env" in doc else None
    constraints = _parse_constraints(doc["constraints"], "constraints.") if doc.get("constraints") else None
    control_bounds = None
    if "control_bounds" in doc:
        control_bounds = np.asarray(doc["control_bounds"], dtype=float)
        if control_bounds.shape != (2, 2) or np.any(control_bounds[:, 0] >= control_bounds[:, 1]):
            raise ProblemSchemaError("field 'control_bounds' must be two finite [lb, ub] pairs with lb < ub")
    try:
        problem = toy_problem(a, constraints=constraints, env=env, control_bounds=control_bounds)
    except ValueError as exc:
        raise ProblemSchemaError(f"invalid problem parameters: {exc}") from exc
    if doc.get("cost_params"):
        problem.cost_params = _parse_cost_params(doc["cost_params"], "cost_params.")
    return problem
