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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .gp import real_number
from .pareto import ConstraintSpec, ParetoFront, build_front

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
    "candidate_axes",
    "candidate_grid",
    "load_problem",
    "read_document",
]

TOY_CONTROL_BOUNDS = np.array([[0.0, math.pi / 2.0], [0.0, 1.0]])


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = real_number(self.lo, "lo"), real_number(self.hi, "hi")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"uniform bounds must be finite with lo < hi, got ({self.lo}, {self.hi})")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class Normal:
    mu: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(real_number(self.mu, "mu")):
            raise ValueError(f"normal mu must be finite, got {self.mu}")
        if not (math.isfinite(real_number(self.sd, "sd")) and self.sd > 0.0):
            raise ValueError(f"normal sd must be finite and positive, got {self.sd}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sd, size=n)


TOY_ENV = (Uniform(-math.pi, math.pi), Normal(0.0, 0.5))


def sample_environment(env: Sequence, n: int, rng) -> np.ndarray:
    """Draw ``n`` joint samples of the environmental variables, one column per
    variable; deterministic under a seeded generator."""
    if n < 1:
        raise ValueError("need at least one environmental draw")
    rng = np.random.default_rng(rng)
    return np.column_stack([dist.sample(n, rng) for dist in env])


@dataclass
class McBatch:
    """Per-objective Monte Carlo summary of one batch of simulator runs."""

    means: np.ndarray
    variances: np.ndarray


def mc_aggregate(draws) -> McBatch:
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
    return McBatch(means, variances)


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
    return build_front(np.column_stack(problem.truth(grid)), grid)


def toy_problem(
    a: float,
    constraints: ConstraintSpec | None = None,
    env: Sequence | None = None,
    control_bounds: np.ndarray | None = None,
) -> "ProblemSpec":
    """Benchmark problem instance with tuning parameter ``a`` controlling the
    nonlinear part of the environmental noise. ``control_bounds`` must lie
    inside the benchmark's box [0, pi/2] x [0, 1]."""
    if not (math.isfinite(real_number(a, "a")) and a >= 0.0):
        raise ValueError(f"a must be finite and non-negative, got {a}")

    def evaluator(xc, xe_batch):
        h1, h2 = toy_objectives(xc, xe_batch, a)
        return np.column_stack([h1, h2])

    return ProblemSpec(
        evaluator=evaluator,
        env=tuple(env) if env is not None else TOY_ENV,
        control_bounds=_parse_control_bounds(TOY_CONTROL_BOUNDS if control_bounds is None else control_bounds),
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
    name: str = "custom"

    def __post_init__(self):
        cb = np.asarray(self.control_bounds, dtype=float).reshape(-1, 2)
        if np.any(~np.isfinite(cb)) or np.any(cb[:, 0] >= cb[:, 1]):
            raise ValueError("control bounds must be finite with lb < ub")
        self.control_bounds = cb

    @property
    def dim(self) -> int:
        return self.control_bounds.shape[0]

    def evaluate_mc(self, xc, n: int, rng, draws=None) -> McBatch:
        """Run the simulator at ``xc`` over ``n`` environmental draws and
        aggregate into a Monte Carlo batch. The draws are sampled fresh from
        ``rng`` unless given (a batch shared by several points). The evaluator
        must return a finite (n, 2) array whose batch mean and variance are
        finite too."""
        if draws is None:
            draws = sample_environment(self.env, n, rng)
        xc = np.asarray(xc, dtype=float)
        values = np.asarray(self.evaluator(xc, draws), dtype=float)
        if values.shape != (n, 2):
            raise ValueError(f"evaluator returned shape {values.shape}, expected ({n}, 2)")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"evaluator returned non-finite values at control point {xc}")
        with np.errstate(over="ignore"):
            batch = mc_aggregate(values.T)
        if not (np.all(np.isfinite(batch.means)) and np.all(np.isfinite(batch.variances))):
            raise ValueError(f"evaluator output at control point {xc} overflows its batch "
                             "mean or variance; rescale the objective")
        return batch


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
        for f in fields(self):
            v = real_number(getattr(self, f.name), f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {v!r}")
        if not self.shelf_life_years > 0.0:
            raise ValueError("shelf life must be positive")
        if self.wastage < 1.0:
            raise ValueError("wastage multiplier must be at least 1")


def intervention_cost(p: CostParams) -> float:
    """Total intervention cost over the planning horizon (no discounting):

    C = ((g X / (nu P) + d S) + a rho / T) * nu P Y

    i.e. administration (center setup plus staffed delivery) together with the
    recurring procurement of the perishable stockpile. Computed multiplied
    out, (g X + (d S + a rho / T) nu P) Y, so nu P = 0 needs no division.
    """
    return (
        p.center_setup_cost * p.centers
        + (p.staff_admin_cost * p.staff + p.dose_cost * p.wastage / p.shelf_life_years)
        * p.doses_per_person * p.population
    ) * p.horizon_years


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


def _maxpro_terms(rows: np.ndarray, design: np.ndarray) -> np.ndarray:
    # 1 / prod_k (r_k - x_lk)^2 for each row r of ``rows`` and point x_l,
    # over any leading (batch) axes that the two share
    diff = rows[..., :, None, :] - design[..., None, :, :]
    with np.errstate(divide="ignore"):
        return 1.0 / np.prod(diff * diff, axis=-1)


def _latin_hypercube(s: int, v: int, rng: np.random.Generator) -> np.ndarray:
    design = np.empty((s, v))
    for k in range(v):
        design[:, k] = (rng.permutation(s) + rng.uniform(size=s)) / s
    return design


_DESIGN_RESTARTS = 4  # Latin hypercubes drawn; the best exchanged one is kept
_DESIGN_MAX_SWEEPS = 20  # exchange sweeps per hypercube, stopping early at no gain
_EXCHANGE_TERMS = 2**18  # criterion terms (s^2 per swap partner) scored in one batch


def initial_design(s: int, bounds, rng) -> np.ndarray:
    """Space-filling initial design: a Latin hypercube improved by coordinate
    exchange under the maximum-projection criterion.

    Column-wise swaps preserve the Latin hypercube property, so every
    projection keeps exactly one point per bin. Returns an (s, v) array in
    problem units; deterministic under a seeded generator. An axis with
    lo == hi is pinned to its single value, with the same draws as a free one.
    """
    if s < 2:
        raise ValueError("initial design needs at least 2 points")
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    v = bounds.shape[0]
    rng = np.random.default_rng(rng)

    # The MaxPro criterion is the sum over point pairs (the upper triangle,
    # row by row) of the terms in ``inv``; lower is better. A swap of rows
    # i and j in column k changes only their rows and columns of ``inv``.
    # Swaps are tried in (k, i, j) order and the first that lowers the
    # criterion is kept. A rejected swap leaves the state as it was, so row
    # i's partners j are scored in batches of at most ``batch`` (s^2 terms
    # each), the next starting after the first hit or the last partner. Each
    # criterion is a row of a C-ordered ``take``: its sum adds pairwise, as the
    # 1-D sum of a single trial does (a fancy index ``[:, upper]`` is
    # F-ordered and sums left to right), so the designs equal those of trying
    # one swap at a time, bit for bit.
    upper = np.flatnonzero(np.triu(np.ones((s, s), dtype=bool), k=1))
    batch = max(1, _EXCHANGE_TERMS // (s * s))
    best, best_crit = None, np.inf
    for _ in range(_DESIGN_RESTARTS):
        design = _latin_hypercube(s, v, rng)
        inv = _maxpro_terms(design, design)
        crit = float(np.sum(inv.take(upper)))
        for _ in range(_DESIGN_MAX_SWEEPS):
            improved = False
            for k in range(v):
                for i in range(s - 1):
                    start = i + 1
                    while start < s:
                        js = np.arange(start, min(start + batch, s))
                        m = np.arange(len(js))
                        trials = np.repeat(design[None], len(js), axis=0)
                        trials[:, i, k] = design[js, k]
                        trials[m, js, k] = design[i, k]
                        new = _maxpro_terms(np.stack((trials[:, i], trials[m, js]), axis=1), trials)
                        terms = np.repeat(inv[None], len(js), axis=0)
                        terms[:, i] = terms[:, :, i] = new[:, 0]
                        terms[m, js] = terms[m, :, js] = new[:, 1]
                        crits = terms.reshape(len(js), -1).take(upper, axis=1).sum(axis=1)
                        hits = np.flatnonzero(crits < crit)
                        start = js[-1] + 1
                        if hits.size:
                            h = hits[0]
                            design, inv, crit = trials[h], terms[h], float(crits[h])
                            improved = True
                            start = js[h] + 1
            if not improved:
                break
        if crit < best_crit:
            best, best_crit = design.copy(), crit
    return bounds[:, 0] + best * (bounds[:, 1] - bounds[:, 0])


def candidate_axes(bounds, resolution: int) -> list:
    """Per-coordinate values of the candidate grid: ``resolution`` evenly
    spaced values from lo to hi, both included, or the single value of an
    axis with lo == hi (a pinned axis)."""
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError(f"grid bounds must satisfy lo <= hi, got {bounds.tolist()}")
    return [np.array([lo]) if lo == hi else np.linspace(lo, hi, resolution) for lo, hi in bounds]


def candidate_grid(bounds, resolution: int) -> np.ndarray:
    """Full-factorial product of ``candidate_axes``, ordered lexicographically
    (the first coordinate slowest) so argmax tie-breaking is deterministic."""
    mesh = np.meshgrid(*candidate_axes(bounds, resolution), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# JSON problem documents
# ---------------------------------------------------------------------------


class ProblemSchemaError(ValueError):
    """A problem or config document failed validation; message names the field."""


_REQUIRED = object()


def reject_unknown(doc: dict, known, document: str, where: str = "") -> None:
    """ProblemSchemaError naming every key of the JSON object ``doc`` outside
    ``known``, by its path ``where + key`` in the ``document``."""
    unknown = [f"'{where}{key}'" for key in doc if key not in known]
    if unknown:
        raise ProblemSchemaError(f"unknown {document} field {', '.join(unknown)}")


def read_field(doc, key: str, parse=None, where: str = "", default=_REQUIRED):
    """``parse(doc[key])``, or ``doc[key]`` without ``parse``, for the field
    ``where + key`` of a JSON object; an absent or null field gives
    ``default`` when one is passed. A part ``where`` that is not an object,
    a missing field, or a TypeError or ValueError from ``parse`` is a
    ProblemSchemaError that names the field path."""
    path = f"{where}{key}"
    if not isinstance(doc, dict):
        raise ProblemSchemaError(
            f"'{where.rstrip('.')}' must be a JSON object, got {type(doc).__name__}")
    if doc.get(key) is None and default is not _REQUIRED:
        return default
    if key not in doc:
        raise ProblemSchemaError(f"missing field '{path}'")
    try:
        return doc[key] if parse is None else parse(doc[key])
    except ProblemSchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemSchemaError(f"invalid value {doc[key]!r} for '{path}': {exc}") from exc


_DISTRIBUTIONS = {"uniform": (Uniform, "lo", "hi"), "normal": (Normal, "mu", "sd")}


def _finite_float(value) -> float:
    value = float(real_number(value, "value"))
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse_env(entries) -> tuple:
    dists = []
    for i, entry in enumerate(entries):
        where = f"env[{i}]."
        kind = read_field(entry, "type", where=where)
        if kind not in _DISTRIBUTIONS:
            raise ProblemSchemaError(f"field '{where}type' must be 'uniform' or 'normal', got {kind!r}")
        dist, first, second = _DISTRIBUTIONS[kind]
        reject_unknown(entry, ("type", first, second), "problem", where)
        p = read_field(entry, first, _finite_float, where)
        dists.append(read_field(entry, second, lambda q: dist(p, _finite_float(q)), where))
    # The toy evaluator reads the first two environmental columns.
    if len(dists) < 2:
        raise ValueError(f"expected at least two distributions, got {len(dists)}")
    return tuple(dists)


def _parse_upper_bounds(bounds) -> ConstraintSpec:
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ValueError("expected a list of two entries")
    return ConstraintSpec(tuple(None if b is None else _finite_float(b) for b in bounds))


def _parse_constraints(doc) -> ConstraintSpec:
    constraints = read_field(doc, "upper_bounds", _parse_upper_bounds, "constraints.")
    reject_unknown(doc, ("upper_bounds",), "problem", "constraints.")
    return constraints


def _parse_control_bounds(bounds) -> np.ndarray:
    """The toy's control box, inside TOY_CONTROL_BOUNDS where the toy is defined."""
    cells = np.array(bounds, dtype=object)
    bounds = np.array([_finite_float(b) for b in cells.ravel()]).reshape(cells.shape)
    lo, hi = TOY_CONTROL_BOUNDS.T
    if bounds.shape != (2, 2) or not np.all((lo <= bounds[:, 0]) & (bounds[:, 0] < bounds[:, 1])
                                            & (bounds[:, 1] <= hi)):
        raise ValueError("expected two [lb, ub] pairs with lb < ub inside [0, pi/2] x [0, 1]")
    return bounds


def read_document(source, what: str) -> dict:
    """A copy of a dict, inline JSON text (first non-blank character ``{`` or
    ``[``), or else the file at that path, whose OSError propagates; bad JSON
    or JSON that is not an object is a ProblemSchemaError naming ``what``."""
    if isinstance(source, dict):
        return dict(source)
    text = str(source)
    if not text.lstrip().startswith(("{", "[")):
        text = Path(text).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemSchemaError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemSchemaError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def load_problem(source) -> ProblemSpec:
    """Build a ProblemSpec from a JSON document (see ``read_document``).

    See README for the schema; a key outside it is an error. Only the
    benchmark family ('toy') ships with the package; custom problems are
    constructed in code.
    """
    doc = read_document(source, "problem document")
    kind = read_field(doc, "problem")
    if kind != "toy":
        raise ProblemSchemaError(f"field 'problem' must be 'toy', got {kind!r}")
    reject_unknown(doc, ("problem", "a", "env", "constraints", "control_bounds"), "problem")
    env = read_field(doc, "env", _parse_env, default=None)
    constraints = read_field(doc, "constraints", _parse_constraints, default=None)
    control_bounds = read_field(doc, "control_bounds", _parse_control_bounds, default=None)
    # The other parts are checked, so a ValueError here is about ``a``.
    return read_field(doc, "a", lambda a: toy_problem(
        _finite_float(a), constraints=constraints, env=env, control_bounds=control_bounds))
