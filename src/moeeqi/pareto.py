"""Bi-objective Pareto front maintenance and the Euclidean expected quantile
improvement criterion.

The front is a staircase of non-dominated (q1, q2) pairs under minimization.
For a candidate whose two quantiles are independently normal, the probability
that the pair lands in the front-improving region, and the centroid of that
region, are available in closed form by slicing the region into vertical
strips: one unbounded strip left of the front, one rectangle per consecutive
front pair, and one unbounded strip to the right. The aggressive mode keeps
only the rectangles that dominate an existing point; the non-aggressive mode
raises the rectangle tops to the staircase envelope, additionally rewarding
points that merely fill gaps between current front members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acquisition import QuantilePosterior
from .gp import std_normal_cdf, std_normal_pdf, std_normal_quantile

__all__ = [
    "FrontPoint",
    "ParetoFront",
    "ImprovementMode",
    "ConstraintSpec",
    "ZeroProbabilityError",
    "build_front",
    "feasible_mask",
    "probability_of_improvement",
    "centroid",
    "moeeqi",
    "moeeqi_scores",
]


class ZeroProbabilityError(ValueError):
    """The improvement region carries no probability mass."""


class ImprovementMode(enum.Enum):
    AGGRESSIVE = "aggressive"
    NON_AGGRESSIVE = "non_aggressive"


@dataclass(frozen=True)
class FrontPoint:
    """One member of the bi-objective front; ``source`` is the control point
    it came from, when known."""

    q1: float
    q2: float
    source: np.ndarray | None = None


class ParetoFront:
    """Non-dominated set sorted ascending in q1 (hence descending in q2)."""

    def __init__(self, points: Sequence[FrontPoint]):
        pts = list(points)
        for a, b in zip(pts, pts[1:]):
            if not (a.q1 < b.q1 and a.q2 > b.q2):
                raise ValueError(
                    "front must be strictly increasing in q1 and strictly decreasing in q2"
                )
        self._points = tuple(pts)
        self._q1 = np.array([p.q1 for p in pts], dtype=float)
        self._q2 = np.array([p.q2 for p in pts], dtype=float)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, i: int) -> FrontPoint:
        return self._points[i]

    @property
    def points(self) -> tuple:
        return self._points

    def q1s(self) -> np.ndarray:
        return self._q1.copy()

    def q2s(self) -> np.ndarray:
        return self._q2.copy()


@dataclass(frozen=True)
class ConstraintSpec:
    """Optional per-objective upper bounds on acceptable solutions."""

    upper_bounds: tuple = (None, None)

    @property
    def active(self) -> bool:
        return any(b is not None for b in self.upper_bounds)


# ---------------------------------------------------------------------------
# Front construction
# ---------------------------------------------------------------------------


def feasible_mask(
    q: np.ndarray,
    noise_sd: np.ndarray | None,
    constraints: ConstraintSpec | None,
    beta: float = 0.5,
    literal_formula: bool = False,
) -> np.ndarray:
    """Feasibility of candidate objective pairs under noise-adjusted bounds.

    A candidate is discarded when its value for objective i reaches
    b_i + PHI^{-1}(beta) * adj_i, where adj_i is the candidate's quantile
    noise sd by default (dimensionally consistent) or, with
    ``literal_formula``, the variance.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    keep = np.ones(q.shape[0], dtype=bool)
    if constraints is None or not constraints.active:
        return keep
    z = float(std_normal_quantile(beta)) if beta > 0.5 else 0.0
    if noise_sd is None:
        sd = np.zeros_like(q)
    else:
        sd = np.atleast_2d(np.asarray(noise_sd, dtype=float))
        if sd.shape != q.shape:
            raise ValueError(f"noise_sd shape {sd.shape} does not match values {q.shape}")
    for i, bound in enumerate(constraints.upper_bounds):
        if bound is None:
            continue
        adj = sd[:, i] ** 2 if literal_formula else sd[:, i]
        keep &= q[:, i] < bound + z * adj
    return keep


def build_front(
    candidates: Sequence[FrontPoint],
    constraints: ConstraintSpec | None = None,
    noise_sd: np.ndarray | None = None,
    beta: float = 0.5,
    literal_formula: bool = False,
) -> ParetoFront:
    """Maximal non-dominated subset of the candidates, constraint-filtered.

    Candidates whose noise-adjusted value exceeds an active bound are dropped
    first. Dominance is the usual bi-objective rule (<= in both coordinates,
    < in at least one); exact duplicates keep the first-seen point. The empty
    front is allowed.
    """
    cands = list(candidates)
    if not cands:
        return ParetoFront([])
    q = np.array([(p.q1, p.q2) for p in cands], dtype=float)
    keep = feasible_mask(q, noise_sd, constraints, beta, literal_formula)
    survivors = [p for p, k in zip(cands, keep) if k]
    # Sweep in (q1, q2) order: a point is non-dominated iff it strictly
    # improves the best q2 seen so far.
    order = sorted(range(len(survivors)), key=lambda i: (survivors[i].q1, survivors[i].q2))
    front = []
    best_q2 = np.inf
    for i in order:
        p = survivors[i]
        if p.q2 < best_q2:
            front.append(p)
            best_q2 = p.q2
    return ParetoFront(front)


# ---------------------------------------------------------------------------
# Closed-form improvement probability and centroid
# ---------------------------------------------------------------------------


def _cdf_mass(c: float, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """P[X <= c] for X ~ N(mu, sd^2), elementwise; sd == 0 degenerates to the
    step indicator (0.5 exactly at the boundary)."""
    step = np.where(mu < c, 1.0, np.where(mu > c, 0.0, 0.5))
    safe = np.where(sd > 0.0, sd, 1.0)
    with np.errstate(invalid="ignore"):
        smooth = std_normal_cdf((c - mu) / safe)
    return np.where(sd > 0.0, smooth, step)


def _pdf_term(c: float, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """sd * phi((c - mu) / sd), elementwise, vanishing when sd == 0."""
    safe = np.where(sd > 0.0, sd, 1.0)
    with np.errstate(invalid="ignore"):
        val = sd * std_normal_pdf((c - mu) / safe)
    return np.where(sd > 0.0, val, 0.0)


def _improvement_terms(front: ParetoFront, mu1, sd1, mu2, sd2, mode: ImprovementMode):
    """Probability mass and unnormalized first moments over the improving region.

    Vectorized over candidates: each of mu1, sd1, mu2, sd2 may be a scalar or
    an (n,) array. Returns (mass, num1, num2) where num_j integrates q_j over
    the region against the product density.
    """
    if len(front) == 0:
        raise ValueError("front is empty")
    mu1, sd1, mu2, sd2 = np.broadcast_arrays(
        np.asarray(mu1, float), np.asarray(sd1, float),
        np.asarray(mu2, float), np.asarray(sd2, float),
    )
    t = front.q1s()
    z = front.q2s()
    m = len(front)
    aggressive = mode is ImprovementMode.AGGRESSIVE

    mass = np.zeros_like(mu1)
    num1 = np.zeros_like(mu1)
    num2 = np.zeros_like(mu1)
    for j in range(m + 1):
        a1 = -np.inf if j == 0 else t[j - 1]
        b1 = t[j] if j < m else np.inf
        if j == 0:
            top = np.inf
        elif j == m:
            top = z[m - 1]
        else:
            top = z[j] if aggressive else z[j - 1]
        cdf_b = _cdf_mass(b1, mu1, sd1)
        cdf_a = _cdf_mass(a1, mu1, sd1)
        mass1 = cdf_b - cdf_a
        mom1 = mu1 * mass1 - (_pdf_term(b1, mu1, sd1) - _pdf_term(a1, mu1, sd1))
        mass2 = _cdf_mass(top, mu2, sd2)
        mom2 = mu2 * mass2 - _pdf_term(top, mu2, sd2)
        mass += mass1 * mass2
        num1 += mom1 * mass2
        num2 += mass1 * mom2
    return mass, num1, num2


def probability_of_improvement(
    front: ParetoFront, qp1: QuantilePosterior, qp2: QuantilePosterior, mode: ImprovementMode
) -> float:
    """Probability that the candidate's quantile pair improves the front."""
    mass, _, _ = _improvement_terms(front, qp1.mean, qp1.sd, qp2.mean, qp2.sd, mode)
    return float(np.clip(mass, 0.0, 1.0))


def centroid(
    front: ParetoFront, qp1: QuantilePosterior, qp2: QuantilePosterior, mode: ImprovementMode
) -> tuple:
    """Expected quantile pair conditional on landing in the improving region."""
    mass, num1, num2 = _improvement_terms(front, qp1.mean, qp1.sd, qp2.mean, qp2.sd, mode)
    p = float(mass)
    if p <= 0.0:
        raise ZeroProbabilityError("improvement region has zero probability")
    return float(num1) / p, float(num2) / p


def moeeqi(
    front: ParetoFront, qp1: QuantilePosterior, qp2: QuantilePosterior, mode: ImprovementMode
) -> float:
    """Improvement probability times the distance from the region centroid to
    the nearest front point; zero whenever the probability vanishes."""
    return float(moeeqi_scores(front, qp1.mean, qp1.sd, qp2.mean, qp2.sd, mode)[0])


def moeeqi_scores(
    front: ParetoFront,
    mu1: np.ndarray,
    sd1: np.ndarray,
    mu2: np.ndarray,
    sd2: np.ndarray,
    mode: ImprovementMode,
) -> np.ndarray:
    """Criterion for a batch of candidates: improvement probability times the
    distance from the region centroid to the nearest front point, zero where
    the probability vanishes."""
    mass, num1, num2 = _improvement_terms(front, mu1, sd1, mu2, sd2, mode)
    mass = np.atleast_1d(mass)
    num1, num2 = np.atleast_1d(num1), np.atleast_1d(num2)
    pos = mass > 0.0
    safe = np.where(pos, mass, 1.0)
    c1 = num1 / safe
    c2 = num2 / safe
    t = front.q1s()
    z = front.q2s()
    d2 = (c1[:, None] - t[None, :]) ** 2 + (c2[:, None] - z[None, :]) ** 2
    dist = np.sqrt(np.min(d2, axis=1))
    return np.where(pos, mass * dist, 0.0)
