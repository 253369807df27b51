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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acquisition import QuantilePosterior
from .gp import real_number, std_normal_cdf, std_normal_pdf, std_normal_quantile

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
        self._points = tuple(points)
        self._q1 = np.array([p.q1 for p in self._points], dtype=float)
        self._q2 = np.array([p.q2 for p in self._points], dtype=float)
        # NaN compares false, so it fails the check like any other disorder.
        if not (np.all(np.diff(self._q1) > 0) and np.all(np.diff(self._q2) < 0)):
            raise ValueError(
                "front must be strictly increasing in q1 and strictly decreasing in q2"
            )

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, i: int) -> FrontPoint:
        return self._points[i]

    def q1s(self) -> np.ndarray:
        return self._q1.copy()

    def q2s(self) -> np.ndarray:
        return self._q2.copy()


@dataclass(frozen=True)
class ConstraintSpec:
    """Optional per-objective upper bounds on acceptable solutions: each a
    finite number, or None for no bound."""

    upper_bounds: tuple = (None, None)

    def __post_init__(self):
        if not all(b is None or math.isfinite(real_number(b, "upper_bounds entry"))
                   for b in self.upper_bounds):
            raise ValueError(f"upper_bounds must be finite numbers or None, got {self.upper_bounds}")

    @property
    def active(self) -> bool:
        return any(b is not None for b in self.upper_bounds)


# ---------------------------------------------------------------------------
# Front construction
# ---------------------------------------------------------------------------


def feasible_mask(
    q: np.ndarray,
    noise_sd: np.ndarray,
    constraints: ConstraintSpec | None,
    beta: float = 0.5,
    literal_formula: bool = False,
) -> np.ndarray:
    """Feasibility of candidate objective pairs under noise-adjusted bounds.

    A candidate is discarded when its value for objective i reaches
    b_i + PHI^{-1}(beta) * adj_i, where adj_i is the candidate's quantile
    noise sd by default (dimensionally consistent) or, with
    ``literal_formula``, the variance. ``noise_sd``, an array of ``q``'s
    shape, is read only under an active constraint.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    keep = np.ones(q.shape[0], dtype=bool)
    if constraints is None or not constraints.active:
        return keep
    z = float(std_normal_quantile(beta))
    sd = np.atleast_2d(np.asarray(noise_sd, dtype=float))
    if sd.shape != q.shape:
        raise ValueError(f"noise_sd shape {sd.shape} does not match values {q.shape}")
    for i, bound in enumerate(constraints.upper_bounds):
        if bound is None:
            continue
        adj = sd[:, i] ** 2 if literal_formula else sd[:, i]
        keep &= q[:, i] < bound + z * adj
    return keep


def build_front(q: np.ndarray, sources: np.ndarray | None = None) -> ParetoFront:
    """Maximal non-dominated subset of the (n, 2) objective values ``q``; row
    i of the optional (n, v) ``sources`` is the control point of candidate i.

    Dominance is the usual bi-objective rule (<= in both coordinates, < in at
    least one); exact duplicates keep the first-seen point. The empty front
    is allowed. A constrained front is built from the rows that pass
    ``feasible_mask``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2 or (sources is not None and len(sources) != len(q)):
        raise ValueError(f"build_front needs (n, 2) values and n sources, got values {q.shape}")
    # Sweep in (q1, q2) order, stable so that duplicates keep the first seen:
    # a point is non-dominated iff it strictly improves the best q2 seen so
    # far (fmin, like the comparison, passes over a NaN q2).
    idx = np.lexsort((q[:, 1], q[:, 0]))
    q2 = q[idx, 1]
    idx = idx[q2 < np.fmin.accumulate(np.r_[np.inf, q2[:-1]])]
    src = [None] * len(idx) if sources is None else np.asarray(sources, dtype=float)[idx]
    return ParetoFront([FrontPoint(float(a), float(b), s) for (a, b), s in zip(q[idx], src)])


# ---------------------------------------------------------------------------
# Closed-form improvement probability and centroid
# ---------------------------------------------------------------------------


# Allowance for rounding in a computed score, relative to the scale of the
# coordinates involved; the largest excess of a computed score over the
# exact bound seen on generated fronts was about 0.2 machine epsilons of it.
_ROUNDING = 1e-12


def _strips(front: ParetoFront, mode: ImprovementMode):
    """(edges, tops) of the improving region: strip j spans (edges[j],
    edges[j + 1]) in q1 and lies below tops[j] in q2."""
    if len(front) == 0:
        raise ValueError("front is empty")
    z = front.q2s()
    edges = np.r_[-np.inf, front.q1s(), np.inf]
    tops = np.r_[np.inf, z[1:] if mode is ImprovementMode.AGGRESSIVE else z[:-1], z[-1]]
    return edges, tops


def _score_bounds(front: ParetoFront, m1, s1, m2, s2, mode: ImprovementMode) -> np.ndarray:
    """Upper bounds on ``moeeqi_scores`` of the (n,) candidate arrays, at two
    normal cdfs per candidate. It builds (m, n) arrays for a front of m
    points, so the selection passes a ``gp._ROW_BLOCK`` of candidates at a
    time.

    For any front point f, Cauchy-Schwarz gives score <= sqrt(E|Q - f|^2 P(R))
    over the improving region R. For any split k of the strips, every strip
    left of it lies left of edges[k] and every strip right of it below
    tops[k] (the tops do not rise), so P(R) <= P[Q1 <= edges[k]] +
    P[Q2 <= tops[k]]. Each candidate takes the first split whose larger
    standardized edge (unscaled where the sd is 0) is least. An sd of 0 gives
    the step indicator, 1 at the boundary (the score's 0.5 there is the
    smaller). The bound holds for the computed scores too: it adds
    ``_ROUNDING`` times the scale of the coordinates involved, which covers
    their rounding (on a front point with sd 0 the score is 0, computed ~1e-17).
    """
    edges, tops = _strips(front, mode)
    t, top, z = edges[1:-1, None], tops[1:, None], front.q2s()[:, None]
    reach = np.max(np.abs(t)) + np.max(np.abs(top))
    pos1, pos2 = s1 > 0.0, s2 > 0.0
    d1, b = t - m1, top - m2  # (m, n): one row per split
    sq = np.min(d1 * d1 + (z - m2) ** 2, axis=0)
    a, b = np.divide(d1, s1, out=d1, where=pos1), np.divide(b, s2, out=b, where=pos2)
    k = np.argmin(np.maximum(a, b), axis=0)[None]
    a, b = np.take_along_axis(a, k, axis=0)[0], np.take_along_axis(b, k, axis=0)[0]
    mass = np.where(pos1, std_normal_cdf(a), a >= 0.0) + np.where(pos2, std_normal_cdf(b), b >= 0.0)
    return (np.sqrt((sq + s1 * s1 + s2 * s2) * np.minimum(mass, 1.0))
            + _ROUNDING * (np.abs(m1) + np.abs(m2) + s1 + s2 + reach))


def _normal_edge(mu: np.ndarray, sd: np.ndarray):
    """The function c -> (P[X <= c], sd * phi((c - mu) / sd)) for X ~ N(mu,
    sd^2), elementwise. An sd of 0 gives the step indicator (0.5 exactly at
    the boundary) and density 0; an infinite edge gives the constants these
    equal, 0 or 1 and 0."""
    pos = sd > 0.0
    safe = np.where(pos, sd, 1.0)
    exact = pos.all()

    def edge(c: float):
        if np.isinf(c):
            return (1.0 if c > 0 else 0.0), 0.0
        z = (c - mu) / safe
        cdf, pdf = std_normal_cdf(z), sd * std_normal_pdf(z)
        if exact:
            return cdf, pdf
        step = np.where(mu < c, 1.0, np.where(mu > c, 0.0, 0.5))
        return np.where(pos, cdf, step), np.where(pos, pdf, 0.0)

    return edge


def _improvement_terms(front: ParetoFront, mu1, sd1, mu2, sd2, mode: ImprovementMode):
    """Probability mass and unnormalized first moments over the improving region.

    Elementwise over candidates: mu1, sd1, mu2, sd2 are scalars or arrays of
    one shape. Returns (mass, num1, num2) where num_j integrates q_j over the
    region against the product density. Each strip edge and top is
    evaluated once: strip j's right edge is strip j + 1's left edge.
    """
    edges, tops = _strips(front, mode)
    mu1, sd1, mu2, sd2 = (np.asarray(a, dtype=float) for a in (mu1, sd1, mu2, sd2))
    edge1, edge2 = _normal_edge(mu1, sd1), _normal_edge(mu2, sd2)
    mass, num1, num2 = np.zeros_like(mu1), np.zeros_like(mu1), np.zeros_like(mu1)
    cdf_a, pdf_a = edge1(edges[0])
    for b1, top in zip(edges[1:], tops):
        cdf_b, pdf_b = edge1(b1)
        mass1 = cdf_b - cdf_a
        mom1 = mu1 * mass1 - (pdf_b - pdf_a)
        mass2, pdf2 = edge2(top)
        mom2 = mu2 * mass2 - pdf2
        mass += mass1 * mass2
        num1 += mom1 * mass2
        num2 += mass1 * mom2
        cdf_a, pdf_a = cdf_b, pdf_b
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
    mass, num1, num2 = (np.atleast_1d(a) for a in _improvement_terms(front, mu1, sd1, mu2, sd2, mode))
    pos = mass > 0.0
    safe = np.where(pos, mass, 1.0)
    c1, c2 = num1 / safe, num2 / safe
    d2 = np.inf
    for t, z in zip(front.q1s(), front.q2s()):
        d2 = np.minimum(d2, (c1 - t) ** 2 + (c2 - z) ** 2)
    return np.where(pos, mass * np.sqrt(d2), 0.0)
