"""Single-objective expected quantile improvement building blocks.

Covers the one-step-ahead distribution of the posterior beta-quantile after a
hypothetical noisy observation, the closed-form expected improvement of that
quantile, the conservative choice of future observation noise, and the
variance bookkeeping for pooling repeated Monte Carlo batches at one design
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gp import GpDataset, NoisyObservation, std_normal_cdf, std_normal_pdf, std_normal_quantile

__all__ = [
    "QuantilePosterior",
    "ReplicationVarianceError",
    "quantile_posterior",
    "quantile_posterior_arrays",
    "eqi",
    "future_noise",
    "replication_variance",
    "merge_replicate",
]


class ReplicationVarianceError(ValueError):
    """A replication batch failed to shrink the pooled variance estimate."""


@dataclass(frozen=True)
class QuantilePosterior:
    """Normal distribution of the one-step-ahead beta-quantile at a point."""

    mean: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"quantile posterior mean must be finite, got {self.mean}")
        if not 0.0 <= self.sd < math.inf:
            raise ValueError(f"quantile posterior sd must be finite and non-negative, got {self.sd}")


def quantile_posterior_arrays(mean, var, sigma2_new, beta: float):
    """Elementwise ``quantile_posterior`` over arrays of posterior means and
    variances (and of ``sigma2_new``), without input validation; returns (means, sds).
    ``var`` and ``sigma2_new`` must be >= 0, as the posterior's clamp and
    ``future_noise`` give them; where both are 0, the shift and the sd are 0.
    An infinite ``var`` gives NaN, without a warning, for the caller to count."""
    var = np.asarray(var, float)
    with np.errstate(over="ignore"):
        total = var + sigma2_new
    safe = np.where(total > 0.0, total, 1.0)
    z = float(std_normal_quantile(beta))
    # sqrt(var) sqrt(sigma2_new / total), not sqrt(sigma2_new var / total): the
    # product of two variances overflows or underflows at objective scales
    # whose quantiles are representable.
    root = np.sqrt(var)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf / inf
        shift = z * root * np.sqrt(sigma2_new / safe)
        sd = var / np.sqrt(safe)
        over = np.isinf(total)
        if over.any():
            # a sum past the float limit (or an infinite var, which stays NaN):
            # the same sd and shift from halved variances, whose sum is finite
            half, half_new = 0.5 * var, 0.5 * sigma2_new
            half_total = half + half_new
            shift = np.where(over, z * root * np.sqrt(half_new / half_total), shift)
            sd = np.where(over, root * np.sqrt(half / half_total), sd)
        return mean + shift, sd


def quantile_posterior(m: float, s2: float, sigma2_new: float, beta: float) -> QuantilePosterior:
    """Distribution of the updated beta-quantile after one more noisy observation.

    Given the current posterior mean ``m`` and variance ``s2`` at a point, and
    the variance ``sigma2_new`` of the hypothetical next observation there:

        mean = m + PHI^{-1}(beta) * sqrt(sigma2_new * s2 / (s2 + sigma2_new))
        sd   = s2 / sqrt(s2 + sigma2_new)

    A point with ``s2 == 0`` is already resolved and cannot move, so the
    degenerate (m, 0) is returned regardless of ``sigma2_new``.
    """
    if not 0.5 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0.5, 1), got {beta}")
    for name, value in (("s2", s2), ("sigma2_new", sigma2_new)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be a finite non-negative variance, got {value}")
    mean, sd = quantile_posterior_arrays(m, s2, sigma2_new, beta)
    return QuantilePosterior(float(mean), float(sd))


def eqi(qp: QuantilePosterior, q_star: float) -> float:
    """Expected improvement of the best quantile, E[(q_star - Q)^+].

    Closed form mirroring classical expected improvement:
    (q_star - m_Q) PHI(u) + s_Q phi(u) with u = (q_star - m_Q) / s_Q.
    """
    gap = q_star - qp.mean
    if qp.sd == 0.0:
        return max(gap, 0.0)
    u = gap / qp.sd
    return float(gap * std_normal_cdf(u) + qp.sd * std_normal_pdf(u))


def future_noise(datasets: Sequence[GpDataset]) -> list[float]:
    """Conservative variance for the next observation, one value per objective.

    Uses the maximum stored observation variance across the current design,
    which lowers EQI and favors exploitation relative to smaller choices.
    """
    out = []
    for ds in datasets:
        if len(ds) == 0:
            raise ValueError("future_noise needs at least one observation per dataset")
        out.append(float(np.max(ds.variances())))
    return out


def replication_variance(var_n: float, var_2n: float) -> float:
    """The paper's assigned-variance formula for a repeated design point, so
    that pooling reproduces the combined-sample estimate: var_n * var_2n /
    (var_n - var_2n). It is exported and checked by the acceptance tests; the
    loop does not use it, but pools replicates with ``merge_replicate``.

    Raises ReplicationVarianceError when ``var_2n >= var_n``, i.e. when the
    enlarged sample failed to tighten the estimate.
    """
    if var_n <= 0.0 or var_2n <= 0.0:
        raise ValueError("variances must be positive")
    if var_2n >= var_n:
        raise ReplicationVarianceError(
            f"pooled variance {var_2n} did not shrink below {var_n}"
        )
    return var_n * var_2n / (var_n - var_2n)


def merge_replicate(
    old: NoisyObservation, new_batch_mean: float, new_batch_var: float, n: int
) -> NoisyObservation:
    """Pool a fresh Monte Carlo batch into the observation at the same location.

    All batches are assumed to share the per-batch sample size ``n``;
    ``new_batch_var`` is the variance of the new batch mean (sample variance
    over the batch divided by ``n``). The pooled mean is the sample-size
    weighted mean of all batches and the stored variance is recomputed from
    cumulative sums, matching the variance of the concatenated raw sample
    divided by the total draw count. If that recomputed variance fails to
    shrink (a sampling fluke), the batch is instead treated as an independent
    estimate and pooled by precision weighting. The stored variance never
    exceeds ``old.variance``.
    """
    if n < 2:
        raise ValueError("batch size must be at least 2 for a defined variance")
    if new_batch_var < 0.0:
        raise ValueError("batch variance must be non-negative")
    n_old = old.replications * n
    n_new = n
    n_tot = n_old + n_new
    # Reconstruct sum and sum-of-squares for each side, then pool exactly.
    s1_old = n_old * old.mean
    ss_old = (n_old - 1) * (old.variance * n_old) + n_old * old.mean**2
    s1_new = n_new * new_batch_mean
    ss_new = (n_new - 1) * (new_batch_var * n_new) + n_new * new_batch_mean**2
    pooled_mean = (s1_old + s1_new) / n_tot
    pooled_sample_var = max((ss_old + ss_new) - n_tot * pooled_mean**2, 0.0) / (n_tot - 1)
    pooled_var = pooled_sample_var / n_tot

    if pooled_var >= old.variance:
        # Precision-weighted fallback; guard exact-zero variances.
        if old.variance == 0.0 and new_batch_var == 0.0:
            pooled_mean, pooled_var = (s1_old + s1_new) / n_tot, 0.0
        elif old.variance == 0.0:
            pooled_mean, pooled_var = old.mean, 0.0
        elif new_batch_var == 0.0:
            pooled_mean, pooled_var = float(new_batch_mean), 0.0
        else:
            w_old = 1.0 / old.variance
            w_new = 1.0 / new_batch_var
            pooled_mean = (w_old * old.mean + w_new * new_batch_mean) / (w_old + w_new)
            if not math.isfinite(pooled_mean):
                # a variance so small that its precision, or the precision
                # times the mean, overflows: the same weights, as variances
                pooled_mean = ((old.mean * new_batch_var + new_batch_mean * old.variance)
                               / (old.variance + new_batch_var))
            # 1 / (w_old + w_new) can round one ulp above old.variance.
            pooled_var = min(1.0 / (w_old + w_new), old.variance)

    return NoisyObservation(
        location=old.location,
        mean=float(pooled_mean),
        variance=float(pooled_var),
        replications=old.replications + 1,
    )
