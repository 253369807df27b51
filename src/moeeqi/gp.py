"""Gaussian-process regression with per-observation noise (stochastic kriging).

Each observation carries its own noise variance, which enters the covariance
diagonal. The constant trend is given a non-informative prior and profiled out
analytically, so prediction needs only the kernel hyperparameters and the
noise-augmented Gram matrix. Standard-normal helpers used throughout the
package (cdf, pdf, quantile) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import erfc, ndtri

__all__ = [
    "GpFitError",
    "KernelParams",
    "NoisyObservation",
    "GpDataset",
    "GpEmulator",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Relative jitter ladder: the Gram matrix is factorized as-is first; on
# numerical failure the diagonal is inflated by process_variance times these
# factors until the Cholesky succeeds.
_JITTER_START = 1e-8
_JITTER_MAX = 1e-4


class GpFitError(RuntimeError):
    """Covariance factorization or hyperparameter estimation failed."""


# ---------------------------------------------------------------------------
# Standard-normal utilities
# ---------------------------------------------------------------------------


def std_normal_cdf(z):
    """Standard normal distribution function, accurate to full double precision."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / _SQRT2)


def std_normal_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def std_normal_quantile(p):
    """Inverse of the standard normal cdf for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return ndtri(p)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


def as_point(x) -> np.ndarray:
    """Coerce a control point to an immutable 1-D float array."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise ValueError(f"control point must be one-dimensional, got shape {pt.shape}")
    pt.setflags(write=False)
    return pt


def point_key(x) -> tuple:
    """Hashable exact-match key for a control point (bitwise float equality)."""
    return tuple(float(v) for v in np.atleast_1d(x))


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters.

    ``jitter`` is an absolute diagonal addition applied before factorization;
    zero means the automatic escalation policy alone handles conditioning.
    """

    process_variance: float
    lengthscales: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if not self.process_variance > 0.0:
            raise ValueError("process_variance must be positive")
        if not np.all(ls > 0.0):
            raise ValueError("all lengthscales must be positive")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")

    @property
    def dim(self) -> int:
        return self.lengthscales.size


@dataclass
class NoisyObservation:
    """Monte Carlo summary of one design point: mean estimate, the variance of
    that estimate (sample variance already divided by the batch size), and the
    number of batches pooled into it."""

    location: np.ndarray
    mean: float
    variance: float
    replications: int = 1

    def __post_init__(self):
        self.location = as_point(self.location)
        self.mean = float(self.mean)
        self.variance = float(self.variance)
        if self.variance < 0.0:
            raise ValueError("observation variance must be non-negative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


class GpDataset:
    """Ordered collection of noisy observations for a single objective.

    Locations must be pairwise distinct; repeated Monte Carlo batches at one
    location are merged before insertion (see acquisition.merge_replicate).
    """

    def __init__(self, observations: Sequence[NoisyObservation] = ()):
        obs = list(observations)
        dims = {o.location.size for o in obs}
        if len(dims) > 1:
            raise ValueError(f"inconsistent control dimensions in dataset: {sorted(dims)}")
        keys = [point_key(o.location) for o in obs]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate locations in dataset; merge replicates first")
        self._obs = obs
        self._index = {k: i for i, k in enumerate(keys)}

    def __len__(self) -> int:
        return len(self._obs)

    def __iter__(self):
        return iter(self._obs)

    def __getitem__(self, i: int) -> NoisyObservation:
        return self._obs[i]

    @property
    def dim(self) -> int:
        if not self._obs:
            raise ValueError("empty dataset has no dimension")
        return self._obs[0].location.size

    def locations(self) -> np.ndarray:
        return np.array([o.location for o in self._obs], dtype=float)

    def means(self) -> np.ndarray:
        return np.array([o.mean for o in self._obs], dtype=float)

    def variances(self) -> np.ndarray:
        return np.array([o.variance for o in self._obs], dtype=float)

    def index_of(self, location) -> int | None:
        """Index of the observation at exactly this location, or None."""
        return self._index.get(point_key(location))

    def with_observation(self, obs: NoisyObservation) -> "GpDataset":
        """New dataset with ``obs`` appended at a fresh location."""
        return GpDataset(self._obs + [obs])

    def with_replaced(self, index: int, obs: NoisyObservation) -> "GpDataset":
        """New dataset with the observation at ``index`` swapped out."""
        new = list(self._obs)
        new[index] = obs
        return GpDataset(new)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _kernel_matrix(params: KernelParams, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared-exponential covariances between the rows of X and of Y (or X):
    process_variance * exp(-sum_k (x_k - y_k)^2 / (2 l_k^2))."""
    Xs = X / params.lengthscales
    Ys = Xs if Y is None else Y / params.lengthscales
    sq = (
        np.sum(Xs * Xs, axis=1)[:, None]
        + np.sum(Ys * Ys, axis=1)[None, :]
        - 2.0 * Xs @ Ys.T
    )
    np.maximum(sq, 0.0, out=sq)
    return params.process_variance * np.exp(-0.5 * sq)


def _factorize(C: np.ndarray, process_variance: float, jitter: float):
    """Cholesky of the noise-augmented Gram matrix.

    Tries the matrix as given (plus any caller-fixed jitter) and escalates the
    diagonal by factors of 10 relative to process_variance, up to 1e-4, before
    giving up.
    """
    eye = np.eye(C.shape[0])
    for extra in [0.0] + [
        process_variance * _JITTER_START * 10.0**k
        for k in range(int(math.log10(_JITTER_MAX / _JITTER_START)) + 1)
    ]:
        total = jitter + extra
        try:
            return cho_factor(C + total * eye, lower=True, check_finite=False), total
        except np.linalg.LinAlgError:
            continue
    raise GpFitError(
        "covariance matrix is not positive definite even with maximal jitter; "
        "check for near-duplicate locations or pass a larger KernelParams.jitter"
    )


# ---------------------------------------------------------------------------
# Marginal likelihood and hyperparameter estimation
# ---------------------------------------------------------------------------


def _profiled_loglik(X, y, noise, params: KernelParams) -> float:
    S = y.size
    C = _kernel_matrix(params, X) + np.diag(noise)
    cho, _ = _factorize(C, params.process_variance, params.jitter)
    rhs = np.empty((S, 2))
    rhs[:, 0] = 1.0
    rhs[:, 1] = y
    solved = cho_solve(cho, rhs, check_finite=False)
    denom = float(np.sum(solved[:, 0]))
    one_Cinv_y = float(np.sum(solved[:, 1]))
    y_Cinv_y = float(y @ solved[:, 1])
    # (y - b0)' C^{-1} (y - b0) with b0 profiled out
    quad = y_Cinv_y - one_Cinv_y**2 / denom
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return -0.5 * (quad + logdet + math.log(denom) + (S - 1) * _LOG_2PI)


def log_marginal_likelihood(dataset: GpDataset, params: KernelParams) -> float:
    """Marginal log-likelihood with the constant trend integrated out under a
    flat prior; the noise diagonal is taken from the dataset."""
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    return _profiled_loglik(dataset.locations(), dataset.means(), dataset.variances(), params)


def _default_bounds(X: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    vy = float(np.var(y))
    if vy <= 0.0:
        vy = 1.0
    bounds = [(1e-4 * vy, 1e3 * vy)]
    for k in range(X.shape[1]):
        span = float(np.ptp(X[:, k]))
        if span <= 0.0:
            span = 1.0
        bounds.append((1e-2 * span, 1e1 * span))
    return bounds


def fit_hyperparameters(
    dataset: GpDataset,
    bounds: Sequence[tuple[float, float]] | None = None,
    restarts: int = 8,
    rng=None,
    warm_start: KernelParams | None = None,
) -> KernelParams:
    """Maximum-likelihood kernel hyperparameters via multi-start Nelder-Mead.

    Parameters
    ----------
    dataset : GpDataset
        At least two observations; noise variances are held fixed.
    bounds : sequence of (low, high), optional
        Search box for (process_variance, lengthscale_1, ..., lengthscale_v).
        Defaults to a data-driven box around the response variance and the
        per-coordinate location ranges.
    restarts : int
        Number of local searches; after any warm start, one begins at the box
        center and the rest at points drawn from ``rng``.
    rng : numpy Generator or int seed
        Drives the restart draws, making the fit reproducible.
    warm_start : KernelParams, optional
        Extra starting point, e.g. the previous iteration's estimate.

    Returns
    -------
    KernelParams
        The best parameters found across all starts.
    """
    if len(dataset) < 2:
        raise ValueError("hyperparameter estimation needs at least 2 observations")
    rng = np.random.default_rng(rng if rng is not None else 0)
    X, y, noise = dataset.locations(), dataset.means(), dataset.variances()
    box = list(bounds) if bounds is not None else _default_bounds(X, y)
    if len(box) != 1 + X.shape[1]:
        raise ValueError(f"bounds must have {1 + X.shape[1]} entries, got {len(box)}")
    log_box = [(math.log(lo), math.log(hi)) for lo, hi in box]

    def objective(theta: np.ndarray) -> float:
        p = KernelParams(math.exp(theta[0]), np.exp(theta[1:]))
        try:
            return -_profiled_loglik(X, y, noise, p)
        except GpFitError:
            return np.inf

    starts = []
    if warm_start is not None:
        theta_w = np.log(np.r_[warm_start.process_variance, warm_start.lengthscales])
        starts.append(np.clip(theta_w, [b[0] for b in log_box], [b[1] for b in log_box]))
    starts.append(np.array([0.5 * (lo + hi) for lo, hi in log_box]))
    for _ in range(max(restarts - len(starts), 0)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in log_box]))

    best_theta, best_val = None, np.inf
    for theta0 in starts[:max(restarts, 1)]:
        res = minimize(
            objective,
            theta0,
            method="Nelder-Mead",
            bounds=log_box,
            options={"xatol": 1e-5, "fatol": 1e-7, "maxiter": 200 * theta0.size},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None:
        raise GpFitError(
            "no positive-definite covariance found at any restart; "
            "increase jitter or widen the parameter bounds"
        )
    return KernelParams(math.exp(best_theta[0]), np.exp(best_theta[1:]))


# ---------------------------------------------------------------------------
# Emulator
# ---------------------------------------------------------------------------


def _unit_box(control_bounds, dim: int) -> tuple:
    """Offset and width mapping the control box onto the unit cube; the
    identity map when no bounds are given."""
    if control_bounds is None:
        return np.zeros(dim), np.ones(dim)
    cb = np.asarray(control_bounds, dtype=float).reshape(-1, 2)
    if cb.shape[0] != dim:
        raise ValueError("control_bounds dimension does not match dataset")
    span = cb[:, 1] - cb[:, 0]
    if np.any(span <= 0.0):
        raise ValueError("control bounds must have positive width")
    return cb[:, 0], span


class GpEmulator:
    """Fitted stochastic-kriging emulator for one objective.

    Immutable after construction; posterior evaluation is pure and safe to
    call concurrently. Control inputs are scaled to the unit cube internally
    when bounds are supplied, so lengthscales always refer to scaled
    coordinates in that case.
    """

    def __init__(
        self,
        dataset: GpDataset,
        params: KernelParams,
        control_bounds: np.ndarray | None = None,
    ):
        self.dataset = dataset
        self.params = params
        self._lb, self._span = _unit_box(control_bounds, dataset.dim)
        X = self.scale(dataset.locations())
        y = dataset.means()
        C = _kernel_matrix(params, X) + np.diag(dataset.variances())
        self._cho, self.jitter_used = _factorize(C, params.process_variance, params.jitter)
        ones = np.ones(len(dataset))
        self._Cinv_one = cho_solve(self._cho, ones, check_finite=False)
        self._one_Cinv_one = float(ones @ self._Cinv_one)
        self.beta0 = float(self._Cinv_one @ y) / self._one_Cinv_one
        self._alpha = cho_solve(self._cho, y - self.beta0, check_finite=False)
        self._X = X

    @classmethod
    def fit(
        cls,
        dataset: GpDataset,
        control_bounds: np.ndarray | None = None,
        bounds: Sequence[tuple[float, float]] | None = None,
        restarts: int = 8,
        rng=None,
        warm_start: KernelParams | None = None,
    ) -> "GpEmulator":
        """Estimate hyperparameters on (scaled) inputs and build the emulator."""
        lb, span = _unit_box(control_bounds, dataset.dim)
        scaled = GpDataset(
            [
                NoisyObservation((o.location - lb) / span, o.mean, o.variance, o.replications)
                for o in dataset
            ]
        )
        params = fit_hyperparameters(
            scaled, bounds=bounds, restarts=restarts, rng=rng, warm_start=warm_start
        )
        return cls(dataset, params, control_bounds=control_bounds)

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Map control inputs to internal (unit-cube) coordinates."""
        return (np.asarray(x, dtype=float) - self._lb) / self._span

    @property
    def noise_diagonal(self) -> np.ndarray:
        """Effective per-observation noise including any jitter applied."""
        return self.dataset.variances() + self.jitter_used

    def posterior(self, x) -> tuple:
        """Posterior mean and variance of the latent objective at ``x``.

        The variance is the three-term stochastic-kriging form: prior
        variance, minus the data reduction, plus the inflation from
        estimating the constant trend. Accepts a single point (shape (v,))
        or a stack of points (shape (n, v)); returns floats or arrays
        accordingly. Round-off is clamped so variances are never negative.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        Xq = self.scale(np.atleast_2d(x))
        k = _kernel_matrix(self.params, Xq, self._X)  # (n, S)
        mean = self.beta0 + k @ self._alpha
        Cinv_k = cho_solve(self._cho, k.T, check_finite=False)  # (S, n)
        quad = np.einsum("ij,ji->i", k, Cinv_k)
        h = 1.0 - k @ self._Cinv_one
        var = self.params.process_variance - quad + h * h / self._one_Cinv_one
        np.maximum(var, 0.0, out=var)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var

    def quantile(self, x, beta: float):
        """beta-quantile of the posterior: m(x) + PHI^{-1}(beta) s(x)."""
        if not 0.5 <= beta < 1.0:
            raise ValueError(f"beta must lie in [0.5, 1), got {beta}")
        mean, var = self.posterior(x)
        q = mean + float(std_normal_quantile(beta)) * np.sqrt(var)
        return float(q) if np.isscalar(mean) or np.ndim(q) == 0 else q
