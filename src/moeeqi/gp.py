"""Gaussian-process regression with per-observation noise (stochastic kriging).

Each observation carries its own noise variance, which enters the covariance
diagonal. The constant trend is given a non-informative prior and profiled out
analytically, so prediction needs only the kernel hyperparameters and the
noise-augmented Gram matrix. Standard-normal helpers used throughout the
package (cdf, pdf, quantile) live here as well.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs
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

# The double-precision LAPACK routines that scipy's cho_factor, cho_solve and
# solve_triangular end in, called with the same flags but without the
# wrappers' per-call validation, which at a few dozen observations costs more
# than the factorization itself; the results are bit-identical.
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Jitter ladder: the Gram matrix is factorized as-is first; on numerical
# failure its diagonal is inflated by process_variance * 1e-8 * step for each
# step in turn (up to 1e-4 relative) until the Cholesky succeeds.
_JITTER_STEPS = (0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0)

# Rows of candidates evaluated together by the posterior of a point stack
# and by the score bound, which see the whole grid: an (n, S) kernel block
# and the bound's per-split arrays stay cache-sized. A lattice slab (see
# GpEmulator._lattice_blocks) is longer only when its tail alone is.
_ROW_BLOCK = 4096

_COLD_STARTS = 5  # L-BFGS-B searches of a fit without a warm start
_WARM_STARTS = 3  # a warm start from the previous estimate converges quickly

# Negative log-likelihood reported where the covariance cannot be factored:
# far above any attained value, yet finite, as L-BFGS-B needs.
_FAILED_FIT = 1e100


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


def whole_number(value, name: str, minimum: int = None) -> int:
    """``value`` as an int: a whole number (``2.0`` reads as 2) that is not a
    boolean and is at least ``minimum``; otherwise a ValueError naming ``name``."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def real_number(value, name: str):
    """``value`` unchanged when it is a real number that is not a boolean;
    otherwise a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def as_point(x) -> np.ndarray:
    """Coerce a control point to an immutable 1-D float array."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise ValueError(f"control point must be one-dimensional, got shape {pt.shape}")
    pt.setflags(write=False)
    return pt


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters."""

    process_variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if not 0.0 < self.process_variance < math.inf:
            raise ValueError(f"process_variance must be positive and finite, got {self.process_variance}")
        if not np.all((ls > 0.0) & (ls < math.inf)):
            raise ValueError(f"all lengthscales must be positive and finite, got {ls}")


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
        if not np.all(np.isfinite(self.location)):
            raise ValueError(f"observation location must be finite, got {self.location}")
        for field in ("mean", "variance"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"observation {field} must be finite, got {getattr(self, field)}")
        if self.variance < 0.0:
            raise ValueError("observation variance must be non-negative")
        self.replications = whole_number(self.replications, "replications", 1)


class GpDataset:
    """Checked, immutable sequence of noisy observations for a single objective.

    Locations must be pairwise distinct under float equality; repeated Monte
    Carlo batches at one location are merged before the dataset is built
    (see acquisition.merge_replicate).
    """

    def __init__(self, observations: Sequence[NoisyObservation] = ()):
        obs = tuple(observations)
        dims = {o.location.size for o in obs}
        if len(dims) > 1:
            raise ValueError(f"inconsistent control dimensions in dataset: {sorted(dims)}")
        if len({tuple(o.location.tolist()) for o in obs}) != len(obs):
            raise ValueError("duplicate locations in dataset; merge replicates first")
        self._obs = obs

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
        x = as_point(location)
        return next((i for i, o in enumerate(self._obs) if np.array_equal(o.location, x)), None)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _kernel_matrix(process_variance: float, lengthscales: np.ndarray, X: np.ndarray,
                   Y: np.ndarray | None = None) -> np.ndarray:
    """Squared-exponential covariances between the rows of X and of Y (or X):
    process_variance * exp(-sum_k (x_k - y_k)^2 / (2 l_k^2))."""
    Xs = X / lengthscales
    Ys = Xs if Y is None else Y / lengthscales
    sq = (
        np.sum(Xs * Xs, axis=1)[:, None]
        + np.sum(Ys * Ys, axis=1)[None, :]
        - 2.0 * Xs @ Ys.T
    )
    np.maximum(sq, 0.0, out=sq)
    return process_variance * np.exp(-0.5 * sq)


def _factor_gram(K: np.ndarray, noise: np.ndarray, process_variance: float):
    """Lower Cholesky factor L of K + diag(noise), its upper triangle not
    cleared, and the jitter it needed; K is left as it is, and the ladder
    resets only the diagonal between rungs."""
    C = K.copy()
    diag = C.reshape(-1)[:: C.shape[0] + 1]  # strided view of the diagonal
    diag += noise
    base = diag.copy()
    for step in _JITTER_STEPS:
        jitter = process_variance * 1e-8 * step
        np.add(base, jitter, out=diag)
        L, info = _potrf(C, lower=1, clean=0)
        if info == 0:
            return L, jitter
    raise GpFitError("covariance matrix is not positive definite even with maximal "
                     "jitter; check for near-duplicate locations")


# ---------------------------------------------------------------------------
# Marginal likelihood and hyperparameter estimation
# ---------------------------------------------------------------------------


def _sq_diffs(X: np.ndarray) -> np.ndarray:
    """Squared coordinate differences D[k, i, j] = (X[i, k] - X[j, k])^2."""
    diff = X.T[:, :, None] - X.T[:, None, :]
    return diff * diff


def _profiled_loglik(X, y, noise, process_variance: float, lengthscales: np.ndarray,
                     sq_diffs: np.ndarray) -> tuple[float, np.ndarray]:
    """Profiled log-likelihood and its gradient in (log process_variance,
    log lengthscales); ``sq_diffs`` is ``_sq_diffs(X)``.

    With u = C^-1 1, a = C^-1 (y - b0 1) and W = a a' - C^-1 + u u' / (1'u),
    dL/dtheta = sum(W * dC/dtheta) / 2, where dC/dlog l_k = K * D_k / l_k^2
    and dC/dlog process_variance = K plus the jitter, which scales with it.
    """
    S = y.size
    K = _kernel_matrix(process_variance, lengthscales, X)
    L, jitter = _factor_gram(K, noise, process_variance)
    rhs = np.empty((S, 2))
    rhs[:, 0] = 1.0
    rhs[:, 1] = y
    solved = _potrs(L, rhs, lower=1)[0]
    u = solved[:, 0]
    Cinv_y = solved[:, 1]
    denom = float(u.sum())
    one_Cinv_y = float(Cinv_y.sum())
    y_Cinv_y = float(y @ Cinv_y)
    # (y - b0)' C^{-1} (y - b0) with b0 profiled out
    quad = y_Cinv_y - one_Cinv_y**2 / denom
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    value = -0.5 * (quad + logdet + math.log(denom) + (S - 1) * _LOG_2PI)

    a = Cinv_y - u * (one_Cinv_y / denom)
    W = a[:, None] * a
    W -= _potrs(L, np.eye(S), lower=1)[0]
    W += u[:, None] * (u / denom)
    WK = W * K
    grad = np.empty(lengthscales.size + 1)
    grad[0] = 0.5 * (float(WK.sum()) + jitter * float(W.trace()))
    grad[1:] = 0.5 * (sq_diffs.reshape(lengthscales.size, -1) @ WK.reshape(-1)) / lengthscales**2
    return value, grad


def log_marginal_likelihood(dataset: GpDataset, params: KernelParams) -> float:
    """Marginal log-likelihood with the constant trend integrated out under a
    flat prior; the noise diagonal is taken from the dataset."""
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    X = dataset.locations()
    return _profiled_loglik(X, dataset.means(), dataset.variances(), params.process_variance,
                            params.lengthscales, _sq_diffs(X))[0]


def _default_bounds(X: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Search box for (process_variance, lengthscale_1, ..., lengthscale_v),
    around the response variance and the per-coordinate location ranges;
    responses whose spread overflows a double have no such box."""
    with np.errstate(over="ignore"):
        vy = float(np.var(y))
    if not math.isfinite(1e3 * vy):
        raise GpFitError(f"response variance is not finite, or too large for the search box "
                         f"({vy:g}); rescale the objective")
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
    rng=None,
    warm_start: KernelParams | None = None,
) -> KernelParams:
    """Maximum-likelihood kernel hyperparameters via multi-start L-BFGS-B on
    the analytic gradient of the profiled likelihood, in log space over the
    box of ``_default_bounds``.

    A cold fit searches from the box center and ``_COLD_STARTS - 1`` points
    drawn from ``rng``; a warm fit from the warm start clipped to the box,
    the center and ``_WARM_STARTS - 2`` draws.

    Parameters
    ----------
    dataset : GpDataset
        At least two observations; noise variances are held fixed.
    rng : numpy Generator or int seed
        Drives the start draws, making the fit reproducible.
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
    sq_diffs = _sq_diffs(X)
    log_box = [(math.log(lo), math.log(hi)) for lo, hi in _default_bounds(X, y)]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, grad = _profiled_loglik(X, y, noise, math.exp(theta[0]), np.exp(theta[1:]),
                                           sq_diffs)
        except GpFitError:
            # finite and flat, so that the line search backs off from here
            return _FAILED_FIT, np.zeros_like(theta)
        return -value, -grad

    starts = []
    if warm_start is not None:
        theta_w = np.log(np.r_[warm_start.process_variance, warm_start.lengthscales])
        starts.append(np.clip(theta_w, [b[0] for b in log_box], [b[1] for b in log_box]))
    starts.append(np.array([0.5 * (lo + hi) for lo, hi in log_box]))
    for _ in range((_COLD_STARTS if warm_start is None else _WARM_STARTS) - len(starts)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in log_box]))

    best_theta, best_val = None, _FAILED_FIT
    for theta0 in starts:
        res = minimize(objective, theta0, method="L-BFGS-B", jac=True, bounds=log_box)
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None:
        raise GpFitError("no positive-definite covariance found at any restart; "
                         "check for near-duplicate locations")
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
        self.params = params
        self._lb, self._span = _unit_box(control_bounds, dataset.dim)
        X = self.scale(dataset.locations())
        y = dataset.means()
        L, self.jitter_used = _factor_gram(
            _kernel_matrix(params.process_variance, params.lengthscales, X), dataset.variances(),
            params.process_variance)
        ones = np.ones(len(dataset))
        Cinv_one = _potrs(L, ones, lower=1)[0]
        self._one_Cinv_one = float(ones @ Cinv_one)
        self.beta0 = float(Cinv_one @ y) / self._one_Cinv_one
        # k @ proj gives k'C^-1(y - b0 1), k'C^-1 1 and L^-1 k in one product,
        # with C = L L'; the data reduction k'C^-1 k is |L^-1 k|^2.
        L_inv = _trtrs(L, np.eye(len(dataset)), lower=1)[0]
        self._proj = np.column_stack([_potrs(L, y - self.beta0, lower=1)[0], Cinv_one, L_inv.T])
        self._X = X

    @classmethod
    def fit(
        cls,
        dataset: GpDataset,
        control_bounds: np.ndarray | None = None,
        rng=None,
        warm_start: KernelParams | None = None,
    ) -> "GpEmulator":
        """Estimate hyperparameters on (scaled) inputs and build the emulator."""
        lb, span = _unit_box(control_bounds, dataset.dim)
        scaled = GpDataset([NoisyObservation((o.location - lb) / span, o.mean, o.variance,
                                             o.replications) for o in dataset])
        params = fit_hyperparameters(scaled, rng=rng, warm_start=warm_start)
        return cls(dataset, params, control_bounds=control_bounds)

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Map control inputs to internal (unit-cube) coordinates."""
        return (np.asarray(x, dtype=float) - self._lb) / self._span

    def posterior(self, x, axes=None) -> tuple:
        """Posterior mean and variance of the latent objective at ``x``.

        The variance is the three-term stochastic-kriging form: prior
        variance, minus the data reduction, plus the inflation from
        estimating the constant trend. Accepts a single point (shape (v,))
        or a stack of points (shape (n, v)); returns floats or arrays
        accordingly. Round-off is clamped so variances are never negative.
        A stack is evaluated a block of rows at a time: one kernel block and
        one product with the cached projection each.

        ``axes``, when given, are the per-coordinate values whose
        lexicographic product (first coordinate slowest) is the stack ``x``,
        as ``problems.candidate_axes`` gives them; only the shapes are
        checked. The blocks are then ``_lattice_blocks`` slabs of first-axis
        values, else ``_ROW_BLOCK`` points each.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        Xq = np.atleast_2d(x)
        blocks = self._point_blocks(Xq) if axes is None else self._lattice_blocks(Xq, axes)
        mean = np.empty(Xq.shape[0])
        var = np.empty(Xq.shape[0])
        for rows, k in blocks:  # k is the (block, S) kernel block of the rows
            kp = k @ self._proj
            h = 1.0 - kp[:, 1]
            w = kp[:, 2:]
            mean[rows] = self.beta0 + kp[:, 0]
            var[rows] = (self.params.process_variance - np.einsum("ij,ij->i", w, w)
                         + h * h / self._one_Cinv_one)
        np.maximum(var, 0.0, out=var)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var

    def _point_blocks(self, x: np.ndarray):
        """(rows, kernel block) pairs for an (n, v) stack of points,
        ``_ROW_BLOCK`` rows at a time, from pairwise distances."""
        Xq = self.scale(x)
        for lo in range(0, Xq.shape[0], _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            yield rows, _kernel_matrix(self.params.process_variance, self.params.lengthscales,
                                       Xq[rows], self._X)

    def _lattice_blocks(self, x: np.ndarray, axes):
        """(rows, kernel block) pairs for the stack ``x`` that is the
        lexicographic product of ``axes``.

        The kernel is a product over coordinates, so with the per-axis
        tables E_k[i, s] = exp(-(g_ik - x_sk)^2 / 2 l_k^2) every row of the
        block is a product of one row of each table: v r S exponentials
        instead of r^v S. The axes after the first make one tail table, with
        the process variance folded in; each block is a slab of
        ``max(1, _ROW_BLOCK // len(tail))`` consecutive first-axis rows times
        the tail, built only when the loop reaches it. A slab is longer than
        ``_ROW_BLOCK`` rows only when the tail alone is.
        """
        axes = [np.asarray(a, dtype=float) for a in axes]
        sizes = [a.size for a in axes]
        if any(a.ndim != 1 for a in axes) or x.shape != (math.prod(sizes), len(axes)):
            raise ValueError(f"axes of sizes {sizes} do not make the points of shape {x.shape}")
        S = self._X.shape[0]
        tables = []
        for k, a in enumerate(axes):
            d = ((a - self._lb[k]) / self._span[k])[:, None] - self._X[:, k]
            d /= self.params.lengthscales[k]
            tables.append(np.exp(-0.5 * d * d))  # (r_k, S)
        tail = np.full((1, S), self.params.process_variance)
        for table in reversed(tables[1:]):
            tail = (table[:, None, :] * tail).reshape(-1, S)
        per = max(1, _ROW_BLOCK // len(tail))
        for lo in range(0, sizes[0], per):
            yield (slice(lo * len(tail), (lo + per) * len(tail)),
                   (tables[0][lo:lo + per, None, :] * tail).reshape(-1, S))

    def quantile(self, x, beta: float):
        """beta-quantile of the posterior: m(x) + PHI^{-1}(beta) s(x)."""
        if not 0.5 <= beta < 1.0:
            raise ValueError(f"beta must lie in [0.5, 1), got {beta}")
        mean, var = self.posterior(x)
        q = mean + float(std_normal_quantile(beta)) * np.sqrt(var)
        return float(q) if np.isscalar(mean) or np.ndim(q) == 0 else q
