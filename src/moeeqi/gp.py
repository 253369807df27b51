"""Gaussian-process regression with per-observation noise (stochastic kriging).

Each observation carries its own noise variance, which enters the covariance
diagonal. The constant trend is given a non-informative prior and profiled out
analytically, so prediction needs only the kernel hyperparameters and the
noise-augmented Gram matrix. Standard-normal helpers used throughout the
package (cdf, pdf, quantile) live here as well.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import statistics
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy

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


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.<name>``, e.g. ``"optimize._lbfgsb"``,
    loaded from its file without importing the package around it: the
    ``scipy.optimize``, ``scipy.linalg`` and ``scipy.special`` packages hold
    hundreds of modules that this package never calls. The module is
    registered in ``sys.modules`` under its full name, so that a later
    import of its package reuses it, and one already there is returned as
    it is."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    base = os.path.join(scipy.__path__[0], *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(full, base + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
            return module
    raise ImportError(f"scipy {scipy.__version__} has no compiled module {full}", name=full)


# The double-precision LAPACK routines that scipy's cho_factor, cho_solve and
# solve_triangular end in, taken from scipy's compiled LAPACK module (the
# objects that scipy.linalg.get_lapack_funcs returns for float64) and called
# with the same flags but without the wrappers' per-call validation, which at
# a few dozen observations costs more than the factorization itself; the
# results are bit-identical.
_flapack = _scipy_extension("linalg._flapack")
_potrf, _potrs, _trtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
_setulb = _scipy_extension("optimize._lbfgsb").setulb
erfc = _scipy_extension("special._special_ufuncs").erfc  # is scipy.special.erfc
# The normal quantile: Wichura's AS241 from the standard library, within a
# few ulp of scipy.special.ndtri and equal to it at 0.5, 0.7, 0.75 and 0.99.
# ndtri's module imports the whole scipy.special package when it loads.
_inv_cdf = statistics.NormalDist().inv_cdf

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Jitter ladder: the Gram matrix is factorized as-is first; on numerical
# failure its diagonal is inflated by process_variance * 1e-8 * step for each
# step in turn (up to 1e-4 relative) until the Cholesky succeeds.
_JITTER_STEPS = (0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0)

# Rows of candidates handled together wherever the whole grid is seen: a
# posterior block of a point stack (one (n, S) kernel block), at most a
# lattice slab (see GpEmulator._lattice_blocks), and a block of the
# selection's one pass (quantile columns, constraint filter, score bound),
# so that every temporary stays cache-sized.
_ROW_BLOCK = 4096

_COLD_STARTS = 5  # L-BFGS-B searches of a fit without a warm start
_WARM_STARTS = 3  # a warm start from the previous estimate converges quickly

# L-BFGS-B with scipy.optimize.minimize's defaults for the method: stored
# correction pairs, the relative-reduction tolerance as a multiple of the
# machine epsilon (ftol 2.22e-9), the projected-gradient tolerance, line
# search steps per iteration, and the iteration and evaluation caps.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 15000
_LBFGSB_MAXFUN = 15000

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
    """Inverse of the standard normal cdf for p in (0, 1), of the shape of p."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN too
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if p.ndim == 0:
        return np.float64(_inv_cdf(float(p)))
    return np.array([_inv_cdf(v) for v in p.ravel().tolist()]).reshape(p.shape)


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


def _sq_diffs(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared coordinate differences D[k, i, j] = (X[i, k] - Y[j, k])^2
    between the rows of X and of Y (or X)."""
    diff = X.T[:, :, None] - (X if Y is None else Y).T[:, None, :]
    return diff * diff


def _kernel(process_variance: float, lengthscales: np.ndarray, sq_diffs: np.ndarray) -> np.ndarray:
    """Squared-exponential covariances process_variance * exp(-sum_k D_k /
    (2 l_k^2)) from the squared differences D of ``_sq_diffs``; exact
    differences, so a point's covariance with itself is process_variance."""
    sq = (-0.5 / lengthscales**2) @ sq_diffs.reshape(lengthscales.size, -1)
    return process_variance * np.exp(sq).reshape(sq_diffs.shape[1:])


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


def _profiled_loglik(y, noise, process_variance: float, lengthscales: np.ndarray,
                     sq_diffs: np.ndarray) -> tuple[float, np.ndarray]:
    """Profiled log-likelihood and its gradient in (log process_variance,
    log lengthscales); ``sq_diffs`` is ``_sq_diffs(X)`` of the locations X,
    from which the Gram matrix K and its derivatives are both built.

    With u = C^-1 1, a = C^-1 (y - b0 1) and W = a a' - C^-1 + u u' / (1'u),
    dL/dtheta = sum(W * dC/dtheta) / 2, where dC/dlog l_k = K * D_k / l_k^2
    and dC/dlog process_variance = K plus the jitter, which scales with it.
    """
    S = y.size
    K = _kernel(process_variance, lengthscales, sq_diffs)
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
    try:
        quad = y_Cinv_y - one_Cinv_y**2 / denom
    except OverflowError:
        raise GpFitError("covariance matrix is too near singular: C^-1 y overflows") from None
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
    return _profiled_loglik(dataset.means(), dataset.variances(), params.process_variance,
                            params.lengthscales, _sq_diffs(dataset.locations()))[0]


def _default_bounds(X: np.ndarray, vy: float) -> list[tuple[float, float]]:
    """Search box for (process_variance, lengthscale_1, ..., lengthscale_v),
    around the response variance ``vy`` and the per-coordinate location
    ranges."""
    bounds = [(1e-4 * vy, 1e3 * vy)]
    for k in range(X.shape[1]):
        span = float(np.ptp(X[:, k]))
        if span <= 0.0:
            span = 1.0
        bounds.append((1e-2 * span, 1e1 * span))
    return bounds


class MinimizeResult(NamedTuple):
    """The end of one ``minimize`` search: the point, the value there and
    the number of calls of the objective."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, x0, bounds) -> MinimizeResult:
    """Minimize ``fun`` over the box ``bounds``, a (low, high) pair per
    coordinate, by L-BFGS-B from ``x0``; ``fun(x)`` returns the value and
    its gradient. Returns a ``MinimizeResult`` with ``x``, ``fun`` and
    ``nfev``, the number of calls of ``fun``.

    Runs scipy's L-BFGS-B routine ``setulb`` through its
    reverse-communication loop (Zhu, Byrd, Lu & Nocedal 1997, Algorithm
    778) exactly as ``scipy.optimize.minimize(fun, x0, method="L-BFGS-B",
    jac=True, bounds=bounds)`` does, with its default settings, so that
    ``x`` and ``nfev`` are bit-identical to it, without its wrappers:
    ``x0`` is clipped to the box and evaluated first, a request at the
    point last evaluated reuses that evaluation, and a search stops at the
    iteration or evaluation cap. ``fun`` is the value at ``x``; scipy's is
    the last trial value after an abnormal line search restores ``x``.
    """
    low = np.array([b[0] for b in bounds], float)
    high = np.array([b[1] for b in bounds], float)
    x = np.clip(np.asarray(x0, float), low, high)
    n = x.size
    x_last = x.copy()
    f_last, g_last = fun(x_last)
    f_x = f_last  # the value at the current iterate
    nfev = 1
    m = _LBFGSB_M
    nbd = np.full(n, 2, np.int32)  # every coordinate bounded below and above
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    iterations = 0
    while True:
        g = g.astype(np.float64)  # setulb may write to g: never hand it fun's array
        _setulb(m, x, low, high, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa, task,
                lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        # task[0]: 3 asks for the value and gradient at x, 1 reports a new
        # iterate, 4 convergence and 5 a stop; task[1] gives the reason
        if task[0] == 3:
            if not np.array_equal(x, x_last):
                x_last = x.copy()
                f_last, g_last = fun(x_last)
                nfev += 1
            f, g = f_last, g_last
        elif task[0] == 1:
            f_x = f
            iterations += 1
            if iterations >= _LBFGSB_MAXITER:
                task[:] = 5, 504  # stop: iteration cap
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = 5, 502  # stop: evaluation cap
        else:
            break
    return MinimizeResult(x, f if np.array_equal(x, x_last) else f_x, nfev)


def fit_hyperparameters(X, y, noise, rng=None, warm_start: KernelParams | None = None) -> KernelParams:
    """Maximum-likelihood kernel hyperparameters for the (S, v) locations
    ``X``, S >= 2, the responses ``y`` and their noise variances ``noise``,
    which are held fixed, via multi-start L-BFGS-B on the analytic gradient
    of the profiled likelihood, in log space over the box of
    ``_default_bounds``. All three must be finite, ``y`` and ``noise`` of
    shape (S,) and ``noise`` non-negative; otherwise a ValueError names the
    argument.

    The search sees ``y`` divided by 2**k and ``noise`` (and a warm start's
    process variance) by 4**k, k half the binary exponent of var(y), or that
    of max |y| when the variance is 0; the process variance found is
    multiplied back by 4**k. Powers of two scale exactly, so responses 2**j
    times larger give the same search and 4**j times the process variance.

    A cold fit searches from the box center and ``_COLD_STARTS - 1`` points
    drawn from ``rng`` (a Generator or int seed); a warm fit from
    ``warm_start``, such as the previous estimate, clipped to the box, the
    center and ``_WARM_STARTS - 2`` draws. Returns the best parameters
    found across all starts.
    """
    X, y, noise = (np.asarray(a, dtype=float) for a in (X, y, noise))
    if X.ndim != 2:
        raise ValueError(f"X must be an (S, v) array of locations, got shape {X.shape}")
    for name, a in (("y", y), ("noise", noise)):
        if a.shape != X.shape[:1]:
            raise ValueError(f"{name} must have shape ({X.shape[0]},) to match X, got {a.shape}")
    for name, a in (("X", X), ("y", y), ("noise", noise)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
    if np.any(noise < 0.0):
        raise ValueError("noise variances must be non-negative")
    if y.size < 2:
        raise ValueError("hyperparameter estimation needs at least 2 observations")
    rng = np.random.default_rng(rng if rng is not None else 0)
    with np.errstate(over="ignore"):
        vy = float(np.var(y))
    if not math.isfinite(1e3 * vy):
        raise GpFitError(f"response variance is not finite, or too large for the search box "
                         f"({vy:g}); rescale the objective")
    k = math.frexp(vy)[1] // 2 if vy > 0.0 else math.frexp(float(np.max(np.abs(y))))[1]
    y, noise = np.ldexp(y, -k), np.ldexp(noise, -2 * k)
    sq_diffs = _sq_diffs(X)
    box = _default_bounds(X, math.ldexp(vy, -2 * k) or 1.0)
    log_box = [(math.log(lo), math.log(hi)) for lo, hi in box]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, grad = _profiled_loglik(y, noise, math.exp(theta[0]), np.exp(theta[1:]),
                                           sq_diffs)
        except GpFitError:
            # finite and flat, so that the line search backs off from here
            return _FAILED_FIT, np.zeros_like(theta)
        return -value, -grad

    starts = []
    if warm_start is not None:
        theta_w = np.log(np.r_[math.ldexp(warm_start.process_variance, -2 * k),
                               warm_start.lengthscales])
        starts.append(np.clip(theta_w, [b[0] for b in log_box], [b[1] for b in log_box]))
    starts.append(np.array([0.5 * (lo + hi) for lo, hi in log_box]))
    for _ in range((_COLD_STARTS if warm_start is None else _WARM_STARTS) - len(starts)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in log_box]))

    best_theta, best_val = None, _FAILED_FIT
    for theta0 in starts:
        res = minimize(objective, theta0, bounds=log_box)
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None:
        raise GpFitError("no positive-definite covariance found at any restart; "
                         "check for near-duplicate locations")
    return KernelParams(math.ldexp(math.exp(best_theta[0]), 2 * k), np.exp(best_theta[1:]))


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
        K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(X))
        L, self.jitter_used = _factor_gram(K, dataset.variances(), params.process_variance)
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
        params = fit_hyperparameters((dataset.locations() - lb) / span, dataset.means(),
                                     dataset.variances(), rng=rng, warm_start=warm_start)
        return cls(dataset, params, control_bounds=control_bounds)

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Map control inputs to internal (unit-cube) coordinates."""
        return (np.asarray(x, dtype=float) - self._lb) / self._span

    def posterior(self, x, axes=None) -> tuple:
        """Posterior mean and variance of the latent objective at ``x``.

        The variance is the three-term stochastic-kriging form: prior
        variance, minus the data reduction, plus the inflation from
        estimating the constant trend. Accepts a single point (shape (v,))
        or a stack of points (shape (n, v)), v the dimension of the data (a
        ValueError otherwise); returns floats or arrays accordingly.
        Round-off is clamped so variances are never negative. A stack is
        evaluated a block of rows at a time: one kernel block and one
        product with the cached projection each.

        ``axes``, when given, are the per-coordinate values whose
        lexicographic product (first coordinate slowest) is the stack ``x``,
        as ``problems.candidate_axes`` gives them; only the shapes are
        checked. The blocks are then the ``_lattice_blocks`` slabs, which
        build no kernel block, else ``_ROW_BLOCK`` points each.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        Xq = np.atleast_2d(x)
        if Xq.shape[-1] != self._X.shape[1]:
            raise ValueError(f"points of {Xq.shape[-1]} coordinates given to an emulator "
                             f"of {self._X.shape[1]}")
        blocks = self._point_blocks(Xq) if axes is None else self._lattice_blocks(Xq, axes)
        mean = np.empty(Xq.shape[0])
        var = np.empty(Xq.shape[0])
        for rows, kp in blocks:  # k @ proj of the rows, its columns on axis 1
            h = 1.0 - kp[:, 1]
            w = kp[:, 2:]
            mean[rows] = (self.beta0 + kp[:, 0]).ravel()
            var[rows] = (self.params.process_variance - np.einsum("ij...,ij...->i...", w, w)
                         + h * h / self._one_Cinv_one).ravel()
        np.maximum(var, 0.0, out=var)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var

    def _point_blocks(self, x: np.ndarray):
        """(rows, k @ proj) pairs for an (n, v) stack of points,
        ``_ROW_BLOCK`` rows at a time, with the kernel block k from pairwise
        distances."""
        Xq = self.scale(x)
        for lo in range(0, Xq.shape[0], _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            yield rows, _kernel(self.params.process_variance, self.params.lengthscales,
                                _sq_diffs(Xq[rows], self._X)) @ self._proj

    def _lattice_blocks(self, x: np.ndarray, axes):
        """(rows, k @ proj) pairs for the stack ``x`` that is the
        lexicographic product of ``axes``; each product has the shape
        (slab, S + 2, tail), its entry [p, :, t] for the point of lead row p
        and tail row t.

        The kernel is a product over coordinates, so with the per-axis
        tables E_k[i, s] = exp(-(g_ik - x_sk)^2 / 2 l_k^2), ``_kernel`` of
        unit process variance on axis k alone, every kernel row
        is a product of one row of each table: v r S exponentials instead of
        r^v S. The first axis makes the lead table and the others the tail
        table; when the others hold one point (one axis, or the rest
        pinned), all the axes make the tail, and the lead is one row of
        ones. The point (p, t) then has k @ proj = sum_s lead[p, s]
        (process variance proj[s]) tail[t, s], so a slab of
        ``max(1, _ROW_BLOCK // len(tail))`` consecutive lead rows is one
        product of the lead rows times the weighted projection with the
        tail, and no kernel block is built. A tail longer than
        ``_ROW_BLOCK`` rows is taken in parts of that many, so no block is
        longer.
        """
        axes = [np.asarray(a, dtype=float) for a in axes]
        sizes = [a.size for a in axes]
        if any(a.ndim != 1 for a in axes) or x.shape != (math.prod(sizes), len(axes)):
            raise ValueError(f"axes of sizes {sizes} do not make the points of shape {x.shape}")
        S = self._X.shape[0]
        tables = []
        for k, a in enumerate(axes):
            g = ((a - self._lb[k]) / self._span[k])[:, None]
            tables.append(_kernel(1.0, self.params.lengthscales[k:k + 1],
                                  _sq_diffs(g, self._X[:, k:k + 1])))  # (r_k, S)
        lead = tables.pop(0) if math.prod(sizes[1:]) > 1 else np.ones((1, S))
        tail = np.ones((1, S))
        for table in reversed(tables):
            tail = (table[:, None, :] * tail).reshape(-1, S)
        weights = self.params.process_variance * self._proj.T  # (S + 2, S)
        per = max(1, _ROW_BLOCK // len(tail))
        for lo in range(0, len(lead), per):
            slab = (lead[lo:lo + per, None, :] * weights).reshape(-1, S)
            for t0 in range(0, len(tail), _ROW_BLOCK):  # once, unless per is 1
                part = tail[t0:t0 + _ROW_BLOCK]
                kp = (slab @ part.T).reshape(-1, S + 2, len(part))
                start = lo * len(tail) + t0
                yield slice(start, start + kp.shape[0] * len(part)), kp

    def quantile(self, x, beta: float):
        """beta-quantile of the posterior: m(x) + PHI^{-1}(beta) s(x)."""
        if not 0.5 <= beta < 1.0:
            raise ValueError(f"beta must lie in [0.5, 1), got {beta}")
        mean, var = self.posterior(x)
        q = mean + float(std_normal_quantile(beta)) * np.sqrt(var)
        return float(q) if np.isscalar(mean) or np.ndim(q) == 0 else q
