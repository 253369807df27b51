"""Independent oracles shared by the unit and acceptance tests.

Everything here derives from first principles (dominance definitions, raw
density integration, exhaustive pairwise scans) rather than from the
package's closed-form code paths. The exceptions are the plain forms of
fast paths: the fit reference searches the package's likelihood value
without its gradient, the posterior reference solves against the Cholesky
factor per call, the strip reference evaluates both edges of every strip
through one-edge helpers, the batch-score reference takes the nearest front
point from the dense distance array, the bound reference finds each
candidate's split in a running pass per front point, the design reference
recomputes the whole MaxPro criterion on every trial swap, and the
selection reference scores every grid candidate exactly. The GP
linear-algebra references are the same computations through scipy's
validating wrappers (``cho_factor``, ``cho_solve``, ``solve_triangular``)
instead of the LAPACK routines behind them, and the L-BFGS-B reference is
``scipy.optimize.minimize`` around the routine that ``gp.minimize`` calls
directly, so the package must match them bit for bit.
"""

import math

import numpy as np
from scipy.integrate import dblquad
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from moeeqi.acquisition import quantile_posterior_arrays
from moeeqi.gp import (_COLD_STARTS, _JITTER_STEPS, _LOG_2PI, _WARM_STARTS, GpFitError,
                       KernelParams, _default_bounds, _factor_gram, _kernel,
                       _profiled_loglik, _sq_diffs, _unit_box, std_normal_cdf, std_normal_pdf)
from moeeqi.optimizer import _criterion
from moeeqi.pareto import (_ROUNDING, FrontPoint, ImprovementMode, ParetoFront, feasible_mask,
                           moeeqi_scores)
from moeeqi.problems import _DESIGN_MAX_SWEEPS, _DESIGN_RESTARTS, _latin_hypercube, _maxpro_terms


def brute_force_front(points):
    """O(n^2) pairwise-dominance scan returning the non-dominated subset in
    (q1, q2) order with first-seen duplicates kept."""
    kept = []
    for i, p in enumerate(points):
        dominated = False
        for j, r in enumerate(points):
            if i == j:
                continue
            if r.q1 <= p.q1 and r.q2 <= p.q2 and (r.q1 < p.q1 or r.q2 < p.q2):
                dominated = True
                break
            # exact duplicate: keep only the first occurrence
            if r.q1 == p.q1 and r.q2 == p.q2 and j < i:
                dominated = True
                break
        if not dominated:
            kept.append(p)
    return sorted(kept, key=lambda p: (p.q1, p.q2))


def front_metrics_reference(front, truth, penalty_factors=(5.0, 10.0)):
    """Per-point form of ``moeeqi.optimizer.front_metrics``: for each front
    point, the distance to its nearest truth point, multiplied by the penalty
    factor when no truth point dominates or equals it."""
    if len(truth) == 0:
        raise ValueError("truth front is empty")
    if len(front) == 0:
        return math.nan, {float(f): math.nan for f in penalty_factors}, 0
    tq1, tq2 = truth.q1s(), truth.q2s()
    dists = np.empty(len(front))
    overs = np.empty(len(front), dtype=bool)
    for j, p in enumerate(front):
        dists[j] = math.sqrt(float(np.min((tq1 - p.q1) ** 2 + (tq2 - p.q2) ** 2)))
        idx = int(np.searchsorted(tq1, p.q1, side="right")) - 1
        overs[j] = idx < 0 or tq2[idx] > p.q2
    penalized = {}
    for f in penalty_factors:
        penalized[float(f)] = float(np.mean(np.where(overs, float(f) * dists, dists)))
    return float(np.mean(dists)), penalized, len(front)


def region_membership(front, z1, z2, mode):
    """Membership of sampled quantile pairs in the improving region, from the
    dominance definition (not the strip algebra)."""
    t, z = front.q1s(), front.q2s()
    dominates_some = np.zeros_like(z1, dtype=bool)
    dominated = np.zeros_like(z1, dtype=bool)
    for a, b in zip(t, z):
        dominates_some |= (z1 <= a) & (z2 <= b)
        dominated |= (a <= z1) & (b <= z2)
    if mode is ImprovementMode.NON_AGGRESSIVE:
        return ~dominated
    return dominates_some | (z1 < t[0]) | ((z1 > t[-1]) & (z2 < z[-1]))


def mc_improvement(front, qp1, qp2, mode, n, rng):
    """Monte Carlo estimate of the improvement probability and the centroid.

    Returns (p_hat, p_se, c1_hat, c2_hat); the centroid entries are NaN when
    no draw lands in the region.
    """
    z1 = rng.normal(qp1.mean, qp1.sd, n)
    z2 = rng.normal(qp2.mean, qp2.sd, n)
    member = region_membership(front, z1, z2, mode)
    p_hat = member.mean()
    p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n)
    if member.any():
        return p_hat, p_se, z1[member].mean(), z2[member].mean()
    return p_hat, p_se, math.nan, math.nan


def _strips(front, mode):
    t, z = front.q1s(), front.q2s()
    m = len(front)
    aggressive = mode is ImprovementMode.AGGRESSIVE
    out = []
    for j in range(m + 1):
        a1 = -np.inf if j == 0 else t[j - 1]
        b1 = t[j] if j < m else np.inf
        if j == 0:
            top = np.inf
        elif j == m:
            top = z[m - 1]
        else:
            top = z[j] if aggressive else z[j - 1]
        out.append((a1, b1, top))
    return out


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


def improvement_terms_reference(front, mu1, sd1, mu2, sd2, mode):
    """Strip-by-strip (mass, num1, num2) that evaluates both q1 edges of every
    strip, in the accumulation order of ``pareto._improvement_terms``."""
    mass = np.zeros_like(mu1)
    num1 = np.zeros_like(mu1)
    num2 = np.zeros_like(mu1)
    for a1, b1, top in _strips(front, mode):
        mass1 = _cdf_mass(b1, mu1, sd1) - _cdf_mass(a1, mu1, sd1)
        mom1 = mu1 * mass1 - (_pdf_term(b1, mu1, sd1) - _pdf_term(a1, mu1, sd1))
        mass2 = _cdf_mass(top, mu2, sd2)
        mom2 = mu2 * mass2 - _pdf_term(top, mu2, sd2)
        mass += mass1 * mass2
        num1 += mom1 * mass2
        num2 += mass1 * mom2
    return mass, num1, num2


def moeeqi_scores_reference(front, mu1, sd1, mu2, sd2, mode):
    """Batch criterion from the two-edge strip reference: mass times the
    distance from the centroid to the nearest front point, taken over the
    dense (n, m) array of squared distances; zero where the mass is not
    positive."""
    mass, num1, num2 = improvement_terms_reference(front, mu1, sd1, mu2, sd2, mode)
    pos = mass > 0.0
    safe = np.where(pos, mass, 1.0)
    c1, c2 = num1 / safe, num2 / safe
    d2 = (c1[:, None] - front.q1s()[None, :]) ** 2 + (c2[:, None] - front.q2s()[None, :]) ** 2
    return np.where(pos, mass * np.sqrt(np.min(d2, axis=1)), 0.0)


def score_bounds_reference(front, mu1, sd1, mu2, sd2, mode):
    """Loop form of ``pareto._score_bounds`` over all candidates at once: one
    pass per front point keeps a running least larger standardized edge (a
    strict ``<``, so the first such split wins), its two edges, and the
    nearest squared distance."""
    pos1, pos2 = sd1 > 0.0, sd2 > 0.0
    safe1, safe2 = np.where(pos1, sd1, 1.0), np.where(pos2, sd2, 1.0)
    splits = [(a1, top) for a1, _, top in _strips(front, mode)[1:]]
    reach = max(abs(t) for t, _ in splits) + max(abs(top) for _, top in splits)
    least = a = b = sq = np.inf
    for (t, top), z in zip(splits, front.q2s()):
        d1 = t - mu1
        ak, bk = d1 / safe1, (top - mu2) / safe2
        w = np.maximum(ak, bk)
        better = w < least
        least, a, b = np.where(better, w, least), np.where(better, ak, a), np.where(better, bk, b)
        sq = np.minimum(sq, d1 * d1 + (z - mu2) ** 2)
    mass = np.where(pos1, std_normal_cdf(a), a >= 0.0) + np.where(pos2, std_normal_cdf(b), b >= 0.0)
    return (np.sqrt((sq + sd1 * sd1 + sd2 * sd2) * np.minimum(mass, 1.0))
            + _ROUNDING * (np.abs(mu1) + np.abs(mu2) + sd1 + sd2 + reach))


def quadrature_improvement(front, qp1, qp2, mode, epsabs=1e-13, epsrel=1e-10):
    """Adaptive 2-D quadrature of the improvement probability and centroid.

    Integrates the raw product density over each strip of the region with
    scipy's dblquad; the Gaussian tails are truncated at twelve standard
    deviations, far below the comparison tolerances.
    """
    inv1 = 1.0 / (qp1.sd * math.sqrt(2.0 * math.pi))
    inv2 = 1.0 / (qp2.sd * math.sqrt(2.0 * math.pi))

    def density(q2, q1):
        u = (q1 - qp1.mean) / qp1.sd
        w = (q2 - qp2.mean) / qp2.sd
        return inv1 * inv2 * math.exp(-0.5 * (u * u + w * w))

    lo1, hi1 = qp1.mean - 12 * qp1.sd, qp1.mean + 12 * qp1.sd
    lo2, hi2 = qp2.mean - 12 * qp2.sd, qp2.mean + 12 * qp2.sd
    mass = 0.0
    num1 = 0.0
    num2 = 0.0
    for a1, b1, top in _strips(front, mode):
        a = max(a1, lo1)
        b = min(b1, hi1)
        c = min(top, hi2)
        if a >= b or lo2 >= c:
            continue
        kw = dict(epsabs=epsabs, epsrel=epsrel)
        mass += dblquad(density, a, b, lo2, c, **kw)[0]
        num1 += dblquad(lambda q2, q1: q1 * density(q2, q1), a, b, lo2, c, **kw)[0]
        num2 += dblquad(lambda q2, q1: q2 * density(q2, q1), a, b, lo2, c, **kw)[0]
    if mass <= 0.0:
        return 0.0, math.nan, math.nan
    return mass, num1 / mass, num2 / mass


def kernel_eval(params, x, y) -> float:
    """Squared-exponential covariance between two control points, one point
    pair at a time: process_variance * exp(-sum_k (x_k - y_k)^2 / (2 l_k^2))."""
    z = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) / params.lengthscales
    return float(params.process_variance * np.exp(-0.5 * np.dot(z, z)))


def nearest_front_point(front, q):
    """Front member closest in Euclidean distance to ``q``; ties go to the
    smaller-q1 point."""
    if len(front) == 0:
        raise ValueError("front is empty")
    d2 = (front.q1s() - q[0]) ** 2 + (front.q2s() - q[1]) ** 2
    return front[int(np.argmin(d2))]


def random_front(rng, size, lo=-2.0, hi=2.0):
    """Strictly staircase-shaped front with the given number of points."""
    q1 = np.sort(rng.uniform(lo, hi, size))
    q2 = np.sort(rng.uniform(lo, hi, size))[::-1]
    q1 += np.arange(size) * 1e-3  # enforce strictness under duplicates
    q2 -= np.arange(size) * 1e-3
    return ParetoFront([FrontPoint(float(a), float(b)) for a, b in zip(q1, q2)])


def nelder_mead_fit_reference(X, y, noise, rng=None, warm_start=None):
    """Derivative-free form of ``moeeqi.gp.fit_hyperparameters``: multi-start
    Nelder-Mead on the profiled likelihood value alone, in the responses'
    own units, from the same kind of start points (box center and draws; a
    warm start clipped to the box first)."""
    rng = np.random.default_rng(rng if rng is not None else 0)
    sq_diffs = _sq_diffs(X)
    box = _default_bounds(X, float(np.var(y)) or 1.0)
    log_box = [(math.log(lo), math.log(hi)) for lo, hi in box]

    def objective(theta):
        try:
            return -_profiled_loglik(y, noise, math.exp(theta[0]), np.exp(theta[1:]), sq_diffs)[0]
        except GpFitError:
            return np.inf

    starts = []
    if warm_start is not None:
        theta_w = np.log(np.r_[warm_start.process_variance, warm_start.lengthscales])
        starts.append(np.clip(theta_w, [b[0] for b in log_box], [b[1] for b in log_box]))
    starts.append(np.array([0.5 * (lo + hi) for lo, hi in log_box]))
    for _ in range((_COLD_STARTS if warm_start is None else _WARM_STARTS) - len(starts)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in log_box]))

    best_theta, best_val = None, np.inf
    for theta0 in starts:
        res = minimize(objective, theta0, method="Nelder-Mead", bounds=log_box,
                       options={"xatol": 1e-5, "fatol": 1e-7, "maxiter": 200 * theta0.size})
        if np.isfinite(res.fun) and res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None:
        raise GpFitError("no positive-definite covariance found at any restart")
    return KernelParams(math.exp(best_theta[0]), np.exp(best_theta[1:]))


def posterior_reference(dataset, params, x, control_bounds=None):
    """Posterior mean and variance at the (n, v) stack ``x`` in the plain
    form: solves against the Cholesky factor of the Gram matrix for all
    candidates at once, with no cached projection and no row blocks."""
    lb, span = _unit_box(control_bounds, dataset.dim)
    X = (dataset.locations() - lb) / span
    y = dataset.means()
    K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(X))
    cho = (_factor_gram(K, dataset.variances(), params.process_variance)[0], True)
    ones = np.ones(len(dataset))
    Cinv_one = cho_solve(cho, ones, check_finite=False)
    one_Cinv_one = float(ones @ Cinv_one)
    beta0 = float(Cinv_one @ y) / one_Cinv_one
    alpha = cho_solve(cho, y - beta0, check_finite=False)
    Xq = (np.atleast_2d(np.asarray(x, dtype=float)) - lb) / span
    k = _kernel(params.process_variance, params.lengthscales, _sq_diffs(Xq, X))  # (n, S)
    mean = beta0 + k @ alpha
    Cinv_k = cho_solve(cho, k.T, check_finite=False)  # (S, n)
    quad = np.einsum("ij,ji->i", k, Cinv_k)
    h = 1.0 - k @ Cinv_one
    var = params.process_variance - quad + h * h / one_Cinv_one
    return mean, np.maximum(var, 0.0)


def maxpro_criterion(design):
    """The maximum-projection criterion of a design in the unit cube: the
    sum over point pairs of 1 / prod_k (x_jk - x_lk)^2; lower is better."""
    inv = _maxpro_terms(design, design)
    iu = np.triu_indices(design.shape[0], k=1)
    return float(np.sum(inv[iu]))


def initial_design_reference(s, bounds, rng):
    """``moeeqi.problems.initial_design`` with the whole MaxPro criterion
    recomputed after every trial swap."""
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    v = bounds.shape[0]
    rng = np.random.default_rng(rng)
    best, best_crit = None, np.inf
    for _ in range(_DESIGN_RESTARTS):
        design = _latin_hypercube(s, v, rng)
        crit = maxpro_criterion(design)
        for _ in range(_DESIGN_MAX_SWEEPS):
            improved = False
            for k in range(v):
                for i in range(s - 1):
                    for j in range(i + 1, s):
                        design[i, k], design[j, k] = design[j, k], design[i, k]
                        trial = maxpro_criterion(design)
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


def factor_gram_reference(K, noise, process_variance):
    """``moeeqi.gp._factor_gram`` through ``cho_factor``: the same jitter
    ladder, a failed rung seen as ``LinAlgError``."""
    C = K.copy()
    diag = C.reshape(-1)[:: C.shape[0] + 1]
    diag += noise
    base = diag.copy()
    for step in _JITTER_STEPS:
        jitter = process_variance * 1e-8 * step
        np.add(base, jitter, out=diag)
        try:
            return cho_factor(C, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            continue
    raise GpFitError("covariance matrix is not positive definite even with maximal jitter")


def profiled_loglik_reference(y, noise, process_variance, lengthscales, sq_diffs):
    """``moeeqi.gp._profiled_loglik`` through ``cho_solve``, with the
    arithmetic in the same order."""
    S = y.size
    K = _kernel(process_variance, lengthscales, sq_diffs)
    cho, jitter = factor_gram_reference(K, noise, process_variance)
    rhs = np.empty((S, 2))
    rhs[:, 0] = 1.0
    rhs[:, 1] = y
    solved = cho_solve(cho, rhs, check_finite=False)
    u = solved[:, 0]
    denom = float(np.sum(u))
    one_Cinv_y = float(np.sum(solved[:, 1]))
    y_Cinv_y = float(y @ solved[:, 1])
    quad = y_Cinv_y - one_Cinv_y**2 / denom
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    value = -0.5 * (quad + logdet + math.log(denom) + (S - 1) * _LOG_2PI)
    a = solved[:, 1] - u * (one_Cinv_y / denom)
    W = np.outer(a, a) - cho_solve(cho, np.eye(S), check_finite=False)
    W += np.outer(u, u / denom)
    WK = W * K
    grad = np.empty(lengthscales.size + 1)
    grad[0] = 0.5 * (float(np.sum(WK)) + jitter * float(np.trace(W)))
    grad[1:] = 0.5 * (sq_diffs.reshape(lengthscales.size, -1) @ WK.reshape(-1)) / lengthscales**2
    return value, grad


def lbfgsb_reference(fun, x0, bounds):
    """``moeeqi.gp.minimize`` through ``scipy.optimize.minimize``, with its
    default L-BFGS-B settings and ``fun`` returning the value and gradient."""
    return minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=bounds)


def emulator_projection_reference(dataset, params, control_bounds=None):
    """``GpEmulator``'s cached ``(_proj, beta0, jitter_used)`` through
    ``cho_solve`` and ``solve_triangular``."""
    lb, span = _unit_box(control_bounds, dataset.dim)
    X = (dataset.locations() - lb) / span
    y = dataset.means()
    K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(X))
    cho, jitter = factor_gram_reference(K, dataset.variances(), params.process_variance)
    ones = np.ones(len(dataset))
    Cinv_one = cho_solve(cho, ones, check_finite=False)
    beta0 = float(Cinv_one @ y) / float(ones @ Cinv_one)
    L_inv = solve_triangular(cho[0], np.eye(len(dataset)), lower=True, check_finite=False)
    proj = np.column_stack([cho_solve(cho, y - beta0, check_finite=False), Cinv_one, L_inv.T])
    return proj, beta0, jitter


def select_reference(state, front, grid, mode, axes=None):
    """The selection by full argmax: every grid candidate scored exactly,
    infeasible ones set to zero, first on ties; the maximum summed posterior
    variance when nothing scores above zero. ``axes``, the grid's
    per-coordinate values when it is a lattice, go to the posterior. Returns
    (point, score, fallback)."""
    beta, sigma2_future = _criterion(state)
    mq = np.empty((grid.shape[0], 2))
    sq = np.empty_like(mq)
    var_sum = np.zeros(grid.shape[0])
    for i, em in enumerate(state.emulators):
        m, s2 = em.posterior(grid, axes=axes)
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
