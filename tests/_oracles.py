"""Independent oracles shared by the unit and acceptance tests.

Everything here derives from first principles (dominance definitions, raw
density integration, exhaustive pairwise scans) rather than from the
package's closed-form code paths.
"""

import math

import numpy as np
from scipy.integrate import dblquad

from moeeqi.pareto import FrontPoint, ImprovementMode, ParetoFront


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
