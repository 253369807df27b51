"""Tests for front maintenance and the Euclidean improvement criterion."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from _oracles import (
    brute_force_front,
    mc_improvement,
    nearest_front_point,
    quadrature_improvement,
    random_front,
)
from moeeqi.acquisition import QuantilePosterior
from moeeqi.pareto import (
    ConstraintSpec,
    FrontPoint,
    ImprovementMode,
    ParetoFront,
    ZeroProbabilityError,
    build_front,
    centroid,
    feasible_mask,
    moeeqi,
    moeeqi_scores,
    probability_of_improvement,
)

_ND = NormalDist()
AGG = ImprovementMode.AGGRESSIVE
NONAGG = ImprovementMode.NON_AGGRESSIVE


def _front(*pairs):
    return ParetoFront([FrontPoint(float(a), float(b)) for a, b in pairs])


# ---------------------------------------------------------------------------
# Front construction
# ---------------------------------------------------------------------------


class TestBuildFront:
    def test_hand_checkable_dominance(self):
        pts = [FrontPoint(1, 3), FrontPoint(2, 2), FrontPoint(3, 1), FrontPoint(2.5, 2.5)]
        front = build_front(pts)
        assert [(p.q1, p.q2) for p in front] == [(1, 3), (2, 2), (3, 1)]

    def test_single_candidate(self):
        front = build_front([FrontPoint(0.3, 0.7)])
        assert len(front) == 1 and front[0].q1 == 0.3

    def test_empty_allowed(self):
        assert len(build_front([])) == 0

    def test_duplicates_keep_first_seen(self):
        a = FrontPoint(1.0, 1.0, source=np.array([0.1]))
        b = FrontPoint(1.0, 1.0, source=np.array([0.9]))
        front = build_front([a, b])
        assert len(front) == 1
        assert front[0].source[0] == 0.1

    def test_matches_quadratic_oracle_on_random_points(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = 200 if trial < 4 else 500
            pts = [FrontPoint(*map(float, rng.uniform(0, 1, 2))) for _ in range(n)]
            fast = build_front(pts)
            slow = brute_force_front(pts)
            assert [(p.q1, p.q2) for p in fast] == [(p.q1, p.q2) for p in slow]

    def test_staircase_invariant(self):
        rng = np.random.default_rng(1)
        pts = [FrontPoint(*map(float, rng.normal(size=2))) for _ in range(300)]
        front = build_front(pts)
        q1 = front.q1s()
        q2 = front.q2s()
        assert np.all(np.diff(q1) > 0)
        assert np.all(np.diff(q2) < 0)

    def test_constraint_filtering_drops_violating_candidates(self):
        pts = [FrontPoint(0.5, 3.0), FrontPoint(1.0, 1.0), FrontPoint(3.0, 0.5)]
        spec = ConstraintSpec((2.0, 2.0))
        sd = np.zeros((3, 2))
        front = build_front(pts, constraints=spec, noise_sd=sd, beta=0.7)
        assert [(p.q1, p.q2) for p in front] == [(1.0, 1.0)]

    def test_noise_adjustment_widens_the_feasible_set(self):
        # value 2.3 vs bound 2.0: infeasible with no noise, feasible once the
        # quantile sd slack PHI^{-1}(0.7) * 0.6 > 0.3 is granted
        pts = [FrontPoint(2.3, 0.0)]
        spec = ConstraintSpec((2.0, None))
        tight = build_front(pts, constraints=spec, noise_sd=np.array([[0.0, 0.0]]), beta=0.7)
        slack = build_front(pts, constraints=spec, noise_sd=np.array([[0.6, 0.0]]), beta=0.7)
        assert len(tight) == 0
        assert len(slack) == 1

    def test_literal_formula_uses_variance_instead_of_sd(self):
        pts = [FrontPoint(2.3, 0.0)]
        spec = ConstraintSpec((2.0, None))
        sd = np.array([[0.6, 0.0]])
        corrected = build_front(pts, constraints=spec, noise_sd=sd, beta=0.7, literal_formula=False)
        literal = build_front(pts, constraints=spec, noise_sd=sd, beta=0.7, literal_formula=True)
        # sd slack 0.524*0.6 = 0.315 admits the point; variance slack
        # 0.524*0.36 = 0.189 does not
        assert len(corrected) == 1
        assert len(literal) == 0

    def test_feasible_mask_no_constraints_keeps_all(self):
        q = np.array([[1.0, 2.0], [5.0, 5.0]])
        assert feasible_mask(q, None, None).all()
        assert feasible_mask(q, None, ConstraintSpec((None, None))).all()


# ---------------------------------------------------------------------------
# Nearest front point
# ---------------------------------------------------------------------------


class TestNearestFrontPoint:
    def test_simple(self):
        front = _front((0, 1), (1, 0))
        assert nearest_front_point(front, (0.0, 0.9)).q1 == 0

    def test_tie_breaks_to_smaller_q1(self):
        front = _front((0, 1), (1, 0))
        hit = nearest_front_point(front, (0.5, 0.5))
        assert hit.q1 == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            front = random_front(rng, int(rng.integers(1, 8)))
            q = rng.normal(size=2)
            best = min(front, key=lambda p: ((p.q1 - q[0]) ** 2 + (p.q2 - q[1]) ** 2, p.q1))
            assert nearest_front_point(front, q) is best

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            nearest_front_point(ParetoFront([]), (0.0, 0.0))


# ---------------------------------------------------------------------------
# Probability of improvement
# ---------------------------------------------------------------------------


class TestProbabilityOfImprovement:
    def test_far_dominating_limit(self):
        front = _front((0, 0))
        qp = QuantilePosterior(-10.0, 1.0)
        for mode in ImprovementMode:
            assert probability_of_improvement(front, qp, qp, mode) > 1.0 - 1e-12

    def test_far_dominated_limit(self):
        front = _front((0, 0))
        qp = QuantilePosterior(10.0, 1.0)
        for mode in ImprovementMode:
            assert probability_of_improvement(front, qp, qp, mode) < 1e-12

    def test_single_point_symmetric_value(self):
        # complement of the upper-right quadrant for independent N(0,1) pairs
        front = _front((0, 0))
        qp = QuantilePosterior(0.0, 1.0)
        assert abs(probability_of_improvement(front, qp, qp, AGG) - 0.75) < 1e-12

    def test_matches_monte_carlo_both_modes(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            front = random_front(rng, int(rng.integers(1, 7)))
            qp1 = QuantilePosterior(rng.uniform(-2, 2), rng.uniform(0.1, 1.5))
            qp2 = QuantilePosterior(rng.uniform(-2, 2), rng.uniform(0.1, 1.5))
            for mode in ImprovementMode:
                p = probability_of_improvement(front, qp1, qp2, mode)
                p_hat, se, _, _ = mc_improvement(front, qp1, qp2, mode, 200_000, rng)
                assert abs(p - p_hat) < 4 * max(se, 1e-6)

    def test_aggressive_never_exceeds_non_aggressive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            front = random_front(rng, int(rng.integers(1, 7)))
            qp1 = QuantilePosterior(rng.uniform(-3, 3), rng.uniform(0.0, 2.0))
            qp2 = QuantilePosterior(rng.uniform(-3, 3), rng.uniform(0.0, 2.0))
            p_a = probability_of_improvement(front, qp1, qp2, AGG)
            p_n = probability_of_improvement(front, qp1, qp2, NONAGG)
            assert 0.0 <= p_a <= p_n <= 1.0

    def test_degenerate_sd_uses_indicators(self):
        front = _front((0, 0))
        inside = QuantilePosterior(-1.0, 0.0)
        outside = QuantilePosterior(1.0, 0.0)
        assert probability_of_improvement(front, inside, inside, AGG) == 1.0
        assert probability_of_improvement(front, outside, outside, AGG) == 0.0

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            probability_of_improvement(ParetoFront([]), QuantilePosterior(0, 1), QuantilePosterior(0, 1), AGG)


# ---------------------------------------------------------------------------
# Centroid
# ---------------------------------------------------------------------------


class TestCentroid:
    def test_single_point_symmetric_case(self):
        # For a front at the origin and independent N(0,1) quantiles the
        # region is the complement of the upper-right quadrant, so
        # E[z_j 1] = -phi(0)/2 by the complement identity and each centroid
        # coordinate is (-phi(0)/2) / (3/4).
        front = _front((0, 0))
        qp = QuantilePosterior(0.0, 1.0)
        expected = -_ND.pdf(0.0) / 2.0 / 0.75
        c1, c2 = centroid(front, qp, qp, AGG)
        assert abs(c1 - expected) < 1e-12
        assert abs(c2 - expected) < 1e-12

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            front = random_front(rng, int(rng.integers(1, 5)))
            qp1 = QuantilePosterior(rng.uniform(-1, 1), rng.uniform(0.3, 1.0))
            qp2 = QuantilePosterior(rng.uniform(-1, 1), rng.uniform(0.3, 1.0))
            for mode in ImprovementMode:
                p, c1_ref, c2_ref = quadrature_improvement(front, qp1, qp2, mode)
                c1, c2 = centroid(front, qp1, qp2, mode)
                assert abs(c1 - c1_ref) < 1e-6 * max(abs(c1_ref), 1.0)
                assert abs(c2 - c2_ref) < 1e-6 * max(abs(c2_ref), 1.0)

    def test_point_mass_inside_region_returns_the_mean(self):
        front = _front((0, 1), (1, 0))
        qp1 = QuantilePosterior(-0.5, 0.0)
        qp2 = QuantilePosterior(-0.25, 0.0)
        assert centroid(front, qp1, qp2, AGG) == (-0.5, -0.25)

    def test_zero_probability_region_raises(self):
        front = _front((0, 0))
        dominated = QuantilePosterior(1.0, 0.0)
        with pytest.raises(ZeroProbabilityError):
            centroid(front, dominated, dominated, AGG)


# ---------------------------------------------------------------------------
# MO-E-EQI criterion
# ---------------------------------------------------------------------------


class TestMoeeqi:
    def test_zero_probability_gives_zero(self):
        front = _front((0, 0))
        dominated = QuantilePosterior(1.0, 0.0)
        assert moeeqi(front, dominated, dominated, AGG) == 0.0

    def test_composes_probability_and_centroid(self):
        front = _front((0, 0))
        qp = QuantilePosterior(0.0, 1.0)
        p = probability_of_improvement(front, qp, qp, AGG)
        c = centroid(front, qp, qp, AGG)
        ref = nearest_front_point(front, c)
        expected = p * math.hypot(c[0] - ref.q1, c[1] - ref.q2)
        assert abs(moeeqi(front, qp, qp, AGG) - expected) < 1e-12
        assert abs(p - 0.75) < 1e-12

    def test_far_dominating_deterministic_limit(self):
        front = _front((0, 1), (1, 0))
        qp1 = QuantilePosterior(-3.0, 1e-12)
        qp2 = QuantilePosterior(-4.0, 1e-12)
        ref = nearest_front_point(front, (-3.0, -4.0))
        expected = math.hypot(-3.0 - ref.q1, -4.0 - ref.q2)
        assert abs(moeeqi(front, qp1, qp2, AGG) - expected) < 1e-9

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            front = random_front(rng, int(rng.integers(1, 7)))
            qp1 = QuantilePosterior(rng.uniform(-4, 4), rng.uniform(0.0, 2.0))
            qp2 = QuantilePosterior(rng.uniform(-4, 4), rng.uniform(0.0, 2.0))
            for mode in ImprovementMode:
                assert moeeqi(front, qp1, qp2, mode) >= 0.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        shift = np.array([2.5, -1.75])
        for _ in range(20):
            front = random_front(rng, int(rng.integers(1, 6)))
            qp1 = QuantilePosterior(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
            qp2 = QuantilePosterior(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
            moved = ParetoFront(
                [FrontPoint(p.q1 + shift[0], p.q2 + shift[1]) for p in front]
            )
            qp1_m = QuantilePosterior(qp1.mean + shift[0], qp1.sd)
            qp2_m = QuantilePosterior(qp2.mean + shift[1], qp2.sd)
            for mode in ImprovementMode:
                p0 = probability_of_improvement(front, qp1, qp2, mode)
                p1 = probability_of_improvement(moved, qp1_m, qp2_m, mode)
                assert abs(p0 - p1) < 1e-10
                if p0 > 1e-12:
                    c0 = centroid(front, qp1, qp2, mode)
                    c1 = centroid(moved, qp1_m, qp2_m, mode)
                    assert abs(c1[0] - c0[0] - shift[0]) < 1e-10
                    assert abs(c1[1] - c0[1] - shift[1]) < 1e-10

    def test_vectorized_scores_match_scalar(self):
        # reference: probability times the distance from the centroid to the
        # nearest front point, found by the oracle's one-point scan
        rng = np.random.default_rng(8)
        front = random_front(rng, 4)
        n = 64
        mu1 = rng.uniform(-3, 3, n)
        sd1 = rng.uniform(0.0, 1.5, n)
        mu2 = rng.uniform(-3, 3, n)
        sd2 = rng.uniform(0.0, 1.5, n)
        for mode in ImprovementMode:
            vec = moeeqi_scores(front, mu1, sd1, mu2, sd2, mode)
            for i in range(n):
                qp1 = QuantilePosterior(mu1[i], sd1[i])
                qp2 = QuantilePosterior(mu2[i], sd2[i])
                p = probability_of_improvement(front, qp1, qp2, mode)
                expected = 0.0
                if p > 0.0:
                    c = centroid(front, qp1, qp2, mode)
                    ref = nearest_front_point(front, c)
                    expected = p * math.hypot(c[0] - ref.q1, c[1] - ref.q2)
                assert abs(vec[i] - expected) < 1e-12
                assert moeeqi(front, qp1, qp2, mode) == vec[i]


def test_front_class_rejects_non_staircase_order():
    with pytest.raises(ValueError):
        ParetoFront([FrontPoint(0, 0), FrontPoint(1, 1)])
    with pytest.raises(ValueError):
        ParetoFront([FrontPoint(1, 1), FrontPoint(0, 2), FrontPoint(2, 0)])
