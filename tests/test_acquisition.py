"""Tests for the expected quantile improvement machinery and replication
variance bookkeeping."""

import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from moeeqi.acquisition import (
    QuantilePosterior,
    ReplicationVarianceError,
    eqi,
    future_noise,
    merge_replicate,
    quantile_posterior,
    quantile_posterior_arrays,
    replication_variance,
)
from moeeqi.gp import GpDataset, NoisyObservation

_ND = NormalDist()


# ---------------------------------------------------------------------------
# One-step-ahead quantile posterior
# ---------------------------------------------------------------------------


class TestQuantilePosterior:
    def test_noiseless_future_collapses_to_current_posterior(self):
        qp = quantile_posterior(m=1.5, s2=0.49, sigma2_new=0.0, beta=0.8)
        assert qp.mean == 1.5
        assert abs(qp.sd - 0.7) < 1e-14

    def test_resolved_point_cannot_improve(self):
        qp = quantile_posterior(m=2.0, s2=0.0, sigma2_new=3.0, beta=0.9)
        assert qp == QuantilePosterior(2.0, 0.0)
        # both variances zero hits the degenerate branch too
        assert quantile_posterior(2.0, 0.0, 0.0, 0.9) == QuantilePosterior(2.0, 0.0)

    def test_symmetric_unit_case_against_independent_inverse_normal(self):
        qp = quantile_posterior(m=0.0, s2=1.0, sigma2_new=1.0, beta=0.8)
        assert abs(qp.mean - _ND.inv_cdf(0.8) * math.sqrt(0.5)) < 1e-12
        assert abs(qp.sd - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            quantile_posterior(0.0, 1.0, 1.0, 0.4)
        with pytest.raises(ValueError):
            quantile_posterior(0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("build, field", [
        (lambda: quantile_posterior(0.0, math.nan, 0.1, 0.7), "s2"),
        (lambda: quantile_posterior(0.0, -1.0, 0.1, 0.7), "s2"),
        (lambda: quantile_posterior(0.0, 1.0, math.inf, 0.7), "sigma2_new"),
        (lambda: quantile_posterior(0.0, 1.0, -0.1, 0.7), "sigma2_new"),
        (lambda: quantile_posterior(math.nan, 1.0, 0.1, 0.7), "mean"),
        (lambda: QuantilePosterior(math.nan, math.nan), "mean"),
        (lambda: QuantilePosterior(-math.inf, 1.0), "mean"),
        (lambda: QuantilePosterior(0.0, math.inf), "sd"),
        (lambda: QuantilePosterior(0.0, -1.0), "sd"),
    ])
    def test_invalid_values_raise_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_sd_identity_and_mean_dominance(self):
        # s_Q^2 (s^2 + sigma^2) = s^4 and m_Q >= m for beta >= 0.5
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.normal()
            s2 = rng.uniform(1e-6, 4.0)
            sig2 = rng.uniform(0.0, 4.0)
            beta = rng.uniform(0.5, 0.999)
            qp = quantile_posterior(m, s2, sig2, beta)
            assert abs(qp.sd**2 * (s2 + sig2) - s2**2) <= 1e-12 * s2**2
            assert qp.mean >= m - 1e-12

    def test_variances_whose_sum_overflows_give_the_finite_sd(self):
        # var + sigma2_new is past the float limit; sd = var / sqrt(var + sigma2_new)
        # is sqrt(1e308 / 2) and the shift z times that, with no overflow warning
        z = _ND.inv_cdf(0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, sd = quantile_posterior_arrays(np.array([1.0, 2.0, 0.0]),
                                                 np.array([1e308, 1.0, np.inf]), 1e308, 0.7)
            qp = quantile_posterior(1.0, 1e308, 1e308, 0.7)
        expected_sd = math.sqrt(0.5e308)
        assert sd[0] == pytest.approx(expected_sd, rel=1e-15)
        assert mean[0] == pytest.approx(1.0 + z * expected_sd, rel=1e-14)
        assert (qp.mean, qp.sd) == (mean[0], sd[0])
        # the entries whose sum is finite are as before; an infinite var stays NaN
        assert (mean[1], sd[1]) == quantile_posterior_arrays(2.0, 1.0, 1e308, 0.7)
        assert math.isnan(mean[2]) and math.isnan(sd[2])

    def test_scalar_form_equals_array_form_elementwise(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=40)
        s2 = rng.uniform(0.0, 4.0, size=40)
        sig2 = rng.uniform(0.0, 4.0, size=40)
        s2[:10] = 0.0  # resolved points with noisy future observations
        s2[10:15] = sig2[10:15] = 0.0  # s2 + sigma^2 == 0
        sig2[15:20] = 0.0  # noiseless future observations
        for beta in (0.5, 0.7, 0.95):
            for sigma2 in np.unique(sig2):
                mean, sd = quantile_posterior_arrays(m, s2, sigma2, beta)
                for j in range(m.size):
                    qp = quantile_posterior(m[j], s2[j], sigma2, beta)
                    assert qp.mean == mean[j]
                    assert qp.sd == sd[j]

    def test_sd_never_exceeds_current_posterior_sd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s2 = rng.uniform(1e-6, 4.0)
            qp = quantile_posterior(0.0, s2, rng.uniform(0.0, 4.0), 0.7)
            assert qp.sd <= math.sqrt(s2) + 1e-12


# ---------------------------------------------------------------------------
# Closed-form EQI
# ---------------------------------------------------------------------------


class TestEqi:
    def test_degenerate_no_uncertainty(self):
        assert eqi(QuantilePosterior(1.0, 0.0), 0.5) == 0.0
        assert eqi(QuantilePosterior(1.0, 0.0), 1.75) == 0.75

    def test_symmetric_case_is_pdf_at_zero(self):
        val = eqi(QuantilePosterior(2.0, 1.0), 2.0)
        assert abs(val - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_unit_case_against_monte_carlo(self):
        qp = QuantilePosterior(0.0, 1.0)
        closed = eqi(qp, 1.0)
        assert abs(closed - (_ND.cdf(1.0) + _ND.pdf(1.0))) < 1e-12
        rng = np.random.default_rng(2)
        draws = np.maximum(1.0 - rng.normal(qp.mean, qp.sd, 1_000_000), 0.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(closed - draws.mean()) < 3 * se

    def test_nonnegative_and_monotone_in_target(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            qp = QuantilePosterior(rng.normal(), rng.uniform(0, 2))
            targets = np.sort(rng.normal(size=8))
            vals = [eqi(qp, t) for t in targets]
            assert all(v >= 0.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_reduces_to_classical_ei(self):
        # with a noiseless future observation and beta = 0.5 the criterion is
        # exactly expected improvement over the posterior
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = rng.normal()
            s2 = rng.uniform(1e-8, 4.0)
            q_star = rng.normal()
            qp = quantile_posterior(m, s2, 0.0, 0.5)
            s = math.sqrt(s2)
            u = (q_star - m) / s
            ei = (q_star - m) * _ND.cdf(u) + s * _ND.pdf(u)
            assert abs(eqi(qp, q_star) - ei) < 1e-12


# ---------------------------------------------------------------------------
# Future-noise rule
# ---------------------------------------------------------------------------


def _ds(variances):
    return GpDataset(
        [NoisyObservation([float(j)], 0.0, v) for j, v in enumerate(variances)]
    )


class TestFutureNoise:
    def test_maximum_over_design(self):
        assert future_noise([_ds([1.0, 4.0, 2.0])]) == [4.0]

    def test_single_exact_point(self):
        assert future_noise([_ds([0.0])]) == [0.0]

    def test_per_objective_values(self):
        assert future_noise([_ds([1.0, 4.0]), _ds([0.5, 0.25])]) == [4.0, 0.5]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            future_noise([GpDataset([])])

    def test_reflects_replication_update(self):
        # the noisiest design point is replicated; the conservative rule must
        # track its shrunken variance
        rng = np.random.default_rng(5)
        n = 20
        z1 = rng.normal(0.0, 10.0, n)
        ds = _ds([1.0, 2.0])
        big = NoisyObservation(ds[1].location, float(z1.mean()), float(z1.var(ddof=1) / n))
        ds = GpDataset([ds[0], big])
        assert future_noise([ds])[0] == big.variance
        assert big.variance > 1.0
        z2 = rng.normal(0.0, 1.0, n)
        merged = merge_replicate(ds[1], float(z2.mean()), float(z2.var(ddof=1) / n), n)
        ds = GpDataset([ds[0], merged])
        assert merged.variance < big.variance
        assert future_noise([ds])[0] == max(1.0, merged.variance)


# ---------------------------------------------------------------------------
# Replication variance
# ---------------------------------------------------------------------------


class TestReplicationVariance:
    def test_equal_split_returns_original(self):
        assert replication_variance(2.0, 1.0) == 2.0

    def test_direct_evaluation(self):
        assert abs(replication_variance(1.0, 0.25) - 1.0 / 3.0) < 1e-15

    def test_halving_identity_exact(self):
        for v in (0.125, 1.0, 7.5):
            assert replication_variance(v, v / 2.0) == v

    def test_growth_rejected(self):
        with pytest.raises(ReplicationVarianceError):
            replication_variance(1.0, 1.1)
        with pytest.raises(ReplicationVarianceError):
            replication_variance(1.0, 1.0)

    @pytest.mark.parametrize("var_n, var_2n", [(0.0, 0.5), (1.0, 0.0), (-1.0, -2.0)])
    def test_non_positive_variances_rejected(self, var_n, var_2n):
        with pytest.raises(ValueError, match="positive"):
            replication_variance(var_n, var_2n)


# ---------------------------------------------------------------------------
# Pooling repeated batches
# ---------------------------------------------------------------------------


class TestMergeReplicate:
    def test_balanced_means(self):
        old = NoisyObservation([0.5], 1.0, 0.5)
        merged = merge_replicate(old, 3.0, 0.5, n=10)
        assert merged.mean == 2.0
        assert merged.replications == 2

    def test_matches_concatenated_sample(self):
        rng = np.random.default_rng(6)
        n = 25
        z1 = rng.normal(1.0, 1.5, n)
        z2 = rng.normal(1.0, 1.5, n)
        old = NoisyObservation([0.1], float(z1.mean()), float(z1.var(ddof=1) / n))
        merged = merge_replicate(old, float(z2.mean()), float(z2.var(ddof=1) / n), n)
        z = np.concatenate([z1, z2])
        assert abs(merged.mean - z.mean()) < 1e-10
        assert abs(merged.variance - z.var(ddof=1) / (2 * n)) < 1e-10

    def test_three_batches_cumulative(self):
        rng = np.random.default_rng(7)
        n = 15
        batches = [rng.normal(0.5, 1.0, n) for _ in range(3)]
        obs = NoisyObservation([0.0], float(batches[0].mean()), float(batches[0].var(ddof=1) / n))
        for b in batches[1:]:
            obs = merge_replicate(obs, float(b.mean()), float(b.var(ddof=1) / n), n)
        z = np.concatenate(batches)
        assert obs.replications == 3
        assert abs(obs.mean - z.mean()) < 1e-10
        assert abs(obs.variance - z.var(ddof=1) / (3 * n)) < 1e-10

    def test_fluke_growth_falls_back_to_precision_weighting(self):
        # a wildly spread second batch makes the concatenated variance grow;
        # the merge must then contract via precision weights instead
        old = NoisyObservation([0.0], 0.0, 0.01)
        merged = merge_replicate(old, 5.0, 4.0, n=10)
        w_old, w_new = 1.0 / 0.01, 1.0 / 4.0
        assert abs(merged.mean - (w_new * 5.0) / (w_old + w_new)) < 1e-12
        assert abs(merged.variance - 1.0 / (w_old + w_new)) < 1e-12
        assert merged.variance < old.variance

    @pytest.mark.parametrize("new_var", [5e-324, 1e-307])
    def test_tiny_batch_variance_keeps_the_mean_finite(self, new_var):
        # 1 / new_var overflows, or its product with the mean does; the far
        # more precise new batch then carries the pooled mean
        old = NoisyObservation([0.0], 0.0, 0.0625)
        merged = merge_replicate(old, 1e3, new_var, n=2)
        assert merged.mean == 1e3
        assert 0.0 <= merged.variance <= new_var

    def test_location_is_preserved(self):
        old = NoisyObservation([0.25, 0.75], 1.0, 0.5)
        merged = merge_replicate(old, 1.5, 0.5, n=5)
        assert np.array_equal(merged.location, old.location)

    @pytest.mark.parametrize("new_var, n, message", [
        (0.5, 1, "batch size"),
        (-0.5, 5, "batch variance"),
    ])
    def test_invalid_batch_rejected(self, new_var, n, message):
        with pytest.raises(ValueError, match=message):
            merge_replicate(NoisyObservation([0.0], 1.0, 0.5), 1.5, new_var, n)
