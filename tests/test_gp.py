"""Tests for the stochastic-kriging emulator and standard-normal utilities."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from moeeqi.gp import (
    GpDataset,
    GpEmulator,
    GpFitError,
    KernelParams,
    NoisyObservation,
    fit_hyperparameters,
    log_marginal_likelihood,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from moeeqi.gp import _factorize, _kernel_matrix

from _oracles import kernel_eval

_ND = NormalDist()  # independent stdlib implementation used as oracle


def _dataset(rng, size, dim, noise=(0.01, 0.5)):
    X = rng.uniform(-1.0, 2.0, size=(size, dim))
    y = rng.normal(size=size)
    v = rng.uniform(*noise, size=size)
    return GpDataset([NoisyObservation(X[j], y[j], v[j]) for j in range(size)])


def _dense_posterior(X, y, noise, params, xq):
    """From-scratch dense-solve evaluation of the posterior equations."""
    S, v = X.shape

    def kern(a, b):
        return params.process_variance * math.exp(
            -0.5 * sum((a[k] - b[k]) ** 2 / params.lengthscales[k] ** 2 for k in range(v))
        )

    C = np.array([[kern(X[i], X[j]) for j in range(S)] for i in range(S)]) + np.diag(noise)
    Cinv = np.linalg.inv(C)
    one = np.ones(S)
    b0 = (one @ Cinv @ y) / (one @ Cinv @ one)
    k = np.array([kern(xq, X[j]) for j in range(S)])
    mean = b0 + k @ Cinv @ (y - b0 * one)
    var = kern(xq, xq) - k @ Cinv @ k + (1.0 - one @ Cinv @ k) ** 2 / (one @ Cinv @ one)
    return mean, var, b0


# ---------------------------------------------------------------------------
# Standard-normal utilities
# ---------------------------------------------------------------------------


def test_normal_cdf_matches_stdlib_oracle():
    for z in np.linspace(-8, 8, 81):
        assert abs(float(std_normal_cdf(z)) - _ND.cdf(z)) < 1e-12


def test_normal_quantile_matches_stdlib_oracle():
    for p in np.linspace(0.01, 0.99, 49):
        assert abs(float(std_normal_quantile(p)) - _ND.inv_cdf(p)) < 1e-12


def test_normal_quantile_rejects_boundary():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


def test_normal_pdf_peak():
    assert abs(float(std_normal_pdf(0.0)) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class TestKernelEval:
    """``_kernel_matrix`` entrywise against the one-pair reference ``kernel_eval``."""

    def test_zero_distance_gives_process_variance(self):
        params = KernelParams(1.0, [1.0, 1.0])
        assert _kernel_matrix(params, np.zeros((1, 2)), np.zeros((1, 2)))[0, 0] == 1.0
        assert kernel_eval(params, [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_analytic_value(self):
        params = KernelParams(2.0, [1.0, 1.0])
        val = _kernel_matrix(params, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))[0, 0]
        assert abs(val - 2.0 * math.exp(-0.5)) < 1e-12
        assert abs(kernel_eval(params, [0.0, 0.0], [1.0, 0.0]) - 2.0 * math.exp(-0.5)) < 1e-12

    def test_random_anisotropic_matches_scalar_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.integers(1, 5)
            params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0, size=v))
            X, Y = rng.normal(size=(4, v)), rng.normal(size=(3, v))
            K = _kernel_matrix(params, X, Y)
            assert K.shape == (4, 3)
            for i, x in enumerate(X):
                for j, y in enumerate(Y):
                    expected = params.process_variance * math.exp(
                        -sum((x[k] - y[k]) ** 2 / (2.0 * params.lengthscales[k] ** 2) for k in range(v))
                    )
                    assert abs(kernel_eval(params, x, y) - expected) < 1e-12
                    assert kernel_eval(params, x, y) == kernel_eval(params, y, x)
                    assert abs(K[i, j] - kernel_eval(params, x, y)) < 1e-12
            assert np.allclose(_kernel_matrix(params, X), _kernel_matrix(params, X).T, rtol=0, atol=1e-12)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0, [1.0])
    with pytest.raises(ValueError):
        KernelParams(1.0, [1.0, -1.0])
    with pytest.raises(ValueError):
        KernelParams(1.0, [1.0], jitter=-1e-9)


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


def test_dataset_rejects_duplicate_locations():
    obs = [NoisyObservation([0.1, 0.2], 1.0, 0.1), NoisyObservation([0.1, 0.2], 2.0, 0.1)]
    with pytest.raises(ValueError):
        GpDataset(obs)


def test_dataset_index_of_exact_match():
    ds = GpDataset([NoisyObservation([0.1, 0.2], 1.0, 0.1), NoisyObservation([0.3, 0.4], 2.0, 0.1)])
    assert ds.index_of([0.3, 0.4]) == 1
    assert ds.index_of([0.3, 0.4000001]) is None


# ---------------------------------------------------------------------------
# beta0 profile
# ---------------------------------------------------------------------------


class TestBeta0Hat:
    def test_constant_responses(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 2))
        ds = GpDataset([NoisyObservation(x, 3.25, 0.1) for x in X])
        assert abs(GpEmulator(ds, KernelParams(1.0, [0.5, 0.5])).beta0 - 3.25) < 1e-10

    def test_noise_dominated_limit_is_arithmetic_mean(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        ds = GpDataset([NoisyObservation(X[j], y[j], 1e9) for j in range(6)])
        assert abs(GpEmulator(ds, KernelParams(1.0, [0.5, 0.5])).beta0 - y.mean()) < 1e-6

    def test_generic_dataset_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        ds = _dataset(rng, 4, 2)
        params = KernelParams(1.3, [0.7, 0.9])
        _, _, b0_ref = _dense_posterior(
            ds.locations(), ds.means(), ds.variances(), params, np.zeros(2)
        )
        assert abs(GpEmulator(ds, params).beta0 - b0_ref) < 1e-10


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


class TestPosterior:
    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        ds = GpDataset([NoisyObservation(X[j], y[j], 0.0) for j in range(6)])
        em = GpEmulator(ds, KernelParams(1.0, [0.4, 0.4]))
        for j in range(6):
            m, _ = em.posterior(X[j])
            assert abs(m - y[j]) < 1e-8

    def test_three_point_system_matches_dense_solve(self):
        rng = np.random.default_rng(6)
        ds = _dataset(rng, 3, 1)
        params = KernelParams(0.8, [0.6])
        em = GpEmulator(ds, params)
        for xq in rng.uniform(-1, 2, size=(5, 1)):
            m_ref, v_ref, _ = _dense_posterior(
                ds.locations(), ds.means(), ds.variances(), params, xq
            )
            m, v = em.posterior(xq)
            assert abs(m - m_ref) < 1e-10
            assert abs(v - v_ref) < 1e-10

    def test_far_field_reverts_to_prior_with_mean_inflation(self):
        rng = np.random.default_rng(7)
        ds = _dataset(rng, 5, 2)
        params = KernelParams(1.5, [0.3, 0.3])
        em = GpEmulator(ds, params)
        m, v = em.posterior(np.array([50.0, 50.0]))  # far beyond 20 lengthscales
        C = _kernel_matrix(params, ds.locations()) + np.diag(ds.variances())
        mean_term = 1.0 / (np.ones(5) @ np.linalg.solve(C, np.ones(5)))
        assert abs(m - em.beta0) < 1e-6
        assert abs(v - (params.process_variance + mean_term)) < 1e-6

    def test_variance_nonnegative_on_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ds = _dataset(rng, rng.integers(3, 9), 2, noise=(0.0, 0.3))
            em = GpEmulator.fit(ds, rng=int(rng.integers(1 << 30)), restarts=3)
            grid = rng.uniform(-1, 2, size=(200, 2))
            _, v = em.posterior(grid)
            assert np.all(v >= 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        ds = _dataset(rng, 7, 2)
        params = KernelParams(1.1, [0.5, 0.8])
        perm = rng.permutation(7)
        ds_shuffled = GpDataset([ds[int(i)] for i in perm])
        em1, em2 = GpEmulator(ds, params), GpEmulator(ds_shuffled, params)
        grid = rng.uniform(-1, 2, size=(50, 2))
        m1, v1 = em1.posterior(grid)
        m2, v2 = em2.posterior(grid)
        assert np.max(np.abs(m1 - m2)) < 1e-10
        assert np.max(np.abs(v1 - v2)) < 1e-10

    def test_unit_cube_scaling_is_equivalent_to_prescaled_data(self):
        rng = np.random.default_rng(10)
        bounds = np.array([[2.0, 6.0], [-1.0, 3.0]])
        X = rng.uniform(bounds[:, 0], bounds[:, 1], size=(6, 2))
        y = rng.normal(size=6)
        noise = rng.uniform(0.01, 0.1, size=6)
        params = KernelParams(1.0, [0.3, 0.7])  # lengthscales in scaled units
        ds_raw = GpDataset([NoisyObservation(X[j], y[j], noise[j]) for j in range(6)])
        Xs = (X - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
        ds_scaled = GpDataset([NoisyObservation(Xs[j], y[j], noise[j]) for j in range(6)])
        em_raw = GpEmulator(ds_raw, params, control_bounds=bounds)
        em_scaled = GpEmulator(ds_scaled, params)
        xq = rng.uniform(bounds[:, 0], bounds[:, 1], size=2)
        xq_s = (xq - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
        m1, v1 = em_raw.posterior(xq)
        m2, v2 = em_scaled.posterior(xq_s)
        assert abs(m1 - m2) < 1e-12
        assert abs(v1 - v2) < 1e-12


# ---------------------------------------------------------------------------
# Quantile
# ---------------------------------------------------------------------------


class TestQuantile:
    def test_median_equals_posterior_mean(self):
        rng = np.random.default_rng(11)
        ds = _dataset(rng, 5, 2)
        em = GpEmulator(ds, KernelParams(1.0, [0.5, 0.5]))
        xq = np.array([0.2, 0.4])
        m, _ = em.posterior(xq)
        assert abs(em.quantile(xq, 0.5) - m) < 1e-14

    def test_matches_independent_inverse_normal(self):
        rng = np.random.default_rng(12)
        ds = _dataset(rng, 5, 2)
        em = GpEmulator(ds, KernelParams(1.0, [0.5, 0.5]))
        xq = np.array([0.2, 0.4])
        m, v = em.posterior(xq)
        expected = m + _ND.inv_cdf(0.7) * math.sqrt(v)
        assert abs(em.quantile(xq, 0.7) - expected) < 1e-12

    def test_zero_posterior_sd_returns_the_mean_for_any_beta(self):
        X = np.array([[0.1], [0.5], [0.9]])
        ds = GpDataset([NoisyObservation(x, float(np.sin(4 * x[0])), 0.0) for x in X])
        em = GpEmulator(ds, KernelParams(1.0, [0.4]))
        for beta in (0.5, 0.7, 0.95):
            q = em.quantile(X[1], beta)
            m, v = em.posterior(X[1])
            assert v < 1e-14
            assert abs(q - m) < 1e-7

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(13)
        ds = _dataset(rng, 6, 2)
        em = GpEmulator(ds, KernelParams(1.0, [0.5, 0.5]))
        grid = rng.uniform(-1, 2, size=(30, 2))
        betas = [0.5, 0.6, 0.7, 0.8, 0.9, 0.99]
        qs = np.array([em.quantile(grid, b) for b in betas])
        assert np.all(np.diff(qs, axis=0) >= -1e-12)

    def test_beta_out_of_range(self):
        rng = np.random.default_rng(14)
        ds = _dataset(rng, 3, 1)
        em = GpEmulator(ds, KernelParams(1.0, [0.5]))
        for beta in (0.49, 1.0, 1.2):
            with pytest.raises(ValueError):
                em.quantile(np.array([0.0]), beta)


# ---------------------------------------------------------------------------
# Hyperparameter estimation
# ---------------------------------------------------------------------------


class TestFit:
    def test_recovers_lengthscale_within_factor_two(self):
        rng = np.random.default_rng(15)
        true = KernelParams(1.0, [0.3])
        X = rng.uniform(size=(30, 1))
        K = _kernel_matrix(true, X) + 1e-8 * np.eye(30)
        y = np.linalg.cholesky(K) @ rng.normal(size=30)
        ds = GpDataset([NoisyObservation(X[j], y[j], 1e-6) for j in range(30)])
        fitted = fit_hyperparameters(ds, restarts=6, rng=0)
        ls = float(fitted.lengthscales[0])
        assert 0.15 <= ls <= 0.6
        # the estimate cannot have lower likelihood than the truth
        assert log_marginal_likelihood(ds, true) <= log_marginal_likelihood(ds, fitted) + 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        ds = _dataset(rng, 8, 2)
        a = fit_hyperparameters(ds, restarts=1, rng=42)
        b = fit_hyperparameters(ds, restarts=1, rng=42)
        assert a.process_variance == b.process_variance
        assert np.array_equal(a.lengthscales, b.lengthscales)

    def test_constant_responses_do_not_crash(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(5, 2))
        ds = GpDataset([NoisyObservation(x, 2.0, 0.05) for x in X])
        fitted = fit_hyperparameters(ds, restarts=2, rng=0)
        assert np.isfinite(log_marginal_likelihood(ds, fitted))

    def test_requires_two_observations(self):
        ds = GpDataset([NoisyObservation([0.0], 1.0, 0.1)])
        with pytest.raises(ValueError):
            fit_hyperparameters(ds, rng=0)


def test_factorize_raises_on_indefinite_matrix():
    C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(GpFitError):
        _factorize(C, process_variance=1.0, jitter=0.0)


def test_factorize_clean_matrix_uses_no_jitter():
    rng = np.random.default_rng(18)
    ds = _dataset(rng, 5, 2)
    em = GpEmulator(ds, KernelParams(1.0, [0.5, 0.5]))
    assert em.jitter_used == 0.0
