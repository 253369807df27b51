"""Tests for the stochastic-kriging emulator and standard-normal utilities."""

import math
import os
import subprocess
import sys
from pathlib import Path
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
import moeeqi.gp
from moeeqi import RunConfig, run
from moeeqi.gp import (_default_bounds, _factor_gram, _kernel, _profiled_loglik,
                       _scipy_extension, _sq_diffs)
from moeeqi.pareto import ConstraintSpec, feasible_mask
from moeeqi.problems import toy_problem

from _oracles import kernel_eval, nelder_mead_fit_reference

_ND = NormalDist()  # independent stdlib implementation used as oracle


def _dataset(rng, size, dim, noise=(0.01, 0.5)):
    X = rng.uniform(-1.0, 2.0, size=(size, dim))
    y = rng.normal(size=size)
    v = rng.uniform(*noise, size=size)
    return GpDataset([NoisyObservation(X[j], y[j], v[j]) for j in range(size)])


def _arrays(ds):
    """The locations, means and noise variances of a dataset."""
    return ds.locations(), ds.means(), ds.variances()


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


def _quantile_probabilities():
    """Probabilities over (0, 1) and far into both tails."""
    rng = np.random.default_rng(27)
    return np.concatenate([rng.uniform(size=20000), 10.0 ** rng.uniform(-300, -1, size=20000),
                           1.0 - 10.0 ** rng.uniform(-16, -1, size=20000), [1e-300, 1.0 - 1e-16]])


def test_normal_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri  # an oracle only: the package does not import it

    p = _quantile_probabilities()
    q, expected = std_normal_quantile(p), ndtri(p)
    assert np.all(np.abs(q - expected) <= 8 * np.spacing(np.abs(expected)))
    for beta in (0.5, 0.7, 0.75, 0.99):
        assert std_normal_quantile(beta) == ndtri(beta)


def test_normal_quantile_inverts_the_cdf():
    # the cdf multiplies a relative error in z by at most z**2 < 1500, so a
    # few ulp in the quantile leave about 1e-12 in p
    p = _quantile_probabilities()
    np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(p)), p, rtol=1e-11, atol=0.0)


def test_normal_quantile_keeps_the_shape():
    p = np.array([[0.1, 0.5, 0.7], [0.9, 0.99, 1e-10]])
    q = std_normal_quantile(p)
    assert q.shape == (2, 3)
    assert q.tolist() == [[float(std_normal_quantile(v)) for v in row] for row in p]


def test_normal_quantile_rejects_boundary():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


def test_normal_quantile_rejects_nan():
    # NaN fails every comparison, so only a check that p lies inside catches it
    for p in (math.nan, [0.3, math.nan, 0.7]):
        with pytest.raises(ValueError):
            std_normal_quantile(p)
    q, sd = np.array([[0.5, 0.5], [3.0, 0.5]]), np.zeros((2, 2))
    with pytest.raises(ValueError):
        feasible_mask(q, sd, ConstraintSpec((1.0, None)), beta=math.nan)


def test_normal_pdf_peak():
    assert abs(float(std_normal_pdf(0.0)) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15


# ---------------------------------------------------------------------------
# The compiled scipy modules
# ---------------------------------------------------------------------------


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that finds
    this package's source first."""
    src = str(Path(moeeqi.gp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_imports_only_the_three_compiled_scipy_modules():
    # no package scipy.optimize, scipy.linalg or scipy.special either
    loaded = _fresh_python(
        "import sys, moeeqi.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg'))))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    assert loaded.splitlines() == ["['scipy.linalg._flapack', 'scipy.optimize._lbfgsb']",
                                   "['scipy.special._special_ufuncs']"]


_FITS = """
import numpy as np
from moeeqi.gp import fit_hyperparameters
rng = np.random.default_rng(23)
X, y, noise = rng.uniform(size=(9, 2)), rng.normal(size=9), rng.uniform(0.01, 0.2, size=9)
cold = fit_hyperparameters(X, y, noise, rng=0)
warm = fit_hyperparameters(X, y + 0.1, noise, rng=1, warm_start=cold)
for p in (cold, warm):
    print(p.process_variance.hex(), [float(v).hex() for v in p.lengthscales])
from moeeqi.gp import std_normal_cdf
print(std_normal_cdf(np.linspace(-40.0, 10.0, 1001)).tobytes().hex())
"""
_SCIPY_PACKAGES = "import scipy.optimize, scipy.linalg, scipy.special\n"
_SAME_OBJECTS = """import sys, scipy.special, moeeqi.gp
print(moeeqi.gp._flapack is sys.modules['scipy.linalg._flapack'],
      moeeqi.gp.erfc is scipy.special.erfc)
"""


def test_fits_do_not_depend_on_whether_scipy_packages_load_first():
    moeeqi_first = _fresh_python(_FITS + _SCIPY_PACKAGES + _SAME_OBJECTS)
    scipy_first = _fresh_python(_SCIPY_PACKAGES + _FITS + _SAME_OBJECTS)
    assert len(moeeqi_first.splitlines()) == 4
    assert moeeqi_first.endswith("True True\n")
    assert scipy_first == moeeqi_first


def test_scipy_extension_reuses_a_loaded_module_and_names_a_missing_one():
    assert _scipy_extension("optimize._lbfgsb") is sys.modules["scipy.optimize._lbfgsb"]
    with pytest.raises(ImportError, match=r"scipy [\d.]+\S* has no compiled module "
                                          r"scipy\.optimize\._no_such_module"):
        _scipy_extension("optimize._no_such_module")


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class TestKernelEval:
    """``_kernel`` entrywise against the one-pair reference ``kernel_eval``."""

    def test_zero_distance_gives_process_variance(self):
        params = KernelParams(1.0, [1.0, 1.0])
        zero = np.zeros((1, 2))
        K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(zero, zero))
        assert K[0, 0] == 1.0
        assert kernel_eval(params, [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_analytic_value(self):
        params = KernelParams(2.0, [1.0, 1.0])
        pv, ls = params.process_variance, params.lengthscales
        val = _kernel(pv, ls, _sq_diffs(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])))[0, 0]
        assert abs(val - 2.0 * math.exp(-0.5)) < 1e-12
        assert abs(kernel_eval(params, [0.0, 0.0], [1.0, 0.0]) - 2.0 * math.exp(-0.5)) < 1e-12

    def test_random_anisotropic_matches_scalar_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.integers(1, 5)
            params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0, size=v))
            X, Y = rng.normal(size=(4, v)), rng.normal(size=(3, v))
            pv, ls = params.process_variance, params.lengthscales
            K = _kernel(pv, ls, _sq_diffs(X, Y))
            assert K.shape == (4, 3)
            for i, x in enumerate(X):
                for j, y in enumerate(Y):
                    expected = params.process_variance * math.exp(
                        -sum((x[k] - y[k]) ** 2 / (2.0 * params.lengthscales[k] ** 2) for k in range(v))
                    )
                    assert abs(kernel_eval(params, x, y) - expected) < 1e-12
                    assert kernel_eval(params, x, y) == kernel_eval(params, y, x)
                    assert abs(K[i, j] - kernel_eval(params, x, y)) < 1e-12
            K = _kernel(pv, ls, _sq_diffs(X))
            assert np.allclose(K, K.T, rtol=0, atol=1e-12)
            assert np.all(K.diagonal() == pv)

    def test_far_from_the_origin_a_lengthscale_apart(self):
        # |x| / l = 2^27: the expanded |x|^2 + |y|^2 - 2 x.y form loses the
        # unit squared distance to cancellation; exact differences keep it.
        pv, ls = 2.5, np.array([0.125, 3.0])
        X = np.array([[2.0**24, 0.7], [2.0**24 + 0.125, 0.7]])  # l e_1 apart, both exact
        K = _kernel(pv, ls, _sq_diffs(X))
        assert K[0, 0] == K[1, 1] == pv
        assert abs(K[0, 1] - pv * math.exp(-0.5)) <= 1e-15 * pv * math.exp(-0.5)
        assert K[0, 1] == K[1, 0]


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0, [1.0])
    with pytest.raises(ValueError):
        KernelParams(1.0, [1.0, -1.0])


@pytest.mark.parametrize("process_variance, lengthscales, field", [
    (math.inf, [1.0], "process_variance"),
    (math.nan, [1.0], "process_variance"),
    (1.0, [math.inf], "lengthscales"),
    (1.0, [1.0, math.nan], "lengthscales"),
])
def test_kernel_params_reject_non_finite_values_naming_the_field(process_variance, lengthscales,
                                                                   field):
    with pytest.raises(ValueError, match=field):
        KernelParams(process_variance, lengthscales)


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
    assert ds.index_of([0.3, np.nextafter(0.4, 1.0)]) is None
    assert ds.index_of([0.3]) is None


@pytest.mark.parametrize("field, args", [
    ("location", ([0.1, math.inf], 1.0, 0.1)),
    ("location", ([math.nan], 1.0, 0.1)),
    ("mean", ([0.1], math.nan, 0.1)),
    ("mean", ([0.1], -math.inf, 0.1)),
    ("variance", ([0.1], 1.0, math.inf)),
    ("variance", ([0.1], 1.0, math.nan)),
])
def test_observation_rejects_non_finite_fields(field, args):
    with pytest.raises(ValueError, match=f"observation {field} must be finite"):
        NoisyObservation(*args)


@pytest.mark.parametrize("replications", [2.5, True, "3", 0])
def test_observation_rejects_a_count_that_is_not_a_whole_number(replications):
    with pytest.raises(ValueError, match="replications"):
        NoisyObservation([0.1], 1.0, 0.1, replications=replications)


_ONE_POINT = GpDataset([NoisyObservation([0.1, 0.2], 1.0, 0.1)])


@pytest.mark.parametrize("build, message", [
    (lambda: NoisyObservation([[0.1, 0.2]], 1.0, 0.1), "one-dimensional"),
    (lambda: NoisyObservation([0.1], 1.0, -0.1), "variance must be non-negative"),
    (lambda: GpDataset([NoisyObservation([0.1], 1.0, 0.1), NoisyObservation([0.1, 0.2], 1.0, 0.1)]),
     "inconsistent control dimensions"),
    (lambda: GpDataset().dim, "empty dataset"),
    (lambda: log_marginal_likelihood(GpDataset(), KernelParams(1.0, [1.0])), "dataset is empty"),
    (lambda: GpEmulator(_ONE_POINT, KernelParams(1.0, [1.0, 1.0]), control_bounds=[[0.0, 1.0]]),
     "control_bounds dimension"),
    (lambda: GpEmulator(_ONE_POINT, KernelParams(1.0, [1.0, 1.0]),
                        control_bounds=[[0.0, 1.0], [0.5, 0.5]]), "positive width"),
])
def test_data_and_box_checks_raise_naming_what_failed(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_observation_reads_a_whole_float_count_as_an_int():
    obs = NoisyObservation([0.1], 1.0, 0.1, replications=2.0)
    assert obs.replications == 2 and type(obs.replications) is int


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
        K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(ds.locations()))
        C = K + np.diag(ds.variances())
        mean_term = 1.0 / (np.ones(5) @ np.linalg.solve(C, np.ones(5)))
        assert abs(m - em.beta0) < 1e-6
        assert abs(v - (params.process_variance + mean_term)) < 1e-6

    def test_variance_nonnegative_on_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ds = _dataset(rng, rng.integers(3, 9), 2, noise=(0.0, 0.3))
            em = GpEmulator.fit(ds, rng=int(rng.integers(1 << 30)))
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


_TWO_D = GpDataset([NoisyObservation([0.1, 0.2], 1.0, 0.1),
                    NoisyObservation([0.7, 0.4], -0.5, 0.1)])


@pytest.mark.parametrize("evaluate, width", [
    (lambda em: em.posterior([0.3]), 1),
    (lambda em: em.quantile([0.3], 0.7), 1),
    (lambda em: em.posterior([0.3, 0.4, 0.5]), 3),
    (lambda em: em.posterior(np.array([[0.1], [0.2]]), axes=[np.array([0.1, 0.2])]), 1),
])
def test_posterior_rejects_points_of_another_width(evaluate, width):
    em = GpEmulator(_TWO_D, KernelParams(1.0, [0.5, 0.5]))
    message = f"points of {width} coordinates given to an emulator of 2"
    with pytest.raises(ValueError, match=message):
        evaluate(em)


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
        K = _kernel(true.process_variance, true.lengthscales, _sq_diffs(X)) + 1e-8 * np.eye(30)
        y = np.linalg.cholesky(K) @ rng.normal(size=30)
        ds = GpDataset([NoisyObservation(X[j], y[j], 1e-6) for j in range(30)])
        fitted = fit_hyperparameters(*_arrays(ds), rng=0)
        ls = float(fitted.lengthscales[0])
        assert 0.15 <= ls <= 0.6
        # the estimate cannot have lower likelihood than the truth
        assert log_marginal_likelihood(ds, true) <= log_marginal_likelihood(ds, fitted) + 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        ds = _dataset(rng, 8, 2)
        a = fit_hyperparameters(*_arrays(ds), rng=42)
        b = fit_hyperparameters(*_arrays(ds), rng=42)
        assert a.process_variance == b.process_variance
        assert np.array_equal(a.lengthscales, b.lengthscales)

    def test_constant_responses_do_not_crash(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(5, 2))
        ds = GpDataset([NoisyObservation(x, 2.0, 0.05) for x in X])
        fitted = fit_hyperparameters(*_arrays(ds), rng=0)
        assert np.isfinite(log_marginal_likelihood(ds, fitted))

    def test_cold_fit_searches_five_starts_and_warm_fit_three(self, monkeypatch):
        starts = []
        minimize = moeeqi.gp.minimize

        def recording(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(moeeqi.gp, "minimize", recording)
        ds = _dataset(np.random.default_rng(19), 6, 2)
        cold = fit_hyperparameters(*_arrays(ds), rng=0)
        assert len(starts) == 5
        starts.clear()
        # process variance above the box, the first lengthscale below it
        warm = KernelParams(1e6 * cold.process_variance, [1e-6, cold.lengthscales[1]])
        fit_hyperparameters(*_arrays(ds), rng=0, warm_start=warm)
        assert len(starts) == 3
        # the search sees the responses divided by 2**k, its variances by 4**k
        k = math.frexp(np.var(ds.means()))[1] // 2
        box = _default_bounds(ds.locations(), math.ldexp(np.var(ds.means()), -2 * k))
        log_box = np.array([[math.log(lo), math.log(hi)] for lo, hi in box])
        theta_w = np.log(np.r_[math.ldexp(warm.process_variance, -2 * k), warm.lengthscales])
        assert np.array_equal(starts[0], np.clip(theta_w, log_box[:, 0], log_box[:, 1]))
        assert starts[0][0] == log_box[0, 1] and starts[0][1] == log_box[1, 0]

    def test_requires_two_observations(self):
        ds = GpDataset([NoisyObservation([0.0], 1.0, 0.1)])
        with pytest.raises(ValueError):
            fit_hyperparameters(*_arrays(ds), rng=0)


_FIT_X = np.array([[0.1], [0.5], [0.9]])
_FIT_Y, _FIT_NOISE = np.array([1.0, -0.5, 0.2]), np.full(3, 0.1)


@pytest.mark.parametrize("X, y, noise, message", [
    (_FIT_X.ravel(), _FIT_Y, _FIT_NOISE, r"X must be an \(S, v\) array"),
    (np.r_[_FIT_X[:2], [[np.inf]]], _FIT_Y, _FIT_NOISE, "X must be finite"),
    (_FIT_X, _FIT_Y[:2], _FIT_NOISE, r"y must have shape \(3,\)"),
    (_FIT_X, _FIT_Y[:, None], _FIT_NOISE, r"y must have shape \(3,\)"),
    (_FIT_X, _FIT_Y, np.full(4, 0.1), r"noise must have shape \(3,\)"),
    (_FIT_X, np.r_[_FIT_Y[:2], np.nan], _FIT_NOISE, "y must be finite"),
    (_FIT_X, _FIT_Y, np.r_[_FIT_NOISE[:2], np.nan], "noise must be finite"),
    (_FIT_X, _FIT_Y, np.r_[_FIT_NOISE[:2], -0.1], "noise variances must be non-negative"),
])
def test_fit_checks_its_arrays_naming_the_argument(X, y, noise, message):
    with pytest.raises(ValueError, match=message):
        fit_hyperparameters(X, y, noise, rng=0)


class TestFitFailures:
    """Whatever the data, a fit returns finite parameters or raises GpFitError."""

    @staticmethod
    def _finite_or_fit_error(ds):
        try:
            fitted = fit_hyperparameters(*_arrays(ds), rng=0)
        except GpFitError:
            return
        assert math.isfinite(fitted.process_variance)
        assert np.all(np.isfinite(fitted.lengthscales))

    def test_near_duplicate_locations_without_noise(self):
        X = np.array([[0.0, 0.0], [1e-9, 0.0], [0.7, 0.6], [0.4, 0.9]])
        self._finite_or_fit_error(GpDataset([NoisyObservation(x, float(np.sum(x)), 0.0) for x in X]))

    def test_two_points(self):
        self._finite_or_fit_error(GpDataset([NoisyObservation([0.1], 1.0, 0.01),
                                             NoisyObservation([0.8], -0.5, 0.02)]))

    def test_overflowing_response_variance_raises(self):
        # finite means whose spread overflows a double: no search box exists
        ds = GpDataset([NoisyObservation([x], m, 0.0)
                        for x, m in [(0.1, 1e200), (0.5, -1e200), (0.9, 1e200)]])
        with pytest.raises(GpFitError, match="response variance is not finite"):
            fit_hyperparameters(*_arrays(ds), rng=0)

    def test_likelihood_whose_inverse_overflows_is_a_fit_error(self):
        # two noiseless points 1e-9 apart under unit lengthscales: every
        # covariance rounds to the tiny process variance, so C factors only
        # with jitter, and (1'C^-1 y)^2 overflows
        X = np.random.default_rng(48396).uniform(0.0, 1.0, size=(2, 3))
        X[1] = X[0] + 1e-9
        ds = GpDataset([NoisyObservation(x, 1.0, 0.0) for x in X])
        params = KernelParams(2.0**-530, [1.0, 1.0, 1.0])
        with pytest.raises(GpFitError, match="C\\^-1 y overflows"):
            log_marginal_likelihood(ds, params)
        self._finite_or_fit_error(ds)

    def test_unfactorable_region_is_avoided(self, monkeypatch):
        # Every covariance with process variance above the response variance
        # fails to factor; the fit must settle below it. The responses are
        # scaled by 2**10, so the search sees them divided by 2**k, k != 0,
        # and _factor_gram sees the process variance divided by 4**k.
        factor = moeeqi.gp._factor_gram
        X, y, noise = _arrays(_dataset(np.random.default_rng(20), 8, 2))
        y, noise = np.ldexp(y, 10), np.ldexp(noise, 20)
        k = math.frexp(np.var(y))[1] // 2
        assert k != 0
        cap = math.ldexp(np.var(y), -2 * k)  # in the units _factor_gram sees
        forced = []

        def failing_above_cap(K, noise, process_variance):
            if process_variance > cap:
                forced.append(process_variance)
                raise GpFitError("forced")
            return factor(K, noise, process_variance)

        monkeypatch.setattr(moeeqi.gp, "_factor_gram", failing_above_cap)
        fitted = fit_hyperparameters(X, y, noise, rng=0)
        assert forced
        assert fitted.process_variance <= cap * 4**k
        assert np.all(np.isfinite(fitted.lengthscales))

    def test_no_factorable_start_raises(self, monkeypatch):
        def failing(K, noise, process_variance):
            raise GpFitError("forced")

        monkeypatch.setattr(moeeqi.gp, "_factor_gram", failing)
        with pytest.raises(GpFitError):
            fit_hyperparameters(*_arrays(_dataset(np.random.default_rng(21), 5, 1)), rng=0)


@pytest.mark.parametrize("seed, dim, constant_col", [(0, 1, None), (1, 2, None), (2, 3, None),
                                                     (3, 3, 1)])
def test_likelihood_gradient_matches_central_differences(seed, dim, constant_col):
    rng = np.random.default_rng(seed)
    ds = _dataset(rng, 12, dim)
    X = ds.locations()
    if constant_col is not None:
        X[:, constant_col] = 0.3  # a fixed_coords coordinate
    y, noise, D = ds.means(), ds.variances(), _sq_diffs(X)
    theta = np.log(np.r_[rng.uniform(0.3, 3.0), rng.uniform(0.3, 2.0, size=dim)])

    def loglik(t):
        return _profiled_loglik(y, noise, math.exp(t[0]), np.exp(t[1:]), D)

    value, grad = loglik(theta)
    assert value == log_marginal_likelihood(
        GpDataset([NoisyObservation(X[j], y[j], noise[j]) for j in range(len(y))]),
        KernelParams(math.exp(theta[0]), np.exp(theta[1:])))
    h = 1e-6
    fd = np.array([(loglik(theta + h * e)[0] - loglik(theta - h * e)[0]) / (2 * h)
                   for e in np.eye(dim + 1)])
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.all(np.abs(grad - fd) <= 1e-5 * scale)
    if constant_col is not None:
        assert grad[1 + constant_col] == 0.0


@pytest.mark.parametrize("overrides", [dict(seed=3), dict(seed=6, fixed_coords={1: 0.0})])
def test_fit_likelihood_no_worse_than_nelder_mead(monkeypatch, overrides):
    recorded = []
    fit = moeeqi.gp.fit_hyperparameters

    def recording(X, y, noise, rng=None, warm_start=None):
        params = fit(X, y, noise, rng=rng, warm_start=warm_start)
        recorded.append((X, y, noise, rng, warm_start, params))
        return params

    monkeypatch.setattr(moeeqi.gp, "fit_hyperparameters", recording)
    config = RunConfig(beta=0.7, n_mc=6, n_iter=4, grid_resolution=15, initial_design_size=4,
                       **overrides)
    run(toy_problem(0.5), config)
    assert len(recorded) == 10
    for X, y, noise, rng, warm_start, params in recorded:
        reference = nelder_mead_fit_reference(X, y, noise, rng=rng, warm_start=warm_start)
        dataset = GpDataset([NoisyObservation(*obs) for obs in zip(X, y, noise)])
        assert (log_marginal_likelihood(dataset, params)
                >= log_marginal_likelihood(dataset, reference) - 1e-6)


def test_factorize_raises_on_indefinite_matrix():
    # K = [[1, e^-1/2], [e^-1/2, 1]]; the noise diagonal -1 leaves eigenvalues +-e^-1/2
    with pytest.raises(GpFitError):
        _factor_gram(_kernel(1.0, np.array([1.0]), _sq_diffs(np.array([[0.0], [1.0]]))),
                     np.array([-1.0, -1.0]), 1.0)


def test_factorize_clean_matrix_uses_no_jitter():
    rng = np.random.default_rng(18)
    ds = _dataset(rng, 5, 2)
    em = GpEmulator(ds, KernelParams(1.0, [0.5, 0.5]))
    assert em.jitter_used == 0.0


_LADDER_PV = 1.7
_RUNGS = [_LADDER_PV * 1e-8 * 10.0**k for k in range(5)]


def test_near_duplicate_locations_take_a_ladder_rung():
    X = np.array([[0.0, 0.0], [1e-9, 0.0], [0.7, 0.6], [0.4, 0.9]])
    ds = GpDataset([NoisyObservation(x, float(np.sum(x)), 0.0) for x in X])
    em = GpEmulator(ds, KernelParams(_LADDER_PV, [0.5, 0.5]))
    assert em.jitter_used > 0.0
    assert em.jitter_used in _RUNGS
    m, v = em.posterior(np.random.default_rng(19).uniform(size=(20, 2)))
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(v))


def test_ladder_resets_the_diagonal_between_rungs():
    # Far-apart points make K = 1.7 I exactly; the noise leaves the diagonal at
    # about -1e-7, which the rung 1.7e-8 does not lift and the rung 1.7e-7 does.
    X = np.array([[0.0], [100.0], [200.0]])
    noise = np.full(3, -_LADDER_PV - 1e-7)
    L, jitter = _factor_gram(_kernel(_LADDER_PV, np.array([1.0]), _sq_diffs(X)), noise, _LADDER_PV)
    assert jitter == _RUNGS[1]
    L = np.tril(L)
    expected = np.diag(_LADDER_PV + noise + jitter)
    assert np.max(np.abs(L @ L.T - expected)) < 1e-20
