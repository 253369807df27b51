"""Property tests: invariants of front construction, front metrics, the
improvement criterion, the GP likelihood and posterior variance, replicate
pooling, config parsing, document reading, the initial design and the pruned
selection, checked on generated inputs against independent references;
exact equality of the GP's direct LAPACK calls with scipy's wrapper forms
and of its L-BFGS-B loop with scipy.optimize.minimize;
and whole runs on small generated problems, scaled and degenerate."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (brute_force_front, emulator_projection_reference, factor_gram_reference,
                      front_metrics_reference, improvement_terms_reference,
                      initial_design_reference, lbfgsb_reference, moeeqi_scores_reference,
                      posterior_reference, profiled_loglik_reference, quantile_table_reference,
                      random_front, score_bounds_reference, select_reference)
from moeeqi.acquisition import QuantilePosterior, merge_replicate, quantile_posterior_arrays
from moeeqi.cli import _config_echo, load_config
from moeeqi.gp import (_FAILED_FIT, _JITTER_STEPS, _ROW_BLOCK, GpDataset, GpEmulator, GpFitError,
                       KernelParams, NoisyObservation, _factor_gram, _kernel,
                       _profiled_loglik, _sq_diffs, fit_hyperparameters, log_marginal_likelihood,
                       minimize, std_normal_quantile)
from moeeqi.optimizer import RunConfig, RunState, _design_front, _select, front_metrics, run
from moeeqi.pareto import (ConstraintSpec, FrontPoint, ImprovementMode, ParetoFront,
                           _improvement_terms, _score_bounds, build_front, moeeqi, moeeqi_scores)
from moeeqi.problems import (ProblemSchemaError, ProblemSpec, Uniform, candidate_axes,
                             candidate_grid, initial_design, read_document)

# Small integers make ties in q1 and exact duplicates common.
_values = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=0, max_size=30
)


def _staircase(pairs):
    """The non-dominated staircase of integer pairs, as a ParetoFront."""
    return build_front(np.array(pairs, dtype=float).reshape(-1, 2))


@settings(max_examples=300, deadline=None)
@given(_values)
def test_build_front_equals_the_pairwise_oracle(pairs):
    q = np.array(pairs, dtype=float).reshape(-1, 2)
    sources = np.arange(len(pairs), dtype=float)[:, None]
    front = build_front(q, sources)
    expected = brute_force_front(
        [FrontPoint(float(a), float(b), source=s) for (a, b), s in zip(q, sources)]
    )
    assert [(p.q1, p.q2) for p in front] == [(p.q1, p.q2) for p in expected]
    # first-seen duplicates: the source index identifies the candidate kept
    assert [p.source[0] for p in front] == [p.source[0] for p in expected]
    assert np.all(np.diff(front.q1s()) > 0)
    assert np.all(np.diff(front.q2s()) < 0)


_truth_pairs = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12
)
# Front values reach left of and below the truth, and share its q1 values.
_front_pairs = st.lists(
    st.tuples(st.integers(-3, 10), st.integers(-3, 10)), min_size=0, max_size=12
)


@settings(max_examples=300, deadline=None)
@given(_truth_pairs, _front_pairs, st.sampled_from([0.25, 0.5, 1.0]))
def test_front_metrics_equals_the_per_point_reference(truth_pairs, front_pairs, scale):
    truth = _staircase([(a * scale, b * scale) for a, b in truth_pairs])
    front = _staircase([(a * scale, b * scale) for a, b in front_pairs])
    got = front_metrics(front, truth)
    want = front_metrics_reference(front, truth, (5.0, 10.0))
    assert got[2] == want[2]
    if len(front) == 0:
        assert math.isnan(got[0]) and all(math.isnan(v) for v in got[1].values())
        return
    assert got[0] == want[0]
    assert got[1] == want[1]


def _dense_kernel(X, Y, params):
    diff = (X[:, None, :] - Y[None, :, :]) / params.lengthscales
    return params.process_variance * np.exp(-0.5 * np.sum(diff**2, axis=2))


def _random_gp_data(rng, dim, size):
    """Locations, responses, a kernel, and noise with a floor that keeps
    C = K + diag(noise) well conditioned, so no jitter is applied."""
    X = rng.uniform(-1.0, 2.0, size=(size, dim))
    y = rng.normal(scale=rng.uniform(0.1, 3.0), size=size)
    params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0, size=dim))
    noise = params.process_variance * rng.uniform(0.01, 0.5, size=size)
    ds = GpDataset([NoisyObservation(X[j], y[j], noise[j]) for j in range(size)])
    return X, y, params, noise, ds


def _dense_profiled_loglik(X, y, noise, params):
    """Restricted log-likelihood from a dense inverse and slogdet of
    C = K + diag(noise), with the constant trend profiled out."""
    C = _dense_kernel(X, X, params) + np.diag(noise)
    Cinv = np.linalg.inv(C)
    one = np.ones(len(y))
    denom = one @ Cinv @ one
    r = y - (one @ Cinv @ y) / denom
    sign, logdet = np.linalg.slogdet(C)
    assert sign > 0
    return -0.5 * (r @ Cinv @ r + logdet + math.log(denom) + (len(y) - 1) * math.log(2 * math.pi))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 10))
def test_log_marginal_likelihood_equals_the_dense_reference(seed, dim, size):
    X, y, params, noise, ds = _random_gp_data(np.random.default_rng(seed), dim, size)
    got = log_marginal_likelihood(ds, params)
    want = _dense_profiled_loglik(X, y, noise, params)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 10))
def test_posterior_variance_is_bounded_by_the_trend_inflated_prior(seed, dim, size):
    # var = s2 - k'C^-1 k + h^2 / (1'C^-1 1) with h = 1 - k'C^-1 1, so it lies
    # in [0, s2 + h^2 / (1'C^-1 1)]; far from the data k = 0 and h = 1.
    rng = np.random.default_rng(seed)
    X, _, params, noise, ds = _random_gp_data(rng, dim, size)
    em = GpEmulator(ds, params)
    Cinv = np.linalg.inv(_dense_kernel(X, X, params) + np.diag(noise))
    one_Cinv_one = np.sum(Cinv)
    Xq = rng.uniform(-2.0, 3.0, size=(50, dim))
    _, var = em.posterior(Xq)
    h = 1.0 - _dense_kernel(Xq, X, params) @ Cinv.sum(axis=1)
    bound = params.process_variance + h * h / one_Cinv_one
    assert np.all(var >= 0.0)
    assert np.all(var <= bound * (1.0 + 1e-9))
    _, far = em.posterior(np.full(dim, 1e3))
    want = params.process_variance + 1.0 / one_Cinv_one
    assert abs(far - want) <= 1e-9 * want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from(list(ImprovementMode)))
def test_improvement_terms_equal_the_two_edge_reference(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    n = 60
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    # degenerate candidates, and means exactly on a strip edge or top
    sd1[:10] = 0.0
    sd2[5:15] = 0.0
    mu1[:20:2] = rng.choice(front.q1s(), 10)
    mu2[1:20:2] = rng.choice(front.q2s(), 10)
    got = _improvement_terms(front, mu1, sd1, mu2, sd2, mode)
    want = improvement_terms_reference(front, mu1, sd1, mu2, sd2, mode)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _laddered_gram(rng, dim, size, rung):
    """Locations, responses, a kernel, its Gram matrix K and a noise diagonal
    for which the jitter ladder stops at index ``rung`` of ``_JITTER_STEPS``,
    or at none when ``rung`` is None: for a rung above 0 the noise moves the
    smallest eigenvalue of K + diag(noise) to half that rung's jitter below
    zero (to twice the last rung's without one)."""
    X = rng.uniform(-1.0, 2.0, size=(size, dim))
    y = rng.normal(scale=rng.uniform(0.1, 3.0), size=size)
    params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0, size=dim))
    K = _kernel(params.process_variance, params.lengthscales, _sq_diffs(X))
    if rung == 0:
        noise = params.process_variance * rng.uniform(0.01, 0.5, size=size)
    else:
        below = 2.0 * _JITTER_STEPS[-1] if rung is None else 0.5 * _JITTER_STEPS[rung]
        shift = np.linalg.eigvalsh(K)[0] + params.process_variance * 1e-8 * below
        noise = np.full(size, -shift)
    return X, y, params, K, noise


_rungs = st.sampled_from([0, 1, 2, len(_JITTER_STEPS) - 1, None])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 30), _rungs)
def test_factor_gram_equals_the_cho_factor_reference(seed, dim, size, rung):
    _, _, params, K, noise = _laddered_gram(np.random.default_rng(seed), dim, size, rung)
    if rung is None:
        for factor in (_factor_gram, factor_gram_reference):
            with pytest.raises(GpFitError):
                factor(K, noise, params.process_variance)
        return
    L, jitter = _factor_gram(K, noise, params.process_variance)
    (want_L, _), want_jitter = factor_gram_reference(K, noise, params.process_variance)
    assert jitter == want_jitter == params.process_variance * 1e-8 * _JITTER_STEPS[rung]
    assert np.array_equal(L, want_L)  # the uncleared upper triangle too


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 30), _rungs)
def test_profiled_loglik_equals_the_cho_solve_reference(seed, dim, size, rung):
    X, y, params, _, noise = _laddered_gram(np.random.default_rng(seed), dim, size, rung)
    args = (y, noise, params.process_variance, params.lengthscales, _sq_diffs(X))
    if rung is None:
        for loglik in (_profiled_loglik, profiled_loglik_reference):
            with pytest.raises(GpFitError):
                loglik(*args)
        return
    value, grad = _profiled_loglik(*args)
    want_value, want_grad = profiled_loglik_reference(*args)
    assert value == want_value
    assert np.array_equal(grad, want_grad)


def _fit_data(seed, size, dim, scale_exp, near_duplicate, noiseless, constant):
    """Locations, responses and noise variances of ``size`` observations in
    ``dim`` dimensions with responses scaled by 10**scale_exp; optionally
    the first two locations 1e-9 apart, no noise, or a constant response."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(size, dim))
    if near_duplicate:
        X[1] = X[0] + 1e-9
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(size)
    if constant:
        y[:] = 1.0
    scale = 10.0**scale_exp
    noise = np.zeros(size) if noiseless else scale**2 * rng.uniform(0.0, 0.05, size)
    return X, scale * y, noise


def _searches_against_scipy(data):
    """A cold and a warm fit of ``data`` with every search of ``gp.minimize``
    repeated by ``scipy.optimize.minimize``: asserts bit-identical ``x``,
    equal ``nfev``, and ``fun`` the value at ``x``, bit-identical to scipy's
    wherever scipy's is that value; returns per search whether scipy
    reported success, whether an evaluation met an unfactorable covariance
    and whether scipy's ``fun`` was another value than the one at ``x``."""
    searches = []

    def compared(fun, x0, bounds):
        values = []

        def recording(x):
            values.append(fun(x))
            return values[-1]

        got = minimize(recording, x0, bounds=bounds)
        want = lbfgsb_reference(fun, x0, bounds)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.nfev == want.nfev == len(values)
        at_x = fun(got.x)[0]
        assert np.float64(got.fun).tobytes() == np.float64(at_x).tobytes()
        if want.fun == at_x:
            assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
        searches.append((bool(want.success), any(v == _FAILED_FIT for v, _ in values),
                         want.fun != at_x))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("moeeqi.gp.minimize", compared)
        try:
            cold = fit_hyperparameters(*data, rng=0)
            fit_hyperparameters(*data, rng=1, warm_start=cold)
        except GpFitError:
            pass
    return searches


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 3), st.integers(-8, 8),
       st.booleans(), st.booleans(), st.booleans())
@example(48396, 2, 3, 0, True, True, True)  # noiseless near-duplicates, constant response
def test_fit_searches_equal_scipy_minimize(seed, size, dim, scale_exp, near_duplicate,
                                           noiseless, constant):
    data = _fit_data(seed, size, dim, scale_exp, near_duplicate, noiseless, constant)
    assert len(_searches_against_scipy(data)) in (5, 8)


def test_minimize_identity_covers_a_failed_line_search_and_an_unfactorable_point(monkeypatch):
    # three noiseless points in three dimensions, two of them at one
    # location: a search ends in an abnormal line search, after which setulb
    # restores the last iterate (scipy then reports the last trial value,
    # not the one at x). With non-negative noise every covariance factors
    # somewhere on the jitter ladder, so factoring is made to fail above a
    # process variance of 1, where an evaluation reports _FAILED_FIT.
    X, y, noise = _fit_data(28, 3, 3, 0, False, True, False)
    X[1] = X[0]

    def failing_above_one(K, noise, process_variance):
        if process_variance > 1.0:
            raise GpFitError("forced")
        return _factor_gram(K, noise, process_variance)

    monkeypatch.setattr("moeeqi.gp._factor_gram", failing_above_one)
    searches = _searches_against_scipy((X, y, noise))
    assert any(not success for success, _, _ in searches)
    assert any(failed for _, failed, _ in searches)
    assert any(moved for _, _, moved in searches)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.integers(1, 3),
       st.sampled_from([-400, 400]) | st.integers(-400, 400), st.booleans(), st.booleans(),
       st.booleans())
def test_fit_scales_with_the_responses_by_a_power_of_two(seed, size, dim, k, near_duplicate,
                                                         noiseless, constant):
    # responses times 2**k and noise variances times 4**k: the same
    # lengthscales and the process variance times 4**k, bit for bit
    X, y, noise = _fit_data(seed, size, dim, 0, near_duplicate, noiseless, constant)
    fits = []
    for j in (0, k):
        try:
            cold = fit_hyperparameters(X, np.ldexp(y, j), np.ldexp(noise, 2 * j), rng=0)
            warm = fit_hyperparameters(X, np.ldexp(y, j), np.ldexp(noise, 2 * j), rng=1,
                                       warm_start=cold)
        except GpFitError as exc:
            fits.append(str(exc))
            continue
        fits.append([(np.ldexp(p.process_variance, -2 * j).tobytes(), p.lengthscales.tobytes())
                     for p in (cold, warm)])
    assert fits[1] == fits[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 30), st.booleans())
def test_emulator_projection_equals_the_wrapper_reference(seed, dim, size, noiseless):
    # Without noise, close locations and long lengthscales leave the Gram
    # matrix singular to working precision, and the ladder climbs a rung.
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(size, dim))
    params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.05, 5.0, size=dim))
    noise = np.zeros(size) if noiseless else params.process_variance * rng.uniform(0.0, 0.5, size)
    ds = GpDataset([NoisyObservation(X[j], rng.normal(), noise[j]) for j in range(size)])
    bounds = np.array([[0.0, 2.0]] * dim)
    want_proj, want_beta0, want_jitter = emulator_projection_reference(ds, params, bounds)
    em = GpEmulator(ds, params, control_bounds=bounds)
    assert em.jitter_used == want_jitter
    assert em.beta0 == want_beta0
    assert np.array_equal(em._proj, want_proj)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12))
def test_blocked_posterior_matches_the_cho_solve_reference(seed, dim, size):
    rng = np.random.default_rng(seed)
    _, _, params, _, ds = _random_gp_data(rng, dim, size)
    bounds = np.array([[-1.0, 2.0]] * dim)
    em = GpEmulator(ds, params, control_bounds=bounds)
    Xq = rng.uniform(-1.5, 2.5, size=(2 * _ROW_BLOCK + 17, dim))  # three blocks, the last short
    Xq[:size] = ds.locations()
    mean, var = em.posterior(Xq)
    want_mean, want_var = posterior_reference(ds, params, Xq, control_bounds=bounds)
    assert np.all(np.abs(mean - want_mean) <= 1e-12 * np.maximum(1.0, np.abs(want_mean)))
    assert np.all(np.abs(var - want_var) <= 1e-12 * params.process_variance)
    for i in (0, _ROW_BLOCK - 1, _ROW_BLOCK, len(Xq) - 1):
        m, v = em.posterior(Xq[i])
        assert abs(m - mean[i]) <= 1e-12 * max(1.0, abs(mean[i]))
        assert abs(v - var[i]) <= 1e-12 * params.process_variance


def _lattice_emulator(rng, sizes):
    """An emulator on a random non-unit control box, with the data of
    ``_random_gp_data`` moved into the box, and a lattice in the box whose
    axis k has ``sizes[k]`` values (one value: a pinned axis)."""
    dim = len(sizes)
    lo = rng.uniform(-3.0, 1.0, dim)
    bounds = np.column_stack([lo, lo + rng.uniform(0.5, 4.0, dim)])
    size = int(rng.integers(2, 31))
    X, y, params, noise, _ = _random_gp_data(rng, dim, size)
    X = bounds[:, 0] + (X + 1.0) / 3.0 * (bounds[:, 1] - bounds[:, 0])
    ds = GpDataset([NoisyObservation(X[j], y[j], noise[j]) for j in range(size)])
    axes = [np.sort(rng.uniform(lo_k, hi_k, r)) for (lo_k, hi_k), r in zip(bounds, sizes)]
    lattice = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return GpEmulator(ds, params, control_bounds=bounds), axes, lattice, np.abs(y).max()


def _assert_lattice_matches_points(em, axes, lattice, y_scale):
    # the mean relative to itself, or to the response scale where it nears 0
    mean, var = em.posterior(lattice, axes=axes)
    want_mean, want_var = em.posterior(lattice)
    assert np.all(np.abs(mean - want_mean) <= 1e-12 * np.maximum(np.abs(want_mean), y_scale))
    assert np.all(np.abs(var - want_var) <= 1e-12 * em.params.process_variance)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=3),
       st.integers(-1, 2))
def test_lattice_posterior_matches_the_point_path(seed, sizes, pinned):
    # pinned, when it names an axis, makes that axis a single value
    if 0 <= pinned < len(sizes):
        sizes[pinned] = 1
    _assert_lattice_matches_points(*_lattice_emulator(np.random.default_rng(seed), sizes))


@pytest.mark.parametrize("sizes", [
    (90, 70),  # a 70-row tail: slabs of 58 leading values, the last of 32
    (3, 50, 40),  # a 2,000-row tail: slabs of 2 leading values, the last of 1
    (2 * _ROW_BLOCK + 17,),  # one axis: blocks of _ROW_BLOCK rows, the last short
    (2, 4100),  # a tail longer than _ROW_BLOCK: slabs of one leading value
    (3, 70, 70),  # a 4,900-row tail of two axes: slabs of one leading value
])
def test_lattice_posterior_with_a_ragged_last_slab(sizes):
    assert math.prod(sizes) > _ROW_BLOCK
    _assert_lattice_matches_points(*_lattice_emulator(np.random.default_rng(len(sizes)), sizes))


def test_lattice_axes_must_make_the_points():
    em, axes, lattice, _ = _lattice_emulator(np.random.default_rng(0), (4, 3))
    for bad_axes, points in [(axes[:1], lattice), (axes[::-1] + axes[:1], lattice),
                             (axes, lattice[:-1]), (axes, lattice[0]),
                             ([axes[0][:, None], axes[1]], lattice)]:
        with pytest.raises(ValueError, match="axes of sizes"):
            em.posterior(points, axes=bad_axes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from(list(ImprovementMode)))
def test_blocked_improvement_terms_equal_the_two_edge_reference(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    n = 2 * _ROW_BLOCK + 17  # two full blocks and a short tail
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    # Degenerate candidates and means on a strip edge or top in the first
    # and the last block; the middle block has no zero sd at all.
    for lo in (0, n - 40):
        sd1[lo:lo + 10] = 0.0
        sd2[lo + 5:lo + 15] = 0.0
        mu1[lo:lo + 20:2] = rng.choice(front.q1s(), 10)
        mu2[lo + 1:lo + 20:2] = rng.choice(front.q2s(), 10)
    got = _improvement_terms(front, mu1, sd1, mu2, sd2, mode)
    want = improvement_terms_reference(front, mu1, sd1, mu2, sd2, mode)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from(list(ImprovementMode)))
def test_moeeqi_scores_are_batch_invariant_and_non_negative(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    n = 30
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    sd1[:8] = 0.0
    sd2[4:12] = 0.0
    scores = moeeqi_scores(front, mu1, sd1, mu2, sd2, mode)
    assert np.all(scores >= 0.0)
    for i in range(n):
        one = moeeqi(front, QuantilePosterior(mu1[i], sd1[i]), QuantilePosterior(mu2[i], sd2[i]), mode)
        assert scores[i] == one


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from(list(ImprovementMode)))
def test_moeeqi_scores_equal_the_dense_reference(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    q1, q2 = front.q1s(), front.q2s()
    n = 60
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    # Zero sds in either objective and both; means exactly on a strip edge
    # (a q1), on a top (a q2), and on a front point.
    for lo in (0, 30):
        sd1[lo:lo + 8] = 0.0
        sd2[lo + 4:lo + 12] = 0.0
    mu1[:30:2] = rng.choice(q1, 15)
    mu2[1:30:3] = rng.choice(q2, 10)
    on = rng.integers(0, size, 10)
    mu1[30:40], mu2[30:40] = q1[on], q2[on]
    got = moeeqi_scores(front, mu1, sd1, mu2, sd2, mode)
    assert np.array_equal(got, moeeqi_scores_reference(front, mu1, sd1, mu2, sd2, mode))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from(list(ImprovementMode)))
def test_moeeqi_scores_vanish_where_the_improvement_mass_does(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    n = 40
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    # Dominated candidates: exact ones, and ones so far above and right of
    # the front that every normal tail mass underflows to zero.
    sd1[:10] = sd2[:10] = 0.0
    mu1[:20] = front.q1s()[-1] + 40.0 * sd1[:20] + rng.uniform(0.1, 2.0, 20)
    mu2[:20] = front.q2s()[0] + 40.0 * sd2[:20] + rng.uniform(0.1, 2.0, 20)
    mass, _, _ = _improvement_terms(front, mu1, sd1, mu2, sd2, mode)
    assert np.all(mass[:20] == 0.0)
    scores = moeeqi_scores(front, mu1, sd1, mu2, sd2, mode)
    assert np.all(scores[mass <= 0.0] == 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from(list(ImprovementMode)))
def test_score_bounds_are_at_least_the_scores(seed, size, mode):
    rng = np.random.default_rng(seed)
    front = random_front(rng, size)
    q1, q2 = front.q1s(), front.q2s()
    n = 80
    mu1, mu2 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    sd1, sd2 = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n)
    # Zero sds in either objective and both; means exactly on a front edge
    # (a q1) or a top (a q2), and exactly on a front point, where the true
    # score is 0 and the computed one can be rounding noise; candidates far
    # inside the front, where the improvement is certain, and far outside
    # it, where it vanishes.
    for lo in (0, 30, 40):
        sd1[lo:lo + 8] = 0.0
        sd2[lo + 4:lo + 12] = 0.0
    mu1[:30:2] = rng.choice(q1, 15)
    mu2[1:30:3] = rng.choice(q2, 10)
    on = rng.integers(0, size, 10)
    mu1[30:40], mu2[30:40] = q1[on], q2[on]
    mu1[40:60], mu2[40:60] = q1[0] - rng.uniform(1.0, 50.0, 20), q2[-1] - rng.uniform(1.0, 50.0, 20)
    mu1[60:], mu2[60:] = q1[-1] + rng.uniform(1.0, 50.0, 20), q2[0] + rng.uniform(1.0, 50.0, 20)
    bound = _score_bounds(front, mu1, sd1, mu2, sd2, mode)
    scores = moeeqi_scores(front, mu1, sd1, mu2, sd2, mode)
    assert np.all(bound >= scores)


@st.composite
def _bound_inputs(draw):
    """A front of 1 to 30 points, on a lattice of eighths or not, a mode, and
    more than ``_ROW_BLOCK`` candidates (mu1, sd1, mu2, sd2): random ones,
    ones with sd 0 in one objective or both, ones exactly on an edge or a
    top, and ones whose best two splits tie exactly in the larger
    standardized edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, mode = draw(st.integers(1, 30)), draw(st.sampled_from(list(ImprovementMode)))
    if draw(st.booleans()):
        q1 = np.sort(rng.choice(np.arange(-80, 80), size, replace=False)) / 8.0
        q2 = np.sort(rng.choice(np.arange(-80, 80), size, replace=False))[::-1] / 8.0
        front = ParetoFront([FrontPoint(float(a), float(b)) for a, b in zip(q1, q2)])
    else:
        front = random_front(rng, size, -10.0, 10.0)
    t, z = front.q1s(), front.q2s()
    tops = np.r_[z[1:], z[-1]] if mode is ImprovementMode.AGGRESSIVE else z
    n = _ROW_BLOCK + draw(st.integers(1, 400))
    mu1, mu2 = rng.uniform(-12.0, 12.0, n), rng.uniform(-12.0, 12.0, n)
    sd1, sd2 = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
    sd1[:300], sd2[200:500] = 0.0, 0.0
    mu1[::7], mu2[::5] = rng.choice(t, mu1[::7].size), rng.choice(tops, mu2[::5].size)
    if size > 1:
        # Splits j and j + 1 tie at w = (tops[j] - mu2) / s = (t[j + 1] - mu1) / s
        # when mu1 - mu2 = t[j + 1] - tops[j], and their edges differ; on the
        # lattice, with s a power of two or an sd of 0 (the raw edge), exactly.
        rows = slice(n - 1000, n)
        j = rng.integers(0, size - 1, 1000)
        mu2[rows] = tops[j] + rng.integers(0, 17, 1000) / 8.0
        mu1[rows] = mu2[rows] + t[j + 1] - tops[j]
        pairs = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
        sd1[rows], sd2[rows] = pairs[rng.integers(0, len(pairs), 1000)].T
    return front, mode, (mu1, sd1, mu2, sd2)


@settings(max_examples=150, deadline=None)
@given(_bound_inputs())
def test_score_bounds_equal_the_loop_reference(inputs):
    front, mode, cols = inputs
    got = _score_bounds(front, *cols, mode)
    assert np.array_equal(got, score_bounds_reference(front, *cols, mode))


@st.composite
def _selection_states(draw):
    """A two-objective state on the unit square with hand-set kernels, and a
    grid of candidates with repeated rows and the design locations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 8))
    X = rng.uniform(0.0, 1.0, (size, 2))
    noisy = draw(st.booleans())
    datasets = tuple(
        GpDataset([NoisyObservation(x, float(m), float(v)) for x, m, v in
                   zip(X, rng.normal(0.0, 1.0, size), rng.uniform(0.0, 0.3, size) * noisy)])
        for _ in range(2))
    cut = draw(st.sampled_from(["none", "middle", "all"]))
    bound = {"none": None, "middle": float(np.median(datasets[0].means())), "all": -1e6}[cut]
    problem = ProblemSpec(evaluator=lambda xc, xe: np.zeros((len(xe), 2)), env=(Uniform(-1.0, 1.0),),
                          control_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
                          constraints=ConstraintSpec((bound, None)))
    params = [KernelParams(float(rng.uniform(0.5, 2.0)), rng.uniform(0.1, 0.6, 2)) for _ in range(2)]
    emulators = tuple(GpEmulator(ds, p, control_bounds=problem.control_bounds)
                      for ds, p in zip(datasets, params))
    config = RunConfig(beta=draw(st.sampled_from([0.5, 0.7, 0.9])), n_mc=2, n_iter=0,
                       comparator=draw(st.sampled_from(["moeeqi", "moeei"])),
                       literal_constraint_formula=draw(st.booleans()))
    empty = ParetoFront([])
    state = RunState(problem, config, datasets, emulators, 0, empty, empty)
    grid = rng.uniform(0.0, 1.0, (draw(st.integers(1, 300)), 2))
    grid = np.vstack([grid[rng.integers(0, len(grid), draw(st.integers(0, 100)))], grid, X])
    return state, rng.permutation(grid)


@settings(max_examples=150, deadline=None)
@given(_selection_states(), st.sampled_from(list(ImprovementMode)), st.booleans())
def test_select_equals_the_full_argmax(state_grid, mode, empty_front):
    state, grid = state_grid
    front = ParetoFront([]) if empty_front else _design_front(state)
    point, score, fallback = _select(state, front, grid, mode)
    want_point, want_score, want_fallback = select_reference(state, front, grid, mode)
    assert point.tobytes() == want_point.tobytes()
    assert (score, fallback) == (want_score, want_fallback)


@st.composite
def _lattice_selection_states(draw):
    """A two-objective state with hand-set kernels on a box of 1 to 3 axes,
    and a candidate lattice in it with its axes. With two or three axes one
    axis may be pinned to a single value. The lattice is small, or just
    over one or two ``_ROW_BLOCK`` blocks, the last one short. Short
    lengthscales make the posterior flat away from the data, so that
    scores and summed variances tie across blocks. The constraint on
    objective 1 is absent, cuts through the candidates, or rejects them
    all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    lo = rng.uniform(-2.0, 1.0, dim)
    bounds = np.column_stack([lo, lo + rng.uniform(0.5, 3.0, dim)])
    size = draw(st.integers(2, 8))
    X = bounds[:, 0] + rng.uniform(0.0, 1.0, (size, dim)) * (bounds[:, 1] - bounds[:, 0])
    noisy = draw(st.booleans())
    datasets = tuple(
        GpDataset([NoisyObservation(x, float(m), float(v)) for x, m, v in
                   zip(X, rng.normal(0.0, 1.0, size), rng.uniform(0.0, 0.3, size) * noisy)])
        for _ in range(2))
    cut = draw(st.sampled_from(["none", "middle", "all"]))
    bound = {"none": None, "middle": float(np.median(datasets[0].means())), "all": -1e6}[cut]
    problem = ProblemSpec(evaluator=lambda xc, xe: np.zeros((len(xe), 2)), env=(Uniform(-1.0, 1.0),),
                          control_bounds=bounds, constraints=ConstraintSpec((bound, None)))
    scale = draw(st.sampled_from([1.0, 0.05]))
    params = [KernelParams(float(rng.uniform(0.5, 2.0)), rng.uniform(0.1, 0.6, dim) * scale)
              for _ in range(2)]
    emulators = tuple(GpEmulator(ds, p, control_bounds=bounds) for ds, p in zip(datasets, params))
    config = RunConfig(beta=draw(st.sampled_from([0.5, 0.7, 0.9])), n_mc=2, n_iter=0,
                       comparator=draw(st.sampled_from(["moeeqi", "moeei"])),
                       literal_constraint_formula=draw(st.booleans()))
    empty = ParetoFront([])
    state = RunState(problem, config, datasets, emulators, 0, empty, empty)
    lattice = bounds.copy()
    pinned = draw(st.integers(-1, dim - 1)) if dim > 1 else -1
    if pinned >= 0:
        lattice[pinned] = rng.uniform(*bounds[pinned])
    free = dim - (pinned >= 0)
    blocks = draw(st.sampled_from([0, 1, 2]))  # full blocks below the lattice size
    resolution = (int(rng.integers(2, 12)) if blocks == 0 else
                  math.ceil((blocks * _ROW_BLOCK + 1) ** (1 / free)) + int(rng.integers(0, 3)))
    return state, candidate_grid(lattice, resolution), candidate_axes(lattice, resolution)


@settings(max_examples=100, deadline=None)
@given(_lattice_selection_states(), st.sampled_from(list(ImprovementMode)), st.booleans())
def test_lattice_select_equals_the_full_argmax(state_grid_axes, mode, empty_front):
    state, grid, axes = state_grid_axes
    front = ParetoFront([]) if empty_front else _design_front(state)
    point, score, fallback = _select(state, front, grid, mode, axes)
    want_point, want_score, want_fallback = select_reference(state, front, grid, mode, axes)
    assert point.tobytes() == want_point.tobytes()
    assert (score, fallback) == (want_score, want_fallback)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
def test_initial_design_is_a_latin_hypercube(seed, size, dim):
    design = initial_design(size, [[0.0, 1.0]] * dim, np.random.default_rng(seed))
    assert design.shape == (size, dim)
    for k in range(dim):
        assert sorted(np.floor(design[:, k] * size).astype(int)) == list(range(size))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
def test_initial_design_equals_the_full_recompute_reference(seed, size, dim):
    bounds = [[-1.0, 2.0]] * dim
    got = initial_design(size, bounds, np.random.default_rng(seed))
    assert np.array_equal(got, initial_design_reference(size, bounds, np.random.default_rng(seed)))


@pytest.mark.parametrize("size, bounds", [
    (20, [[-1.0, 2.0]]),
    (20, [[-1.0, 2.0]] * 2),
    (20, [[-1.0, 2.0]] * 3),
    (30, [[-1.0, 2.0]] * 2),
    (20, [[0.0, 1.0], [0.5, 0.5], [-2.0, 3.0]]),  # a pinned axis
])
def test_initial_design_equals_the_reference_at_the_benchmark_size(size, bounds):
    # Above the property's sizes: 20 initial points is the dense_select size.
    got = initial_design(size, bounds, np.random.default_rng(7))
    assert np.array_equal(got, initial_design_reference(size, bounds, np.random.default_rng(7)))


@pytest.mark.parametrize("terms", [1, 3 * 20 * 20])
def test_initial_design_in_capped_exchange_batches_equals_the_reference(monkeypatch, terms):
    # One and three swap partners per batch at 20 points (uncapped below 65):
    # a batch without a hit hands on to the next batch of the same row.
    monkeypatch.setattr("moeeqi.problems._EXCHANGE_TERMS", terms)
    bounds = [[-1.0, 2.0]] * 2
    got = initial_design(20, bounds, np.random.default_rng(7))
    assert np.array_equal(got, initial_design_reference(20, bounds, np.random.default_rng(7)))


@st.composite
def _pinned_box(draw):
    """A box of 2-4 axes and pins on a proper subset of them, each value in
    its axis's range (never -0.0, which the design stores as 0.0)."""
    dim = draw(st.integers(2, 4))
    bounds = []
    for _ in range(dim):
        lo = draw(st.floats(-5.0, 5.0))
        bounds.append([lo, lo + draw(st.floats(0.1, 5.0))])
    pinned = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    values = {k: draw(st.floats(*bounds[k]).filter(lambda x: x != 0 or math.copysign(1.0, x) > 0))
              for k in pinned}
    return np.array(bounds), values


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), _pinned_box())
def test_pinned_design_equals_the_free_design_with_its_columns_overwritten(seed, size, box):
    bounds, values = box
    pinned = bounds.copy()
    for k, value in values.items():
        pinned[k] = (value, value)
    want = initial_design(size, bounds, np.random.default_rng(seed))
    for k, value in values.items():
        want[:, k] = value
    got = initial_design(size, pinned, np.random.default_rng(seed))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # bit for bit


_FLOAT_MAX = float(np.finfo(float).max)
# zero, the decades from 1e-300, and the top ones, where a sum of two overflows
_variances = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(1e300, _FLOAT_MAX))


def _table_inputs(pairs, scalar_noise):
    var, noise = np.array(pairs, float).reshape(-1, 2).T
    return var, (float(noise[0]) if scalar_noise else noise)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_variances, _variances), min_size=1, max_size=12), st.booleans(),
       st.floats(0.5, 0.999))
@example([(1e308, 1e308), (1.0, 1e308), (0.0, 0.0), (1e-300, 0.0), (0.0, 2.5)], False, 0.7)
def test_quantile_table_equals_the_two_formula_reference_where_the_sum_is_finite(
        pairs, scalar_noise, beta):
    var, noise = _table_inputs(pairs, scalar_noise)
    mean = np.linspace(-1.0, 1.0, var.size)
    got = quantile_posterior_arrays(mean, var, noise, beta)
    want = quantile_table_reference(mean, var, noise, beta)
    with np.errstate(over="ignore"):
        finite = np.isfinite(var + noise)
    for g, w in zip(got, want):
        assert g[finite].tobytes() == w[finite].tobytes()  # bit for bit


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than float64")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1e307, _FLOAT_MAX), st.floats(1e307, _FLOAT_MAX)),
                min_size=1, max_size=12), st.booleans(), st.floats(0.5, 0.999))
@example([(1e308, 1e308), (_FLOAT_MAX, _FLOAT_MAX), (_FLOAT_MAX, 1e307)], False, 0.7)
def test_quantile_table_where_the_sum_overflows_is_within_ulps_of_long_double(
        pairs, scalar_noise, beta):
    var, noise = _table_inputs(pairs, scalar_noise)
    shift, sd = quantile_posterior_arrays(0.0, var, noise, beta)
    v, s = var.astype(np.longdouble), np.asarray(noise, np.longdouble)
    total = v + s  # finite in the wider exponent range
    want_sd = v / np.sqrt(total)
    want_shift = np.longdouble(std_normal_quantile(beta)) * np.sqrt(v) * np.sqrt(s / total)
    with np.errstate(over="ignore"):
        over = np.isinf(var + noise)

    def ulps(got, want):
        return (np.abs(got.astype(np.longdouble) - want) / np.spacing(want.astype(float)))[over]

    assert np.all(ulps(sd, want_sd) <= 2.0)
    assert np.all(ulps(shift, want_shift) <= 3.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-12, 1e12), st.integers(1, 5), st.floats(-1e3, 1e3),
       st.floats(0.0, 1e12), st.integers(2, 50))
@example(0.0, 1.9e-06, 1, 0.0, 1e12, 10)  # 1 / (w_old + w_new) rounds above 1.9e-06
def test_merge_replicate_never_grows_the_variance(mean, var, reps, new_mean, new_var, n):
    old = NoisyObservation(np.array([0.0]), mean, var, replications=reps)
    assert merge_replicate(old, new_mean, new_var, n).variance <= var


def _whole(lo, hi):
    """Whole numbers, some given as floats such as 2.0."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


@st.composite
def _configs(draw):
    n_iter = draw(st.integers(0, 12))
    split = draw(st.integers(0, n_iter))
    modes = draw(st.permutations(["aggressive", "non_aggressive"]))
    return RunConfig(
        beta=draw(st.floats(0.5, 1.0, exclude_max=True)),
        n_mc=draw(_whole(2, 50)),
        n_iter=n_iter,
        grid_resolution=draw(_whole(2, 400)),
        initial_design_size=draw(_whole(2, 20)),
        seed=draw(_whole(0, 2**40)),
        mode_schedule=draw(st.sampled_from([None, [[modes[0], split], [modes[1], n_iter - split]]])),
        comparator=draw(st.sampled_from(["moeeqi", "moeei"])),
        refit_hyperparameters=draw(st.booleans()),
        literal_constraint_formula=draw(st.booleans()),
        min_score=draw(st.none() | st.floats(allow_nan=False)),
        fixed_coords=draw(st.none() | st.dictionaries(
            st.integers(0, 3), st.floats(-2.0, 2.0, allow_nan=False), max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_load_config_reads_back_the_echo_of_a_config(config):
    doc = json.loads(json.dumps(_config_echo(config)))
    assert load_config(doc) == (config, {"study_betas": None, "truth_resolution": 500})


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _json_values, max_size=6), st.text(" \t\r\n", max_size=3),
       _json_values.filter(lambda v: not isinstance(v, dict)), st.sampled_from(["problem", "config"]))
def test_read_document_reads_one_object_from_a_dict_text_or_file(tmp_path_factory, doc, blanks,
                                                                  other, what):
    before = dict(doc)
    copy = read_document(doc, what)
    assert copy == doc
    copy.clear()
    assert doc == before
    assert read_document(blanks + json.dumps(doc), what) == doc
    folder = tmp_path_factory.mktemp("documents")
    (folder / "doc.json").write_text(json.dumps(doc))
    assert read_document(str(folder / "doc.json"), what) == doc
    (folder / "other.json").write_text(json.dumps(other))
    for source in (str(folder / "other.json"), blanks + json.dumps([other])):
        with pytest.raises(ProblemSchemaError, match=f"^{what} must be a JSON object"):
            read_document(source, what)
    with pytest.raises(FileNotFoundError):
        read_document(str(folder / "missing.json"), what)


# ---------------------------------------------------------------------------
# Whole runs on small generated problems
# ---------------------------------------------------------------------------

_RESPONSES = ("noisy", "noise-free", "constant", "lumpy")
_kinds = st.tuples(st.sampled_from(_RESPONSES), st.sampled_from(_RESPONSES))


def _generated_run(seed, kinds, k=0):
    """A ProblemSpec and RunConfig drawn from ``seed``: 1-3 control axes on
    a random box, one of them pinned half the time when another stays free,
    an upper bound on one objective half the time, 2-15 grid values per axis
    and 0-4 iterations. Objective i is a smooth function of the control
    point plus, by ``kinds[i]``: a continuous environmental term ("noisy"),
    nothing ("noise-free"), a 0/1 term that often takes one value over a
    whole batch ("lumpy", so one location gets batches with and without
    variance); or it is one value everywhere ("constant"). Both objectives
    and the bound are multiplied by 2**k, which is exact."""
    rng = np.random.default_rng(seed)
    v = int(rng.integers(1, 4))
    lo = rng.uniform(-2.0, 2.0, v)
    bounds = np.column_stack([lo, lo + rng.uniform(0.5, 3.0, v)])
    coef = rng.normal(size=(2, v + 1))

    def evaluator(xc, xe):
        u = (xc - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
        out = np.empty((len(xe), 2))
        for i, kind in enumerate(kinds):
            f = coef[i, 0] + np.sum(coef[i, 1:] * np.sin(3.0 * u)) + (2 * i - 1) * u.sum()
            out[:, i] = {"noisy": f + 0.3 * xe[:, i], "noise-free": f, "constant": coef[i, 0],
                         "lumpy": f + (xe[:, i] > 0.6)}[kind]
        return np.ldexp(out, k)

    fixed = None
    if v > 1 and rng.random() < 0.5:
        axis = int(rng.integers(v))
        fixed = {axis: float(rng.uniform(*bounds[axis]))}
    constraints = None
    if rng.random() < 0.5:
        upper = [None, None]
        upper[int(rng.integers(2))] = float(np.ldexp(rng.normal(), k))
        constraints = ConstraintSpec(tuple(upper))
    problem = ProblemSpec(evaluator, (Uniform(-1.0, 1.0), Uniform(-1.0, 1.0)), bounds, constraints)
    n_iter = int(rng.integers(0, 5))
    aggressive = int(rng.integers(0, n_iter + 1))
    config = RunConfig(
        beta=float(rng.choice([0.5, 0.7, 0.9])), n_mc=int(rng.integers(2, 5)), n_iter=n_iter,
        grid_resolution=int(rng.integers(2, 16)), initial_design_size=int(rng.integers(2, 6)),
        seed=int(rng.integers(2**31)), comparator=str(rng.choice(["moeeqi", "moeei"])),
        mode_schedule=(("aggressive", aggressive), ("non_aggressive", n_iter - aggressive)),
        refit_hyperparameters=bool(rng.random() < 0.8), fixed_coords=fixed)
    return problem, config


def _choices(state):
    return [(r.point.tobytes(), r.replicate, r.fallback) for r in state.history]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), _kinds, st.sampled_from([-400, 400]) | st.integers(-400, 400))
# a near-constant response near 2**-400: unstandardized, its box made C^-1 overflow
@example(1103315524, ("noisy", "constant"), -400)
def test_scaling_both_objectives_by_a_power_of_two_keeps_the_choices(seed, kinds, k):
    states = [run(*_generated_run(seed, kinds, scale)) for scale in (0, k)]
    assert _choices(states[1]) == _choices(states[0])


def _run_record(state):
    """Everything a run leaves, as comparable values."""
    fronts = [state.initial_front, state.front] + [r.front for r in state.history]
    return ([(ds.locations().tobytes(), ds.means().tobytes(), ds.variances().tobytes(),
              [o.replications for o in ds]) for ds in state.datasets],
            [(r.iteration, r.score, r.mode) for r in state.history] + _choices(state),
            [(f.q1s().tobytes(), f.q2s().tobytes()) for f in fronts])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), _kinds.filter(lambda kinds: kinds != ("noisy", "noisy")))
@example(43, ("lumpy", "noise-free"))  # reaches both zero-variance branches of merge_replicate
def test_degenerate_responses_run_or_fail_naming_the_cause(seed, kinds):
    outcomes = []
    for _ in range(2):  # the same seed twice
        try:
            outcomes.append(run(*_generated_run(seed, kinds)))
        except (ValueError, GpFitError) as exc:
            assert re.search("objective|covariance|response|evaluator", str(exc)), exc
            outcomes.append(exc)
    first, again = outcomes
    if isinstance(first, Exception):
        assert (type(again), str(again)) == (type(first), str(first))
        return
    assert _run_record(again) == _run_record(first)
    for front in [first.initial_front, first.front] + [r.front for r in first.history]:
        assert np.all(np.diff(front.q1s()) > 0) and np.all(np.diff(front.q2s()) < 0)
    batches = first.config.initial_design_size + len(first.history)
    assert [sum(o.replications for o in ds) for ds in first.datasets] == [batches, batches]
