"""Property tests: invariants of front construction, front metrics and the
GP likelihood, checked on generated inputs against independent references."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_front, front_metrics_reference
from moeeqi.gp import GpDataset, KernelParams, NoisyObservation, log_marginal_likelihood
from moeeqi.optimizer import front_metrics
from moeeqi.pareto import FrontPoint, build_front

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
    got = front_metrics(front, truth, (5.0, 10.0))
    want = front_metrics_reference(front, truth, (5.0, 10.0))
    assert got[2] == want[2]
    if len(front) == 0:
        assert math.isnan(got[0]) and all(math.isnan(v) for v in got[1].values())
        return
    assert got[0] == want[0]
    assert got[1] == want[1]


def _dense_profiled_loglik(X, y, noise, params):
    """Restricted log-likelihood from a dense inverse and slogdet of
    C = K + diag(noise), with the constant trend profiled out."""
    diff = (X[:, None, :] - X[None, :, :]) / params.lengthscales
    C = params.process_variance * np.exp(-0.5 * np.sum(diff**2, axis=2)) + np.diag(noise)
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
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 2.0, size=(size, dim))
    y = rng.normal(scale=rng.uniform(0.1, 3.0), size=size)
    params = KernelParams(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0, size=dim))
    # a noise floor keeps C well conditioned, so no jitter is applied
    noise = params.process_variance * rng.uniform(0.01, 0.5, size=size)
    ds = GpDataset([NoisyObservation(X[j], y[j], noise[j]) for j in range(size)])
    got = log_marginal_likelihood(ds, params)
    want = _dense_profiled_loglik(X, y, noise, params)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
