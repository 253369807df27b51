"""Property tests: invariants of front construction and front metrics,
checked on generated inputs against the per-point oracles."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_front, front_metrics_reference
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
