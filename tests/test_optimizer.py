"""Tests for the sequential-design loop, selection operators, and metrics."""

import dataclasses
import math

import numpy as np
import pytest

from moeeqi.acquisition import quantile_posterior
from moeeqi.gp import GpDataset, GpEmulator, KernelParams, NoisyObservation
from moeeqi.optimizer import (
    Metrics,
    RunConfig,
    RunState,
    _design_front,
    _select,
    evaluate_metrics,
    front_metrics,
    run,
    select_next,
)
from moeeqi.pareto import (
    ConstraintSpec,
    FrontPoint,
    ImprovementMode,
    ParetoFront,
    moeeqi,
)
from moeeqi.problems import (
    ProblemSchemaError,
    ProblemSpec,
    Uniform,
    candidate_grid,
    toy_problem,
    true_pareto_front,
)

AGG = ImprovementMode.AGGRESSIVE
NONAGG = ImprovementMode.NON_AGGRESSIVE


def _small_config(**overrides):
    base = dict(beta=0.7, n_mc=6, n_iter=3, grid_resolution=15, initial_design_size=4, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def _manual_state(obs1, obs2, params, beta=0.7):
    """RunState wrapping hand-built datasets on the unit interval."""
    problem = ProblemSpec(
        evaluator=lambda xc, xe: np.zeros((len(xe), 2)),
        env=(Uniform(-1.0, 1.0),),
        control_bounds=np.array([[0.0, 1.0]]),
    )
    ds1, ds2 = GpDataset(obs1), GpDataset(obs2)
    em1 = GpEmulator(ds1, params, control_bounds=problem.control_bounds)
    em2 = GpEmulator(ds2, params, control_bounds=problem.control_bounds)
    config = RunConfig(beta=beta, n_mc=2, n_iter=0, initial_design_size=2)
    empty = ParetoFront([])
    return RunState(problem, config, (ds1, ds2), (em1, em2), 0, empty, empty)


def _as_moeei(state):
    """The same state under the plug-in comparator."""
    return dataclasses.replace(state, config=dataclasses.replace(state.config, comparator="moeei"))


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_defaults_give_all_aggressive_schedule(self):
        config = RunConfig(n_iter=5)
        assert config.iteration_modes() == [AGG] * 5

    def test_schedule_must_sum_to_iterations(self):
        with pytest.raises(ValueError):
            RunConfig(n_iter=5, mode_schedule=(("aggressive", 2), ("non_aggressive", 2)))

    def test_schedule_accepts_strings(self):
        config = RunConfig(n_iter=4, mode_schedule=(("aggressive", 2), ("non_aggressive", 2)))
        assert config.iteration_modes() == [AGG, AGG, NONAGG, NONAGG]

    def test_field_validation(self):
        with pytest.raises(ValueError):
            RunConfig(beta=0.4)
        with pytest.raises(ValueError):
            RunConfig(n_mc=1)
        with pytest.raises(ValueError):
            RunConfig(comparator="random")

    @pytest.mark.parametrize("field, value", [
        ("n_mc", 2.5), ("seed", 1.5), ("grid_resolution", 2.5), ("beta", "0.7"),
        ("refit_hyperparameters", "false"), ("literal_constraint_formula", 1),
        ("n_iter", True), ("min_score", "0.1"), ("seed", -1),
        ("mode_schedule", (("aggressive", 10), ("non_aggressive", -1))),
        ("fixed_coords", {0.5: 0.1}), ("min_score", math.nan),
    ])
    def test_wrong_type_raises_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{"n_iter": 9, field: value})

    def test_whole_floats_are_stored_as_ints(self):
        config = RunConfig(n_mc=10.0, n_iter=4.0, seed=3.0, mode_schedule=[["aggressive", 4.0]])
        assert (config.n_mc, config.n_iter, config.seed) == (10, 4, 3)
        assert all(type(v) is int for v in (config.n_mc, config.n_iter, config.seed))
        assert config.mode_schedule == ((AGG, 4),)


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


class TestRun:
    def test_zero_iterations_returns_initial_fit(self):
        state = run(toy_problem(0.0), _small_config(n_iter=0))
        assert state.iteration == 0
        assert state.history == []
        assert len(state.datasets[0]) == 4
        assert len(state.front) >= 1
        assert state.front is state.initial_front

    def test_protocol_run_bounds_design_size(self):
        config = RunConfig(
            beta=0.7, n_mc=10, n_iter=9, grid_resolution=100, initial_design_size=5, seed=3
        )
        state = run(toy_problem(0.0), config)
        assert len(state.datasets[0]) <= 14
        total_batches = sum(o.replications for o in state.datasets[0])
        assert total_batches == 14

    def test_deterministic_histories(self):
        a = run(toy_problem(0.5), _small_config(seed=21))
        b = run(toy_problem(0.5), _small_config(seed=21))
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert np.array_equal(ra.point, rb.point)
            assert ra.score == rb.score
            assert ra.replicate == rb.replicate

    def test_datasets_stay_location_aligned(self):
        state = run(toy_problem(0.5), _small_config(n_iter=4, seed=2))
        assert np.array_equal(state.datasets[0].locations(), state.datasets[1].locations())
        reps0 = [o.replications for o in state.datasets[0]]
        reps1 = [o.replications for o in state.datasets[1]]
        assert reps0 == reps1

    def test_replication_branch_pools_batches(self):
        # coarse grid and conservative beta make repeats likely; seed chosen
        # so the argmax revisits an existing grid point
        config = RunConfig(beta=0.9, n_mc=5, n_iter=8, grid_resolution=12, seed=0)
        state = run(toy_problem(0.5), config)
        reps = [rec for rec in state.history if rec.replicate]
        assert reps, "expected at least one replication with this seed"
        assert any(o.replications > 1 for o in state.datasets[0])
        # a replicate never adds a new location
        new_points = sum(1 for rec in state.history if not rec.replicate)
        assert len(state.datasets[0]) == config.initial_design_size + new_points

    def test_replicate_requires_exact_location_match(self):
        config = RunConfig(beta=0.9, n_mc=5, n_iter=8, grid_resolution=12, seed=0)
        state = run(toy_problem(0.5), config)
        grid_keys = {tuple(p) for p in candidate_grid([[0, math.pi / 2], [0, 1]], 12)}
        for rec in state.history:
            if rec.replicate:
                assert tuple(rec.point) in grid_keys

    def test_trace_is_nonnegative(self):
        state = run(toy_problem(0.5), _small_config(n_iter=5, seed=4))
        assert all(rec.score >= 0.0 for rec in state.history)

    def test_mode_schedule_recorded_per_iteration(self):
        config = _small_config(
            n_iter=4, mode_schedule=(("aggressive", 2), ("non_aggressive", 2)), seed=5
        )
        state = run(toy_problem(0.0), config)
        assert [rec.mode for rec in state.history] == [AGG, AGG, NONAGG, NONAGG]

    def test_fixed_coordinate_is_frozen(self):
        config = _small_config(n_iter=3, fixed_coords={1: 0.0}, seed=6)
        state = run(toy_problem(0.0), config)
        assert np.all(state.datasets[0].locations()[:, 1] == 0.0)
        for rec in state.history:
            assert rec.point[1] == 0.0

    @pytest.mark.parametrize("fixed", [{2: 0.0}, {-1: 0.0}, {1: 1.5}, {0: -0.1}, {1: math.nan},
                                       {0: 0.5, 1: 0.5}])
    def test_invalid_fixed_coords_rejected_before_the_grid(self, fixed):
        calls = []
        toy = toy_problem(0.0)

        def evaluator(xc, xe):
            calls.append(xc)
            return toy.evaluator(xc, xe)

        problem = ProblemSpec(evaluator, toy.env, toy.control_bounds, truth=toy.truth)
        with pytest.raises(ProblemSchemaError, match="fixed_coords"):
            run(problem, _small_config(fixed_coords=fixed))
        assert calls == []

    def test_short_evaluator_batch_is_rejected(self):
        toy = toy_problem(0.0)
        problem = ProblemSpec(lambda xc, xe: toy.evaluator(xc, xe)[:3], toy.env, toy.control_bounds)
        with pytest.raises(ValueError, match=r"shape \(3, 2\), expected \(6, 2\)"):
            run(problem, _small_config())

    def test_short_batch_in_the_loop_is_rejected(self):
        # only the batches after the initial design come back short
        toy = toy_problem(0.0)
        calls = []

        def evaluator(xc, xe):
            calls.append(xc)
            out = toy.evaluator(xc, xe)
            return out if len(calls) <= 4 else out[:3]

        problem = ProblemSpec(evaluator, toy.env, toy.control_bounds)
        with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
            run(problem, _small_config())

    def test_non_finite_evaluator_batch_names_the_point(self):
        toy = toy_problem(0.0)

        def evaluator(xc, xe):
            out = toy.evaluator(xc, xe)
            out[0, 1] = math.nan
            return out

        problem = ProblemSpec(evaluator, toy.env, toy.control_bounds)
        with pytest.raises(ValueError, match="non-finite values at control point"):
            run(problem, _small_config())

    @pytest.mark.parametrize("overflowing", [
        lambda out, xc: out * 1e160,  # the batch variance overflows
        lambda out, xc: out + 1e200 * (xc[0] + xc[1]),  # the rounding spread's square does
    ])
    def test_overflowing_batch_names_the_point(self, overflowing):
        toy = toy_problem(0.0)
        problem = ProblemSpec(lambda xc, xe: overflowing(toy.evaluator(xc, xe), xc), toy.env,
                              toy.control_bounds)
        with pytest.raises(ValueError, match="at control point .* overflows its batch mean or "
                                             "variance"):
            run(problem, _small_config())

    def test_min_score_stops_early(self):
        config = _small_config(n_iter=5, min_score=1e9, seed=7)
        state = run(toy_problem(0.0), config)
        assert state.stopped_early
        assert state.history == []

    def test_frozen_hyperparameters_are_reused(self):
        config = _small_config(n_iter=2, refit_hyperparameters=False, seed=8)
        state = run(toy_problem(0.0), config)
        assert state.history, "loop must still run"
        # params object is rebuilt only when refitting
        assert state.emulators[0].params is not None

    def test_all_infeasible_triggers_exploration_fallback(self):
        constraints = ConstraintSpec((-10.0, -10.0))  # nothing can satisfy these
        problem = toy_problem(0.0, constraints=constraints)
        state = run(problem, _small_config(n_iter=2, seed=9))
        assert all(rec.fallback for rec in state.history)
        assert all(rec.score == 0.0 for rec in state.history)
        assert len(state.front) == 0


# ---------------------------------------------------------------------------
# Selection operators
# ---------------------------------------------------------------------------


class TestSelection:
    def test_scores_match_scalar_recomputation(self):
        state = run(toy_problem(0.5), _small_config(n_iter=2, seed=10))
        grid = candidate_grid(state.problem.control_bounds, 7)
        rng = np.random.default_rng(0)
        beta = 0.7
        from moeeqi.acquisition import future_noise
        from moeeqi.optimizer import _design_front

        sigma2 = future_noise(state.datasets)
        front = _design_front(state)
        for idx in rng.choice(len(grid), size=5, replace=False):
            x = grid[idx]
            qps = []
            for i, em in enumerate(state.emulators):
                m, s2 = em.posterior(x)
                qps.append(quantile_posterior(m, s2, sigma2[i], beta))
            expected = moeeqi(front, qps[0], qps[1], AGG)
            point, score = select_next(state, np.array([x]), AGG)
            if expected > 0:
                assert abs(score - expected) < 1e-12
            else:
                assert score == 0.0

    def test_improving_candidate_beats_resolved_front_points(self):
        # two fully resolved front endpoints and an unexplored middle whose
        # posterior carries mass into the dominating region: the middle wins
        # while the resolved points score only round-off
        x1, x2, mid = np.array([0.05]), np.array([0.95]), np.array([0.5])
        params = KernelParams(1.0, [0.4])
        obs1 = [NoisyObservation(x1, 0.0, 0.0), NoisyObservation(x2, 1.0, 0.0)]
        obs2 = [NoisyObservation(x1, 1.0, 0.0), NoisyObservation(x2, 0.0, 0.0)]
        state = _manual_state(obs1, obs2, params)
        _, s_left = select_next(state, np.array([x1]), AGG)
        _, s_right = select_next(state, np.array([x2]), AGG)
        point, s_mid = select_next(state, np.array([x1, mid, x2]), AGG)
        assert max(s_left, s_right) < 1e-7
        assert s_mid > 0.1
        assert point[0] == mid[0]

    def test_moeei_matches_moeeqi_on_noise_free_data(self):
        rng = np.random.default_rng(11)
        X = np.linspace(0.05, 0.95, 5)
        obs1 = [NoisyObservation([x], float(np.sin(6 * x)), 0.0) for x in X]
        obs2 = [NoisyObservation([x], float(np.cos(6 * x)), 0.0) for x in X]
        state = _manual_state(obs1, obs2, KernelParams(1.0, [0.3]), beta=0.5)
        grid = rng.uniform(0, 1, size=(40, 1))
        p_eqi, s_eqi = select_next(state, grid, AGG)
        p_ei, s_ei = select_next(_as_moeei(state), grid, AGG)
        assert np.array_equal(p_eqi, p_ei)
        assert abs(s_eqi - s_ei) < 1e-14

    def test_replicate_favoring_state(self):
        # x1 is a noisy front point, x2 a fully resolved dominated point. The
        # plug-in comparator sees no value in repeating the resolved location,
        # while the quantile criterion assigns the noisy replicate a positive
        # score (and more than the comparator does).
        x1, x2 = np.array([0.2]), np.array([0.8])
        params = KernelParams(1.0, [0.25])
        obs1 = [NoisyObservation(x1, 0.0, 0.25), NoisyObservation(x2, 1.0, 1e-12)]
        obs2 = [NoisyObservation(x1, 0.0, 0.25), NoisyObservation(x2, 1.0, 1e-12)]
        state = _manual_state(obs1, obs2, params)
        _, ei_resolved = select_next(_as_moeei(state), np.array([x2]), AGG)
        assert ei_resolved == 0.0
        _, eqi_noisy = select_next(state, np.array([x1]), AGG)
        assert eqi_noisy > 0.0
        _, ei_noisy = select_next(_as_moeei(state), np.array([x1]), AGG)
        assert eqi_noisy > ei_noisy
        point, _ = select_next(state, np.array([x1, x2]), AGG)
        assert point[0] == x1[0]

    def test_deterministic(self):
        state = run(toy_problem(0.5), _small_config(n_iter=1, seed=12))
        grid = candidate_grid(state.problem.control_bounds, 9)
        a = select_next(state, grid, AGG)
        b = select_next(state, grid, AGG)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        c = select_next(_as_moeei(state), grid, AGG)
        d = select_next(_as_moeei(state), grid, AGG)
        assert np.array_equal(c[0], d[0]) and c[1] == d[1]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestQuantileTable:
    @pytest.mark.parametrize("where", ["design front", "grid"])
    def test_non_finite_quantile_is_an_error_naming_the_objective(self, monkeypatch, where):
        X = np.linspace(0.05, 0.95, 5)
        obs1 = [NoisyObservation([x], float(np.sin(6 * x)), 0.01) for x in X]
        obs2 = [NoisyObservation([x], float(np.cos(6 * x)), 0.01) for x in X]
        state = _manual_state(obs1, obs2, KernelParams(1.0, [0.3]))
        plain = state.emulators[1].posterior

        def posterior(x, axes=None):
            m, s2 = plain(x, axes=axes)
            m[2] = math.nan
            return m, s2

        monkeypatch.setattr(state.emulators[1], "posterior", posterior)
        if where == "design front":
            with pytest.raises(ValueError, match="^objective 2: the quantile posterior is not "
                                                 "finite at 1 of 5 points; rescale the objective$"):
                _design_front(state)
        else:
            grid = np.linspace(0.0, 1.0, 40)[:, None]
            with pytest.raises(ValueError, match="^objective 2: .* not finite at 1 of 40 points"):
                _select(state, ParetoFront([]), grid, AGG)


class TestObjectiveScale:
    @pytest.mark.parametrize("k", [300, -300])
    def test_scaling_both_objectives_by_a_power_of_two_keeps_the_run(self, k):
        # 2**k scales exactly; at k = 300 the product of two posterior
        # variances overflows, at k = -300 it underflows.
        toy = toy_problem(0.5)
        factor = 2.0**k
        scaled = dataclasses.replace(toy, evaluator=lambda xc, xe: toy.evaluator(xc, xe) * factor,
                                     truth=None)
        config = RunConfig(grid_resolution=40, n_iter=9, seed=1)
        want, got = run(toy, config), run(scaled, config)
        assert len(got.history) == len(want.history) == 9
        for a, b in zip(got.history, want.history):
            assert np.array_equal(a.point, b.point)
            assert (a.replicate, a.fallback) == (b.replicate, b.fallback)


class TestMetrics:
    def test_front_equal_to_truth_has_zero_distance(self):
        truth = true_pareto_front(50)
        state = run(toy_problem(0.0), _small_config(n_iter=0))
        state.front = truth
        metrics = evaluate_metrics(state, truth)
        assert metrics.mean_distance == 0.0
        assert metrics.front_size == len(truth)

    def test_feasible_point_is_not_penalized(self):
        truth = ParetoFront([FrontPoint(0.0, 1.0), FrontPoint(1.0, 0.0)])
        front = ParetoFront([FrontPoint(0.5, 1.5)])  # dominated by (0, 1)
        mean_dist, penalized, size = front_metrics(front, truth)
        d = math.hypot(0.5, 0.5)
        assert abs(mean_dist - d) < 1e-12
        assert abs(penalized[5.0] - d) < 1e-12

    def test_overestimating_point_is_penalized(self):
        truth = ParetoFront([FrontPoint(0.0, 1.0), FrontPoint(1.0, 0.0)])
        front = ParetoFront([FrontPoint(-0.5, -0.5)])  # dominates every truth point
        mean_dist, penalized, size = front_metrics(front, truth)
        d = math.hypot(0.5, 1.5)  # nearest truth point is (0, 1)
        assert abs(mean_dist - d) < 1e-12
        assert abs(penalized[5.0] - 5 * d) < 1e-12
        assert abs(penalized[10.0] - 10 * d) < 1e-12

    def test_trace_is_copied_from_history(self):
        state = run(toy_problem(0.0), _small_config(n_iter=3, seed=13))
        truth = true_pareto_front(50)
        metrics = evaluate_metrics(state, truth)
        assert metrics.moeeqi_trace == [rec.score for rec in state.history]
        assert all(v >= 0 for v in metrics.moeeqi_trace)

    def test_empty_front_yields_nan(self):
        truth = true_pareto_front(20)
        mean_dist, penalized, size = front_metrics(ParetoFront([]), truth)
        assert math.isnan(mean_dist) and size == 0
