"""Tests for problem definitions, sampling, designs, and the cost model."""

import itertools
import json
import math

import numpy as np
import pytest

from moeeqi.pareto import ConstraintSpec
from moeeqi.problems import (
    TOY_ENV,
    CostParams,
    Normal,
    ProblemSchemaError,
    ProblemSpec,
    Uniform,
    candidate_axes,
    candidate_grid,
    ground_truth,
    initial_design,
    intervention_cost,
    intervention_cost_parts,
    load_problem,
    mc_aggregate,
    oracle_front,
    sample_environment,
    toy_objectives,
    toy_problem,
    true_pareto_front,
)
from moeeqi.problems import _latin_hypercube

from _oracles import maxpro_criterion


# ---------------------------------------------------------------------------
# Environmental sampling
# ---------------------------------------------------------------------------


class TestSampleEnvironment:
    def test_deterministic_under_seed(self):
        env = (Uniform(0.0, 1.0),)
        a = sample_environment(env, 100, np.random.default_rng(9))
        b = sample_environment(env, 100, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_normal_spread(self):
        draws = sample_environment((Normal(0.0, 0.5),), 100_000, np.random.default_rng(1))
        assert abs(draws.std(ddof=1) - 0.5) < 0.005

    def test_uniform_mean_within_clt_bound(self):
        n = 100_000
        draws = sample_environment((Uniform(-math.pi, math.pi),), n, np.random.default_rng(2))
        bound = 3.0 * (2.0 * math.pi) / math.sqrt(12.0 * n)
        assert abs(draws.mean()) < bound

    def test_joint_columns(self):
        env = (Uniform(-1.0, 0.0), Normal(10.0, 1.0))
        draws = sample_environment(env, 1000, np.random.default_rng(3))
        assert draws.shape == (1000, 2)
        assert draws[:, 0].max() <= 0.0
        assert draws[:, 1].mean() > 5.0

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one environmental draw"):
            sample_environment([Uniform(0.0, 1.0)], 0, np.random.default_rng(0))

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    @pytest.mark.parametrize("build, field", [
        (lambda: Uniform(-math.inf, 1.0), "uniform bounds"),
        (lambda: Uniform(0.0, math.nan), "uniform bounds"),
        (lambda: Normal(math.nan, 1.0), "mu"),
        (lambda: Normal(0.0, math.inf), "sd"),
        (lambda: toy_problem(math.nan), "a must"),
        (lambda: toy_problem(math.inf), "a must"),
        (lambda: ConstraintSpec((math.nan, None)), "upper_bounds"),
        (lambda: ConstraintSpec((None, math.inf)), "upper_bounds"),
    ])
    def test_non_finite_parameters_raise_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: Uniform(False, True), "lo must be a real number, got False"),
        (lambda: Uniform(0.0, True), "hi must be a real number, got True"),
        (lambda: Normal(True, 1.0), "mu must be a real number, got True"),
        (lambda: Normal(0.0, True), "sd must be a real number, got True"),
        (lambda: toy_problem(True), "a must be a real number, got True"),
        (lambda: ConstraintSpec((True, None)), "upper_bounds entry must be a real number, got True"),
        (lambda: ConstraintSpec((None, "1.0")), "upper_bounds entry must be a real number"),
    ])
    def test_booleans_are_not_numbers(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------


class TestMcAggregate:
    def test_constant_draws(self):
        batch = mc_aggregate([[1.0, 1.0, 1.0]])
        assert batch.means[0] == 1.0
        assert batch.variances[0] == 0.0

    def test_hand_computation(self):
        batch = mc_aggregate([[0.0, 2.0]])
        assert batch.means[0] == 1.0
        assert batch.variances[0] == 1.0  # sample variance 2 over n = 2

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        draws = rng.normal(size=(2, 37))
        batch = mc_aggregate(draws)
        for i in range(2):
            mean = sum(draws[i]) / 37
            var = sum((x - mean) ** 2 for x in draws[i]) / 36
            assert abs(batch.means[i] - mean) < 1e-12
            assert abs(batch.variances[i] - var / 37) < 1e-12

    def test_single_draw_rejected(self):
        with pytest.raises(ValueError):
            mc_aggregate([[1.0]])


# ---------------------------------------------------------------------------
# Benchmark objectives and ground truth
# ---------------------------------------------------------------------------


class TestToyObjectives:
    def test_origin(self):
        h1, h2 = toy_objectives([0.0, 0.0], [0.0, 0.0], a=0.0)
        assert (h1, h2) == (1.0, 0.0)

    def test_far_corner(self):
        h1, h2 = toy_objectives([math.pi / 2, 0.0], [0.0, 0.0], a=0.0)
        assert abs(h1) < 1e-15 and abs(h2 - 1.0) < 1e-15

    def test_mixed_point(self):
        h1, h2 = toy_objectives([math.pi / 2, 1.0], [math.pi / 2, 0.0], a=0.5)
        assert abs(h1 - 0.1) < 1e-12
        assert abs(h2 - (1.0 + 0.5 + 1.0 / 3.0)) < 1e-12

    def test_bounds_violation(self):
        with pytest.raises(ValueError):
            toy_objectives([-0.1, 0.5], [0.0, 0.0], a=0.0)
        with pytest.raises(ValueError):
            toy_objectives([0.1, 1.5], [0.0, 0.0], a=0.0)

    def test_batched_environment(self):
        rng = np.random.default_rng(5)
        xe = rng.normal(size=(10, 2))
        h1, h2 = toy_objectives([0.5, 0.5], xe, a=0.3)
        assert h1.shape == (10,) and h2.shape == (10,)

    def test_zero_noise_identity_with_ground_truth(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            xc = [rng.uniform(0, math.pi / 2), rng.uniform(0, 1)]
            h = toy_objectives(xc, [0.0, 0.0], a=0.0)
            f = ground_truth(xc)
            assert abs(h[0] - f[0]) < 1e-15
            assert abs(h[1] - f[1]) < 1e-15

    def test_shared_linear_noise_puts_scatter_on_a_line(self):
        # with a = 0 the only randomness is x_e2, so residuals from the truth
        # satisfy (h2 - f2) = (10/3) (h1 - f1)
        rng = np.random.default_rng(7)
        xc = [0.7, 0.2]
        xe = np.column_stack([rng.uniform(-3, 3, 50), rng.normal(0, 0.5, 50)])
        h1, h2 = toy_objectives(xc, xe, a=0.0)
        f1, f2 = ground_truth(xc)
        assert np.max(np.abs((h2 - f2) - (10.0 / 3.0) * (h1 - f1))) < 1e-12


class TestGroundTruth:
    def test_origin(self):
        assert ground_truth([0.0, 0.0]) == (1.0, 0.0)

    def test_closed_form_point(self):
        f1, f2 = ground_truth([math.pi / 4, 0.5])
        assert abs(f1 - (1.0 - math.sqrt(2) / 2 + 0.05)) < 1e-12
        assert abs(f2 - (1.0 - math.sqrt(2) / 2 + 1.0 / 6.0)) < 1e-12

    def test_monte_carlo_integration_oracle(self):
        rng = np.random.default_rng(8)
        xc = [0.9, 0.35]
        xe = np.column_stack(
            [rng.uniform(-math.pi, math.pi, 1_000_000), rng.normal(0.0, 0.5, 1_000_000)]
        )
        h1, h2 = toy_objectives(xc, xe, a=0.5)
        f1, f2 = ground_truth(xc)
        for h, f in ((h1, f1), (h2, f2)):
            se = h.std(ddof=1) / math.sqrt(h.size)
            assert abs(h.mean() - f) < 3 * se


class TestTruePareto:
    def test_front_points_have_zero_second_coordinate(self):
        front = true_pareto_front(60)
        for p in front:
            assert p.source[1] == 0.0

    def test_endpoints_approach_the_corners(self):
        front = true_pareto_front(200)
        assert math.hypot(front[0].q1 - 0.0, front[0].q2 - 1.0) < 0.02
        assert math.hypot(front[-1].q1 - 1.0, front[-1].q2 - 0.0) < 0.02

    def test_refinement_convergence(self):
        coarse = true_pareto_front(100)
        fine = true_pareto_front(500)

        def hausdorff(a, b):
            pa = np.column_stack([a.q1s(), a.q2s()])
            pb = np.column_stack([b.q1s(), b.q2s()])
            d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
            return max(d.min(axis=1).max(), d.min(axis=0).max())

        assert hausdorff(coarse, fine) < 0.02

    def test_staircase_invariants(self):
        front = true_pareto_front(80)
        assert np.all(np.diff(front.q1s()) > 0)
        assert np.all(np.diff(front.q2s()) < 0)


# ---------------------------------------------------------------------------
# Intervention cost model
# ---------------------------------------------------------------------------


def _cost(**overrides):
    base = dict(
        dose_cost=2.0, doses_per_person=3.0, wastage=1.2, population=1e5,
        horizon_years=10.0, shelf_life_years=5.0, center_setup_cost=5e4,
        staff_admin_cost=15.0, centers=4.0, staff=120.0,
    )
    base.update(overrides)
    return CostParams(**base)


class TestInterventionCost:
    def test_pure_procurement(self):
        p = _cost(center_setup_cost=0.0, staff_admin_cost=0.0)
        expected = 2.0 * 3.0 * 1.2 * 1e5 * 10.0 / 5.0
        assert abs(intervention_cost(p) - expected) < 1e-9 * expected

    def test_setup_only(self):
        p = _cost(dose_cost=0.0, staff_admin_cost=0.0)
        assert abs(intervention_cost(p) - 5e4 * 4.0 * 10.0) < 1e-6

    def test_decomposition_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = _cost(
                dose_cost=rng.uniform(0, 10), doses_per_person=rng.uniform(0.5, 5),
                wastage=rng.uniform(1, 2), population=rng.uniform(1e3, 1e7),
                horizon_years=rng.uniform(1, 20), shelf_life_years=rng.uniform(0.5, 10),
                center_setup_cost=rng.uniform(0, 1e6), staff_admin_cost=rng.uniform(0, 100),
                centers=rng.uniform(1, 10), staff=rng.uniform(5, 400),
            )
            admin, procurement = intervention_cost_parts(p)
            total = intervention_cost(p)
            assert abs(total - (admin + procurement)) <= 1e-9 * max(total, 1.0)

    def test_nondecreasing_in_every_parameter(self):
        base = _cost()
        fields = [
            "dose_cost", "doses_per_person", "wastage", "population", "horizon_years",
            "center_setup_cost", "staff_admin_cost", "centers", "staff",
        ]
        c0 = intervention_cost(base)
        for name in fields:
            bumped = _cost(**{name: getattr(base, name) * 1.1 + 0.1})
            assert intervention_cost(bumped) >= c0 - 1e-9
        # longer shelf life can only reduce cost
        assert intervention_cost(_cost(shelf_life_years=10.0)) <= c0

    @pytest.mark.parametrize("empty", [dict(population=0.0), dict(doses_per_person=0.0)])
    def test_no_doses_leaves_the_center_setup(self, empty):
        # nu P = 0: the per-dose form would divide by zero
        assert intervention_cost(_cost(**empty)) == 5e4 * 4.0 * 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _cost(shelf_life_years=0.0)
        with pytest.raises(ValueError):
            _cost(wastage=0.5)
        with pytest.raises(ValueError):
            _cost(population=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("dose_cost", math.nan), ("wastage", math.nan), ("population", math.inf),
        ("shelf_life_years", math.inf), ("staff", True), ("centers", "4"),
    ])
    def test_non_finite_or_non_numeric_parameter_is_an_error_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            _cost(**{field: value})


# ---------------------------------------------------------------------------
# Designs and grids
# ---------------------------------------------------------------------------


class TestInitialDesign:
    def test_latin_hypercube_projections(self):
        bounds = [[0.0, 1.0], [0.0, 1.0]]
        design = initial_design(5, bounds, np.random.default_rng(11))
        for k in range(2):
            bins = np.floor(design[:, k] * 5).astype(int)
            assert sorted(bins.clip(0, 4)) == [0, 1, 2, 3, 4]

    def test_optimization_improves_on_the_first_draw(self):
        seed = 12
        raw = _latin_hypercube(6, 2, np.random.default_rng(seed))
        design = initial_design(6, [[0.0, 1.0], [0.0, 1.0]], np.random.default_rng(seed))
        assert maxpro_criterion(design) <= maxpro_criterion(raw)

    def test_reproducible(self):
        bounds = [[0.0, math.pi / 2], [0.0, 1.0]]
        a = initial_design(5, bounds, np.random.default_rng(13))
        b = initial_design(5, bounds, np.random.default_rng(13))
        assert np.array_equal(a, b)

    def test_respects_bounds(self):
        bounds = np.array([[2.0, 3.0], [-1.0, 4.0]])
        design = initial_design(8, bounds, np.random.default_rng(14))
        assert np.all(design >= bounds[:, 0]) and np.all(design <= bounds[:, 1])

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            initial_design(1, [[0.0, 1.0]], np.random.default_rng(0))


class TestCandidateGrid:
    def test_four_corners(self):
        grid = candidate_grid([[0.0, 1.0], [0.0, 1.0]], 2)
        assert grid.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_protocol_size(self):
        grid = candidate_grid([[0.0, 1.0], [0.0, 1.0]], 100)
        assert grid.shape == (10_000, 2)

    def test_lexicographic_order(self):
        grid = candidate_grid([[0.0, 1.0], [0.0, 1.0]], 7)
        keys = [tuple(row) for row in grid]
        assert keys == sorted(keys)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            candidate_grid([[0.0, 1.0]], 1)

    def test_degenerate_axis_gives_a_single_value(self):
        grid = candidate_grid([[0.0, 1.0], [0.25, 0.25]], 5)
        assert grid.shape == (5, 2)
        assert np.all(grid[:, 1] == 0.25)
        assert grid[:, 0].tolist() == np.linspace(0.0, 1.0, 5).tolist()

    def test_reversed_axis_is_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            candidate_grid([[0.0, 1.0], [1.0, 0.5]], 5)

    @pytest.mark.parametrize("bounds", [
        [[0.0, 1.0], [0.0, 1.0]],
        [[0.25, 0.25], [-1.0, 2.0]],
        [[0.0, 1.0], [0.25, 0.25]],
        [[-2.0, 3.0], [0.5, 0.5], [0.0, 1.0]],
        [[0.0, 1.0], [0.0, 2.0], [3.0, 3.0]],
        [[0.0, 1.5]],
    ])
    def test_grid_is_the_product_of_the_axes(self, bounds):
        axes = candidate_axes(bounds, 6)
        assert [a.size for a in axes] == [1 if lo == hi else 6 for lo, hi in bounds]
        product = np.array(list(itertools.product(*(a.tolist() for a in axes))))
        grid = candidate_grid(bounds, 6)
        assert grid.dtype == product.dtype and np.array_equal(grid, product)

    def test_axes_share_the_grid_checks(self):
        with pytest.raises(ValueError, match="at least 2"):
            candidate_axes([[0.0, 1.0]], 1)
        with pytest.raises(ValueError, match="lo <= hi"):
            candidate_axes([[0.0, 1.0], [1.0, 0.5]], 5)


# ---------------------------------------------------------------------------
# JSON problem documents
# ---------------------------------------------------------------------------


class TestLoadProblem:
    def test_minimal_toy(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"problem": "toy", "a": 0.5}))
        problem = load_problem(path)
        assert problem.dim == 2
        assert problem.truth is not None
        batch = problem.evaluate_mc([0.5, 0.5], 10, np.random.default_rng(0))
        assert batch.means.shape == (2,)

    def test_missing_problem_field(self):
        with pytest.raises(ProblemSchemaError, match="'problem'"):
            load_problem({"a": 0.5})

    def test_missing_a_field(self):
        with pytest.raises(ProblemSchemaError, match="'a'"):
            load_problem({"problem": "toy"})

    def test_env_field_paths_in_errors(self):
        doc = {"problem": "toy", "a": 0.0, "env": [{"type": "uniform", "lo": 0.0}]}
        with pytest.raises(ProblemSchemaError, match=r"env\[0\]\.hi"):
            load_problem(doc)

    def test_bad_distribution_type(self):
        doc = {"problem": "toy", "a": 0.0, "env": [{"type": "beta", "lo": 0, "hi": 1}]}
        with pytest.raises(ProblemSchemaError, match="uniform"):
            load_problem(doc)

    def test_constraints(self):
        doc = {"problem": "toy", "a": 0.0, "constraints": {"upper_bounds": [1.2, None]}}
        problem = load_problem(doc)
        assert problem.constraints.upper_bounds == (1.2, None)

    def test_control_bounds_must_lie_inside_the_toy_box(self):
        with pytest.raises(ValueError, match="inside"):
            toy_problem(0.0, control_bounds=[[0.0, 3.0], [0.0, 1.0]])
        problem = toy_problem(0.0, control_bounds=[[0.2, 1.4], [0.0, 0.8]])
        assert problem.control_bounds.tolist() == [[0.2, 1.4], [0.0, 0.8]]

    @pytest.mark.parametrize("bounds", [
        5, [[0.0, 1.0]], [[0.0, 1.0], [0.0]], [[0.0, True], [0.0, 1.0]], [["0", 1.0], [0.0, 1.0]],
    ])
    def test_control_bounds_must_be_two_pairs_of_numbers(self, bounds):
        with pytest.raises(ValueError):
            toy_problem(0.0, control_bounds=bounds)

    def test_inline_json_longer_than_a_file_name(self):
        doc = {"problem": "toy", "a": 0.25, "env": [{"type": "uniform", "lo": -1.0, "hi": 1.0}] * 8}
        text = json.dumps(doc)
        assert len(text) > 255
        problem = load_problem(text)
        assert problem.name == "toy(a=0.25)"
        assert len(problem.env) == 8

    def test_invalid_json_text(self):
        with pytest.raises(ProblemSchemaError, match="JSON"):
            load_problem("{not json")

    @pytest.mark.parametrize("bounds", [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, math.inf]]])
    def test_problem_spec_rejects_an_empty_or_unbounded_box(self, bounds):
        with pytest.raises(ValueError, match="control bounds"):
            ProblemSpec(lambda xc, xe: np.zeros((len(xe), 2)), TOY_ENV, bounds)

    def test_oracle_front_requires_truth(self):
        problem = toy_problem(0.0)
        problem.truth = None
        with pytest.raises(ValueError, match="ground truth"):
            oracle_front(problem, 10)
