"""Multi-objective Bayesian optimization of noisy Monte Carlo objectives.

Gaussian-process emulation with per-point observation noise, expected
quantile improvement extended to two objectives through the Euclidean
improvement region of the Pareto front, and the sequential-design loop that
ties them together with replication handling and constraint filtering.
"""

from .acquisition import (
    QuantilePosterior,
    ReplicationVarianceError,
    eqi,
    future_noise,
    merge_replicate,
    quantile_posterior,
    replication_variance,
)
from .gp import (
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
from .optimizer import (
    IterationRecord,
    Metrics,
    RunConfig,
    RunState,
    evaluate_metrics,
    front_metrics,
    run,
    select_next,
)
from .pareto import (
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
from .problems import (
    CostParams,
    McBatch,
    Normal,
    ProblemSchemaError,
    ProblemSpec,
    Uniform,
    candidate_grid,
    ground_truth,
    initial_design,
    intervention_cost,
    intervention_cost_parts,
    load_problem,
    mc_aggregate,
    sample_environment,
    toy_objectives,
    toy_problem,
    true_pareto_front,
)

__version__ = "0.1.0"
