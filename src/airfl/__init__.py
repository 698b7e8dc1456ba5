"""Over-the-air federated learning through a phase-shift relay.

The package simulates and optimizes a system in which single-antenna users
upload model updates simultaneously over a fading multiple-access channel;
a multi-antenna relay applies a unit-modulus (phase-only) linear transform
and forwards the superposition; each user decodes the aggregated model from
its downlink observation.  The relay matrix, user transmit coefficients and
user receive coefficients are chosen to minimize the worst per-user mean
squared error of the aggregated update.

Modules
-------
linalg
    Structured Gram solves (Kronecker + low-rank + ridge), unit-modulus
    projection, vectorization helpers.
channel
    Seeded channel/noise sampling and radio configuration.
aircomp
    The analog aggregation chain (one batched function, from parameters to
    received symbols) and the closed-form per-user MSE with its Monte Carlo
    twin.
pam
    Penalized alternating optimization of the relay matrix plus the
    closed-form receive update and the min-max transmit update; identity
    relay baseline.
flsim
    Synthetic learning tasks, local gradient steps, the contraction bound
    on the optimality gap, and full multi-round experiments.
cli
    ``airfl`` command-line interface (optimize / simulate / mse-check /
    validate).
"""

from .aircomp import (
    AggregationWeights,
    analytic_mse,
    global_target,
    monte_carlo_mse,
    mse_bracket_terms,
    over_the_air,
)
from .channel import (
    ChannelRealization,
    RadioConfig,
    db_to_linear,
    dbm_to_watts,
    derive_seed,
    sample_awgn,
    sample_channels,
    substream,
)
from .cli import ConfigError, ExperimentConfig, main, parse_config, resolved_config
from .flsim import (
    BoundAssumptionWarning,
    CurvatureConstants,
    ExperimentReport,
    LocalTrainConfig,
    LogisticTask,
    ModeTrajectory,
    QuadraticTask,
    RoundRecord,
    bound_weight,
    local_gd,
    make_logistic_task,
    make_quadratic_task,
    run_experiment,
    run_round,
    theorem1_bound,
    transmit_batch,
)
from .linalg import (
    IllConditionedError,
    NumericError,
    SingularMatrixError,
    StructuredFactor,
    StructuredGram,
    dense_solve,
    mat_of_vector,
    phase_project,
    structured_solve,
    vec_of_matrix,
)
from .pam import (
    PamConfig,
    PhaseShiftState,
    Solution,
    baseline_optimize,
    build_workspace,
    inner_pam,
    objective_minmax,
    penalized_objective,
    run_pam,
    update_f,
    update_r,
    update_t,
    update_u,
    update_z,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationWeights",
    "BoundAssumptionWarning",
    "ChannelRealization",
    "ConfigError",
    "CurvatureConstants",
    "ExperimentConfig",
    "ExperimentReport",
    "IllConditionedError",
    "LocalTrainConfig",
    "LogisticTask",
    "ModeTrajectory",
    "NumericError",
    "PamConfig",
    "PhaseShiftState",
    "QuadraticTask",
    "RadioConfig",
    "RoundRecord",
    "SingularMatrixError",
    "Solution",
    "StructuredFactor",
    "StructuredGram",
    "analytic_mse",
    "baseline_optimize",
    "bound_weight",
    "build_workspace",
    "db_to_linear",
    "dbm_to_watts",
    "dense_solve",
    "derive_seed",
    "global_target",
    "inner_pam",
    "local_gd",
    "main",
    "make_logistic_task",
    "make_quadratic_task",
    "mat_of_vector",
    "monte_carlo_mse",
    "mse_bracket_terms",
    "objective_minmax",
    "over_the_air",
    "parse_config",
    "penalized_objective",
    "phase_project",
    "resolved_config",
    "run_experiment",
    "run_pam",
    "run_round",
    "sample_awgn",
    "sample_channels",
    "structured_solve",
    "substream",
    "theorem1_bound",
    "transmit_batch",
    "update_f",
    "update_r",
    "update_t",
    "update_u",
    "update_z",
    "vec_of_matrix",
    "__version__",
]
