"""Distributionally robust LQ control for partially observed linear systems.

The package designs a stationary output-feedback controller that is robust
to misspecified disturbance distributions: the offline stage solves a
penalized Riccati equation, a worst-case covariance program over a
moment-based ambiguity set, and the matching stationary filter; the online
stage is an affine control law driven by a steady-state Kalman estimator.
"""

from .ambiguity import (
    WorstCaseCovResult,
    bures_squared,
    gelbrich_distance,
    solve_filter_are,
    worst_case_cov_finite,
    worst_case_cov_steady,
)
from .design import (
    BoundReport,
    LqgSolution,
    PolicyBundle,
    bellman_residual,
    bellman_suboptimality_gap,
    default_lambda_grid,
    design_lqg,
    design_wdrc,
    evaluate_lambda_grid,
    evaluate_rho,
    guaranteed_bound,
    radius_from_samples,
    tune_lambda,
    tune_wdrc,
)
from .estimator import BeliefState, covariance_recursion, filter_step, steady_gain
from .exceptions import (
    AssumptionViolated,
    ConfigError,
    NoAdmissibleLambda,
    NoConvergence,
    WdrcError,
)
from .model import (
    CostWeights,
    DisturbanceModel,
    Empirical,
    Gaussian,
    LinearSystem,
    NominalMoments,
    UniformBox,
    build_power_system,
    empirical_moments,
    perturb_within_gelbrich_ball,
    ring_chords_laplacian,
    synthetic_power_grid,
    zoh_discretize,
)
from .riccati import (
    FiniteHorizonSolution,
    LambdaCheck,
    PhiResult,
    SteadyStateSolution,
    backward_pass,
    check_lambda,
    compute_phi,
    finite_horizon_recursion,
    solve_are,
    steady_state_policy_params,
)
from .sim import (
    CostSummary,
    MeanStateResult,
    SimulationTrace,
    StabilityReport,
    mean_state_trajectory,
    monte_carlo_summary,
    out_of_sample_curve,
    penalized_average_cost,
    run_closed_loop,
    stability_report,
)

__version__ = "0.1.0"
