"""Public-good mechanisms under randomly flipped reports.

Computes, exactly at finite n and in closed form as n grows, the revenue,
social surplus, incentive and participation constraints, and noise
sensitivity of allocation rules on the Boolean hypercube, and solves the
associated constrained optimizations (surplus-max and noise-sensitivity-min
subject to a revenue floor).
"""

from .hypercube import (
    AnonymousFunction,
    DenseFunction,
    FourierSpectrum,
    build_function,
    fourier_transform,
    influence,
    influences,
    inverse_fourier,
    majority_function,
    monotonicity_check,
    threshold_function,
    walsh,
)
from .noise import (
    JointCountDistribution,
    MonteCarloEstimate,
    joint_count_distribution,
    noise_operator,
    sensitivity_exact,
    sensitivity_monte_carlo,
    stability_exact,
)
from .gaussian import (
    alpha_limit,
    binormal_cdf,
    ltf_ns_asymptotic,
    majority_asymptotics,
    norm_cdf,
    norm_ccdf,
    norm_pdf,
    norm_quantile,
    phi_inv_plus,
    privacy_convert,
)
from .mechanism import (
    ConstraintReport,
    InterimProfile,
    MechanismParams,
    TransferSchedule,
    check_constraints,
    interim_marginals,
    optimal_interim_transfers,
    revenue,
    revenue_normalized,
    solve_anonymous_transfer,
    surplus,
    surplus_distortion_bound,
)
from .optimize import (
    FrontierPoint,
    InfeasibleTargetError,
    MajorityCurvePoint,
    OracleResult,
    RevenueMaxResult,
    majority_curve,
    min_bias_threshold,
    ns_min_bruteforce,
    pareto_frontier,
    revenue_max_threshold,
    surplus_max_threshold,
)

__version__ = "0.1.0"
