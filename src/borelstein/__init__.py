"""Borel-distribution toolkit.

Exact truncated-law algebra, the Borel(lambda) family with an exact
branching sampler, size-bias identities, Stein-equation coefficients with
provable envelopes, M/G/1 busy-period simulation with computable
Borel-approximation bounds, and concentration inequalities, all
cross-verified against each other by finite-window computation.
"""

from .borel import (
    BorelParams,
    law,
    log_pmf,
    pmf,
    pmf_values,
    sample_many,
)
from .concentration import (
    TailEstimate,
    UpperTailParams,
    exact_tail,
    exp_moment_gap_check,
    lower_tail_bound,
    make_params,
    mgf_moment_check,
    optimize_delta,
    upper_tail_bound,
)
from .lawkit import (
    Moments,
    TruncatedLaw,
    TVInterval,
    convolve,
    empirical_law,
    make_law,
    mix,
    moments,
    point_mass,
    tv_distance,
)
from .mg1 import (
    BusyPeriodSummary,
    ServiceModel,
    arrival_law,
    bound_qbd1,
    bound_qbd2,
    deterministic,
    exponential,
    gamma_service,
    service_abs_moment,
    service_variance,
    simulate,
    two_point,
    uniform_symmetric,
)
from .sizebias import (
    check_stochastic_order,
    geometric_sum_law,
    mixture_rhs,
    size_bias,
    size_bias_tail_estimate,
    x_mean,
)
from .stein import (
    SteinTable,
    abel_sum,
    build_table,
    build_table_hp,
    coefficient_bound,
    solve_f,
    stein_residual,
    size_bias_tv_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BorelParams",
    "BusyPeriodSummary",
    "Moments",
    "ServiceModel",
    "SteinTable",
    "TailEstimate",
    "TruncatedLaw",
    "TVInterval",
    "UpperTailParams",
    "abel_sum",
    "arrival_law",
    "bound_qbd1",
    "bound_qbd2",
    "build_table",
    "build_table_hp",
    "check_stochastic_order",
    "coefficient_bound",
    "convolve",
    "deterministic",
    "empirical_law",
    "exact_tail",
    "exp_moment_gap_check",
    "exponential",
    "gamma_service",
    "geometric_sum_law",
    "law",
    "log_pmf",
    "lower_tail_bound",
    "make_law",
    "make_params",
    "mgf_moment_check",
    "mix",
    "mixture_rhs",
    "moments",
    "optimize_delta",
    "pmf",
    "pmf_values",
    "point_mass",
    "sample_many",
    "service_abs_moment",
    "service_variance",
    "simulate",
    "size_bias",
    "size_bias_tail_estimate",
    "solve_f",
    "stein_residual",
    "size_bias_tv_bound",
    "tv_distance",
    "two_point",
    "uniform_symmetric",
    "upper_tail_bound",
    "x_mean",
]
