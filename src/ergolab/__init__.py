"""ergolab: numerical laboratory for sparse random weighted ergodic averages.

Generates random sparse selection sequences with power-law densities,
evaluates logarithmico-exponential phase functions to rigorous precision,
runs weighted averages over exactly iterable measure-preserving systems,
and tests the correlation-sum criteria that control their convergence.
"""

from .correlation import (
    ITermsProfile,
    WeightParams,
    WeightSeries,
    aggregate_i_terms,
    c_sum_check,
    correlation_sum,
    i_terms_profile,
    profile_envelope,
    summability_statistic,
    vdc_inequality_check,
    weight_series,
)
from .dynamics import (
    AverageSeries,
    BernoulliSystem,
    ChainDiagnostics,
    CyclicSystem,
    DynamicalSystem,
    RotationSystem,
    chain_diagnostics,
    make_system,
    partial_summation_identity,
    weighted_average_from_positions,
)
from .hardy import (
    EvalDomainError,
    ExpressionError,
    HardyExpr,
    InsufficientPrecisionError,
    eval_mod1,
    exp_sum,
    minimum_precision,
    parse_expression,
    phase_fractions,
    second_difference_ratio,
    unit_phases,
)
from .harness import (
    ExperimentConfig,
    Report,
    SlopeFit,
    lacunary_schedule,
    run_experiment,
    slope_fit,
)
from .selectors import (
    DeviationReport,
    OutOfRangeError,
    Realization,
    SelectorParams,
    count_selected,
    counting_function,
    deviation_statistics,
    generate_realization,
    realization_from_bits,
    select_first,
    sigma_prefix,
    sigma_values,
)

__version__ = "0.1.0"
