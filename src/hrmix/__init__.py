"""Combined hazard ratios for pooled survival trials with heterogeneous effects.

The package answers two questions about a therapy tested in several
trials whose true hazard ratios differ: what a single "overall" hazard
ratio should mean, and how to estimate it efficiently from patient-line
or aggregate data.  It provides the pooled partial-likelihood limit and
its censoring-robust aggregate plug-in, the harmonic-mean effect with
delta-method inference, the classical linear combiners, a Cox fitter and
trial simulator to study them, and a CLI for the reproduction studies.
"""

__version__ = "0.1.0"

from .errors import (
    BadBracketError,
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    HrmixError,
    MissingVarianceError,
    NonConvergenceError,
    ParseError,
    SchemaError,
    SingularJacobianError,
    SingularMatrixError,
    SingularVarianceError,
)
from .numerics import (
    QuadratureSpec,
    SolveReport,
    brent_root,
    integrate_semi_infinite,
    newton_nd,
    solve_linear,
)
from .data import (
    AdministrativeCensoring,
    CovariateDistribution,
    ExponentialCensoring,
    IdentityBaseline,
    NoCensoring,
    ScenarioSpec,
    SubjectRecord,
    TrialDataset,
    WeibullBaseline,
    censor_administrative,
    pool,
    read_patient_csv,
    replicate_stream,
    scenario_from_json,
    scenario_to_json,
    simulate_scenario,
    simulate_trial,
    write_patient_csv,
)
from .cox import BreslowCurve, CoxFit, CoxRows, breslow_cumhaz, fit_cox, fit_cox_rows
from .estimators import (
    CombinedEffect,
    CombineMethod,
    CustomWeights,
    InverseVariance,
    SizeProportional,
    TrialAggregate,
    WaldResult,
    c_hm_binary,
    linear_hr,
    linear_log_hr,
    solve_censored_binary,
    solve_cpl_binary,
    solve_theta_hm_general,
    solve_theta_pl_general,
    theta_hm_estimate,
    theta_m_estimate,
    theta_pl_sensitivity,
    var_theta_hm_binary,
    var_theta_hm_general,
    wald_test,
)
from .analysis import (
    BreslowComparison,
    GridResult,
    OrderingReport,
    SweepResult,
    bias_sweep,
    breslow_limit,
    breslow_limit_at_infinity,
    breslow_limit_at_zero,
    breslow_limit_hazard,
    figure2_grid,
    kl_gradient,
    kl_objective,
    proposition3_check,
    table1_grid,
)
