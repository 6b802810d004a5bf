"""Summary-data Mendelian randomization estimators and simulation engine."""
from .data import (
    CorrelationMatrix,
    DataError,
    SummaryDataset,
    VariantRecord,
    load_correlation,
    load_dataset,
    select_risk_factor,
    write_dataset,
)
from .estimators import (
    CausalEstimate,
    InterceptTest,
    MethodTag,
    MRResult,
    egger_correlated,
    egger_multivariable,
    egger_univariable,
    f_statistic,
    inside_bias_oracle,
    ivw_correlated,
    ivw_multivariable,
    ivw_univariable,
)
from .orientation import OrientationReport, orient
from .regression import (
    FactorizationError,
    RankError,
    RegressionFit,
    WeightScheme,
    fit_gls,
    fit_wls,
    scaled_se,
    weighted_cov,
    weighted_var,
)
from .simulation import (
    DEFAULT_SEED,
    DESK_REPLICATES,
    EstimatorSummary,
    GeneratedTruth,
    GridRow,
    ScenarioConfig,
    SimulationSummary,
    generate_dataset,
    run_scenario_grid,
    run_scenario,
    scenario_config,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationMatrix", "DataError", "SummaryDataset", "VariantRecord",
    "load_correlation", "load_dataset", "select_risk_factor", "write_dataset",
    "CausalEstimate", "InterceptTest", "MethodTag", "MRResult",
    "egger_correlated", "egger_multivariable", "egger_univariable",
    "f_statistic", "inside_bias_oracle", "ivw_correlated",
    "ivw_multivariable", "ivw_univariable",
    "OrientationReport", "orient",
    "FactorizationError", "RankError", "RegressionFit", "WeightScheme",
    "fit_gls", "fit_wls", "scaled_se",
    "weighted_cov", "weighted_var",
    "DEFAULT_SEED", "DESK_REPLICATES", "EstimatorSummary", "GeneratedTruth",
    "GridRow", "ScenarioConfig", "SimulationSummary", "generate_dataset",
    "run_scenario_grid", "run_scenario", "scenario_config",
    "__version__",
]
