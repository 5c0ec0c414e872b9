"""Forecast-evaluation toolkit.

Error measures with explicit undefined-value handling, temporal and
randomised data partitioning with leakage guards, trivial benchmark
forecasters, significance tests with post-hoc procedures and
critical-difference diagrams, a measure-selection rule engine, seeded
synthetic data generators, and executable reproductions of common
evaluation pitfalls.
"""

from .core import (
    DataValidationError,
    Dataset,
    EmbeddedMatrix,
    EvaluationFrame,
    Forecaster,
    ForevalError,
    InsufficientHistoryError,
    TimeSeries,
    ValidationError,
    benchmark_frame,
    embed,
    frame_from_records,
    mean_forecast,
    naive_forecast,
    seasonal_naive_forecast,
)
from .measures import (
    MeasureResult,
    MeasureSpec,
    RankTable,
    UndefinedPolicy,
    UndefinedValueError,
    WeightVector,
    critical_event_percentage,
    evaluate,
    measure_names,
    percentage_better,
    rank_models,
    spec_for,
    summarize,
)
from .partition import (
    Fold,
    LeakageError,
    LeakageReport,
    SplitSpec,
    blocked_splits,
    fixed_origin_split,
    kfold_splits,
    leakage_check,
    leakage_checks,
    rolling_origin_splits,
    splits_for_series,
)
from .stats import (
    CdLayout,
    PostHocResult,
    TestResult,
    cd_diagram_data,
    diebold_mariano,
    friedman,
    ljung_box,
    nemenyi_cd,
    p_adjust,
    render_cd_svg,
    render_cd_text,
    wilcoxon_rank_sum,
)
from .advisor import (
    CharacteristicProfile,
    PartitioningAdvice,
    Recommendation,
    RuleTable,
    intermittency_hint,
    load_rule_table,
    recommend_measures,
    recommend_partitioning,
)
from .synth import DgpSpec, OutlierInjection, derive_seed, generate, inject_outliers
from .pitfalls import ScenarioResult, list_scenarios, run_all, run_scenario

__version__ = "0.1.0"
