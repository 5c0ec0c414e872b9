"""Point-forecast error measures: the registry, the engine that reads it, and model ranking."""

from .engine import MeasureResult, SuiteConfig, UndefinedValueError, WeightVector, evaluate
from .ranking import RankTable, rank_models
from .registry import REGISTRY, MeasureSpec, UndefinedPolicy, measure_names, spec_for

__all__ = [
    "REGISTRY",
    "MeasureSpec",
    "MeasureResult",
    "RankTable",
    "SuiteConfig",
    "UndefinedPolicy",
    "UndefinedValueError",
    "WeightVector",
    "evaluate",
    "measure_names",
    "rank_models",
    "spec_for",
]
