"""Point-forecast error measures: the registry, the engine that reads it, and model ranking."""

from .engine import MeasureResult, UndefinedValueError, WeightVector, evaluate
from .ranking import RankTable, rank_models
from .registry import REGISTRY, MeasureSpec, UndefinedPolicy, measure_names, spec_for

__all__ = [
    "REGISTRY",
    "MeasureSpec",
    "MeasureResult",
    "RankTable",
    "UndefinedPolicy",
    "UndefinedValueError",
    "WeightVector",
    "evaluate",
    "measure_names",
    "rank_models",
    "spec_for",
]
