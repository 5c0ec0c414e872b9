"""Forecast-evaluation toolkit.

Error measures with explicit undefined-value handling, temporal and
randomised data partitioning with leakage guards, trivial benchmark
forecasters, significance tests with post-hoc procedures and
critical-difference diagrams, a measure-selection rule engine, seeded
synthetic data generators, and executable reproductions of common
evaluation pitfalls.

Importing the package runs none of its modules. Each submodule is in
``sys.modules`` from the start, behind a lazy loader, and its code runs on
first attribute access; each public name is looked up in its submodule.
"""

import importlib.util
import sys
from importlib.machinery import PathFinder

__version__ = "0.1.0"

# every submodule but checks, advisor and measures.registry imports numpy; without this check (find_spec imports
# nothing), Python 3.10-3.12 report its absence as an ImportError naming another submodule (see the lazy loading)
if importlib.util.find_spec("numpy") is None:
    raise ModuleNotFoundError("forevalkit needs numpy, which is not installed", name="numpy")

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in {
    "checks": "DataValidationError ForevalError InsufficientHistoryError ValidationError",
    "core": "Dataset EmbeddedMatrix EvaluationFrame Forecaster TimeSeries benchmark_frame embed",
    "measures": "MeasureResult MeasureSpec RankTable SuiteConfig UndefinedPolicy UndefinedValueError "
                "WeightVector evaluate measure_names rank_models spec_for",
    "partition": "Fold FoldRanges LeakageError LeakageReport SplitSpec blocked_splits kfold_splits "
                 "leakage_check leakage_checks splits_for_series",
    "stats": "CdLayout CompareConfig Comparison PostHocResult TestResult cd_diagram_data compare_models "
             "diebold_mariano friedman ljung_box nemenyi_cd p_adjust render_cd_svg render_cd_text wilcoxon_rank_sum",
    "advisor": "CharacteristicProfile PartitioningAdvice Recommendation RuleTable intermittency_hint "
               "load_rule_table recommend_measures recommend_partitioning",
    "synth": "DgpSpec OutlierInjection derive_seed generate inject_outliers",
    "pitfalls": "ScenarioResult list_scenarios run_all run_scenario",
}.items() for name in names.split()}

__all__ = list(_SOURCE)


# The registration saves no start-up time: a fresh ``import forevalkit.cli`` took 0.148 s
# with it and 0.153 s without (medians of 30 interleaved runs, 2-CPU Xeon; batches vary
# from 0.15 to 0.20 s). It stays because ``perfbench/tracer.py`` finds each traced module
# in ``sys.modules`` before any command imports it, and only this puts it there. The CLI's
# per-command module sets rely on it too: ``from .measures.engine import evaluate`` finds
# ``forevalkit.measures.engine`` registered and so never runs ``measures/__init__.py``, which
# would run ``engine``, ``ranking`` and ``registry`` all three.
def _register_lazily(package: str, path, names) -> None:
    """Put each named submodule of ``package`` in ``sys.modules`` and on the package
    without running it; its code runs when one of its attributes is first read."""
    for name in names:
        spec = PathFinder.find_spec(f"{package}.{name}", path)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[package], name, module)
        if name == "measures":
            _register_lazily(spec.name, spec.submodule_search_locations, ("engine", "ranking", "registry"))


# ``cli`` is not registered: ``python -m forevalkit.cli`` runs it as ``__main__``.
_register_lazily(__name__, __path__,
                 ("checks", "core", "io", "olsar", "measures", "partition", "report", "stats", "advisor", "synth",
                  "pitfalls"))


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
