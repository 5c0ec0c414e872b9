"""The package namespace, and which of its modules each CLI subcommand runs."""

import importlib
import json
import subprocess
import sys

import pytest

import forevalkit

# the public names of each submodule, as the package has always exported them
PUBLIC = {
    "core": ["DataValidationError", "Dataset", "EmbeddedMatrix", "EvaluationFrame", "Forecaster",
             "ForevalError", "InsufficientHistoryError", "TimeSeries", "ValidationError",
             "benchmark_frame", "embed", "frame_from_records", "mean_forecast", "naive_forecast",
             "seasonal_naive_forecast"],
    "measures": ["MeasureResult", "MeasureSpec", "RankTable", "UndefinedPolicy", "UndefinedValueError",
                 "WeightVector", "critical_event_percentage", "evaluate", "measure_names",
                 "percentage_better", "rank_models", "spec_for", "summarize"],
    "partition": ["Fold", "LeakageError", "LeakageReport", "SplitSpec", "blocked_splits",
                  "fixed_origin_split", "kfold_splits", "leakage_check", "leakage_checks",
                  "rolling_origin_splits", "splits_for_series"],
    "stats": ["CdLayout", "PostHocResult", "TestResult", "cd_diagram_data", "diebold_mariano",
              "friedman", "ljung_box", "nemenyi_cd", "p_adjust", "render_cd_svg", "render_cd_text",
              "wilcoxon_rank_sum"],
    "advisor": ["CharacteristicProfile", "PartitioningAdvice", "Recommendation", "RuleTable",
                "intermittency_hint", "load_rule_table", "recommend_measures", "recommend_partitioning"],
    "synth": ["DgpSpec", "OutlierInjection", "derive_seed", "generate", "inject_outliers"],
    "pitfalls": ["ScenarioResult", "list_scenarios", "run_all", "run_scenario"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


class TestNamespace:
    def test_all_is_the_public_names(self):
        assert len(NAMES) == 68
        assert forevalkit.__all__ == NAMES

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
    def test_name_is_the_defining_modules_object(self, module, name):
        assert getattr(forevalkit, name) is getattr(importlib.import_module(f"forevalkit.{module}"), name)

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(forevalkit))

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'forevalkit' has no attribute 'evaluate_all'"):
            forevalkit.evaluate_all

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from forevalkit import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(NAMES)
        assert "core" not in namespace and "stats" not in namespace


# Runs one CLI command in a fresh interpreter, then prints the forevalkit
# modules whose code ran (a module not yet run is still a lazy module) and
# whether any scipy module was imported.
RUN = """
import json, sys, types
import forevalkit.cli
code = forevalkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = sorted(m.removeprefix("forevalkit.") for m, mod in sys.modules.items()
             if m.startswith("forevalkit.") and type(mod) is types.ModuleType)
print(json.dumps([code, ran, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)]))
"""

MEASURES = ["measures", "measures.engine", "measures.ranking", "measures.registry"]


class TestStartup:
    """Each subcommand runs only the modules it uses; only ``compare`` loads scipy."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "series.csv").write_text(
            "series_id,timestamp,value\n" + "".join(f"{s},{t},{10 * k + t % 3}\n"
                                                    for k, s in enumerate("abc", 1) for t in range(1, 9)))
        (tmp_path / "forecasts.csv").write_text(
            "series_id,origin,step,model,forecast\n" + "".join(
                f"{s},6,{h},{m},{10 * k + h + j}\n" for j, m in enumerate(("m1", "m2"))
                for k, s in enumerate("abc", 1) for h in (1, 2)))
        files = {"suite.json": {"measures": ["MAE", "RMSE"]},
                 "split.json": {"scheme": "rolling-origin", "initial_train": 4, "horizon": 2},
                 "dgp.json": {"kind": "random-walk", "length": 20, "seed": 3},
                 "profile.json": {"intermittency": True},
                 "compare.json": {"measure": "RMSE"}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        return tmp_path

    def test_bare_import_runs_no_submodule_and_no_numpy(self, subprocess_env):
        code = ("import sys, types, forevalkit; print(sorted(m for m, mod in sys.modules.items() "
                "if m.startswith('forevalkit.') and type(mod) is types.ModuleType), 'numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                             env=subprocess_env).stdout
        assert out == "[] False\n"

    def test_each_subcommand_runs_only_its_modules(self, inputs, subprocess_env):
        def run(*argv):  # (exit code, modules run, whether scipy was imported)
            out = subprocess.run([sys.executable, "-c", RUN, *argv], check=True, capture_output=True,
                                 text=True, env=subprocess_env, cwd=inputs).stdout
            return tuple(json.loads(out.splitlines()[-1]))

        assert run() == (0, ["cli", "core"], False)
        assert run("simulate", "dgp.json", "sim.csv") == (0, ["cli", "core", "io", "synth"], False)
        assert run("evaluate", "series.csv", "forecasts.csv", "suite.json", "--out", "ev") == (
            0, ["cli", "core", "io", *MEASURES], False)
        assert run("backtest", "series.csv", "split.json", "--out", "bt") == (
            0, ["cli", "core", "io", "partition"], False)
        assert run("compare", "ev/report.json", "--config", "compare.json", "--out", "cmp") == (
            0, ["cli", "core", *MEASURES, "stats"], True)
        assert run("advise", "profile.json", "--out", "adv") == (
            0, ["advisor", "cli", "core", "measures.engine", "measures.ranking", "measures.registry",
                "stats"], False)
        assert run("pitfalls", "--list") == (
            0, ["cli", "core", *MEASURES, "olsar", "pitfalls", "synth"], False)
