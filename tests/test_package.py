"""The package namespace, the names the benchmark's tracer wraps, which of its
modules each CLI subcommand runs, and the README's code."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import forevalkit

# the public names of each submodule
PUBLIC = {
    "checks": ["DataValidationError", "ForevalError", "InsufficientHistoryError", "ValidationError"],
    "core": ["Dataset", "EmbeddedMatrix", "EvaluationFrame", "Forecaster", "TimeSeries", "benchmark_frame",
             "embed"],
    "measures": ["MeasureResult", "MeasureSpec", "RankTable", "SuiteConfig", "UndefinedPolicy",
                 "UndefinedValueError", "WeightVector", "evaluate", "measure_names", "rank_models", "spec_for"],
    "partition": ["Fold", "FoldRanges", "LeakageError", "LeakageReport", "SplitSpec", "blocked_splits",
                  "kfold_splits", "leakage_check", "leakage_checks", "splits_for_series"],
    "stats": ["CdLayout", "CompareConfig", "Comparison", "PostHocResult", "TestResult", "cd_diagram_data",
              "compare_models", "diebold_mariano", "friedman", "ljung_box", "nemenyi_cd", "p_adjust",
              "render_cd_svg", "render_cd_text", "wilcoxon_rank_sum"],
    "advisor": ["CharacteristicProfile", "PartitioningAdvice", "Recommendation", "RuleTable",
                "intermittency_hint", "load_rule_table", "recommend_measures", "recommend_partitioning"],
    "synth": ["DgpSpec", "OutlierInjection", "derive_seed", "generate", "inject_outliers"],
    "pitfalls": ["ScenarioResult", "list_scenarios", "run_all", "run_scenario"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


class TestNamespace:
    def test_all_is_the_public_names(self):
        assert len(NAMES) == 64
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


REPO = Path(__file__).resolve().parents[1]


def test_benchmark_trace_targets_resolve():
    """Every function or method ``perfbench/tracer.py`` wraps still exists, so removing
    or renaming one fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for module_name, attr, _, _ in tracer.TARGETS:
        owner, _, name = attr.rpartition(".")
        namespace = vars(importlib.import_module(module_name))
        if owner:
            namespace = vars(namespace[owner]) if owner in namespace else {}
        if name not in namespace:
            unresolved.append(f"{module_name}.{attr}")
    assert tracer.TARGETS and not unresolved, f"perfbench traces names that do not resolve: {unresolved}"


# Imports forevalkit.cli and runs ``pitfalls --list``, whose modules import numpy, with
# the collector on or off (argv[1]), then prints how many collections ran inside
# numpy's import, whether numpy was imported, and the collector's state.
IMPORT_CLI = """
import gc, sys
runs = []

def in_numpy(phase, info):
    frame = sys._getframe()
    while frame is not None and not frame.f_globals.get("__name__", "").startswith("numpy"):
        frame = frame.f_back
    if frame is not None and phase == "start":
        runs.append(info)

gc.callbacks.append(in_numpy)
gc.enable() if sys.argv[1] == "True" else gc.disable()
import forevalkit.cli
forevalkit.cli.main(["pitfalls", "--list"])
print(len(runs), "numpy" in sys.modules, gc.isenabled())
"""

# Runs one CLI command in a fresh interpreter, then prints the forevalkit
# modules whose code ran (a module not yet run is still a lazy module),
# whether any scipy module was imported, and whether numpy was.
RUN = """
import json, sys, types
import forevalkit.cli
code = forevalkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = sorted(m.removeprefix("forevalkit.") for m, mod in sys.modules.items()
             if m.startswith("forevalkit.") and type(mod) is types.ModuleType)
print(json.dumps([code, ran, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
                  "numpy" in sys.modules]))
"""

# Calls check_type and check_fields before numpy is imported, then prints which of
# numpy's scalars each of bool, int and float accepts, and whether check_fields
# accepts them in a dataclass's fields.
CHECKS_BEFORE_NUMPY = """
import json, sys
from dataclasses import dataclass
from forevalkit.checks import ValidationError, check_fields, check_type

@dataclass
class Spec:
    flag: bool = False
    count: int = 0
    size: float = 0.0
    sizes: tuple[float, ...] = ()

def accepts(check, *args):
    try:
        check(*args)
    except ValidationError:
        return False
    return True

before = [accepts(check_fields, Spec(), "spec"), accepts(check_type, "n", True, int),
          accepts(check_type, "n", 1.5, float | None), "numpy" in sys.modules]
import numpy as np
scalars = (np.int64(1), np.float32(1.5), np.bool_(True))
spec = Spec(np.bool_(True), np.int64(2), np.float32(0.5), [np.int64(1), np.float32(2)])
print(json.dumps([before, [[accepts(check_type, "v", v, hint) for v in scalars] for hint in (bool, int, float)],
                  accepts(check_fields, spec, "spec")]))
"""


class TestStartup:
    """Each subcommand runs only the modules it uses; only ``compare`` loads scipy, and
    every command but ``advise`` numpy."""

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
                 "lengths.json": {"intermittency": True, "series_lengths": [60, 120], "model_class": "pure-AR"},
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

    def test_exceptions_load_no_numpy(self, subprocess_env):
        code = ("import sys, forevalkit; forevalkit.ForevalError, forevalkit.ValidationError, "
                "forevalkit.DataValidationError, forevalkit.InsufficientHistoryError; print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                             env=subprocess_env).stdout
        assert out == "False\n"

    def test_missing_numpy_is_named(self):
        # -I -S hide site-packages, so the child finds forevalkit but not numpy;
        # -B keeps it from writing __pycache__ next to the sources
        src = str(Path(forevalkit.__file__).resolve().parents[1])
        code = (f"import sys, importlib.util; sys.path.insert(0, {src!r}); "
                "print(importlib.util.find_spec('numpy') is None, flush=True); import forevalkit")
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True)
        if proc.stdout != "True\n":
            pytest.skip("numpy is importable without site-packages")
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ModuleNotFoundError: forevalkit needs numpy, which is not installed")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_import_runs_no_collection_and_restores_the_collector(self, subprocess_env, enabled):
        # with the collector on throughout, numpy's import would run about 30 collections
        out = subprocess.run([sys.executable, "-c", IMPORT_CLI, str(enabled)], check=True, capture_output=True,
                             text=True, env=subprocess_env).stdout
        assert out.splitlines()[-1] == f"0 True {enabled}"

    def test_each_subcommand_runs_only_its_modules(self, inputs, subprocess_env):
        def run(*argv):  # (exit code, modules run, whether scipy was imported, whether numpy was)
            out = subprocess.run([sys.executable, "-c", RUN, *argv], check=True, capture_output=True,
                                 text=True, env=subprocess_env, cwd=inputs).stdout
            return tuple(json.loads(out.splitlines()[-1]))

        assert run() == (0, ["checks", "cli"], False, False)
        assert run("simulate", "dgp.json", "sim.csv") == (0, ["checks", "cli", "core", "io", "synth"], False, True)
        assert run("evaluate", "series.csv", "forecasts.csv", "suite.json", "--out", "ev") == (
            0, ["checks", "cli", "core", "io", "measures.engine", "measures.registry"], False, True)
        assert run("backtest", "series.csv", "split.json", "--out", "bt") == (
            0, ["checks", "cli", "core", "io", "partition"], False, True)
        assert run("compare", "ev/report.json", "--config", "compare.json", "--out", "cmp") == (
            0, ["checks", "cli", "core", "measures.ranking", "measures.registry", "report", "stats"], True, True)
        for profile in ("profile.json", "lengths.json"):
            assert run("advise", profile, "--out", "adv") == (
                0, ["advisor", "checks", "cli", "measures.registry"], False, False)
        assert run("pitfalls", "--list") == (
            0, ["checks", "cli", "core", "measures.engine", "measures.registry", "olsar", "pitfalls", "synth"],
            False, True)

    def test_checks_made_before_numpy_accept_its_scalars(self, subprocess_env):
        # the classes each type accepts, as before checks loaded without numpy:
        # np.bool_ only as a bool, np.int64 as an int or a number, np.float32 as a number
        out = subprocess.run([sys.executable, "-c", CHECKS_BEFORE_NUMPY], check=True, capture_output=True,
                             text=True, env=subprocess_env).stdout
        assert json.loads(out) == [[True, False, True, False],
                                   [[False, False, True], [True, False, False], [True, True, False]], True]


README = (REPO / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


class TestReadme:
    def test_has_python_blocks(self):
        assert README_BLOCKS

    @pytest.mark.parametrize("block", range(len(README_BLOCKS)))
    def test_python_block_runs(self, block):
        exec(compile(README_BLOCKS[block], f"README.md python block {block}", "exec"), {})

    def test_public_name_count(self):
        counts = re.findall(r"`forevalkit\.__all__`\s+lists\s+the\s+(\d+)\s+public\s+names", README)
        assert counts == [str(len(forevalkit.__all__))]
