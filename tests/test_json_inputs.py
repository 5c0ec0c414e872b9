"""Every JSON input a command reads, with one key dropped or one value replaced by a
value of another type or an extreme number, at any depth, makes the command exit 0,
2 or 3, and a failing command prints one ``error:`` line: no input escapes as a
traceback. The inputs are the suite, the compare config, the split spec, the DGP
spec, the profile and the compared report."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from forevalkit.cli import main

SERIES = "series_id,timestamp,value\n" + "".join(
    f"{sid},{t},{v}\n" for sid, values in (("a", [10, 12, 11, 13, 14, 12, 15, 13]),
                                           ("b", [50, 52, 55, 53, 56, 58, 57, 59]),
                                           ("c", [5, 0, 6, 4, 7, 5, 8, 6]))
    for t, v in enumerate(values, 1))
FORECASTS = "series_id,origin,step,model,forecast\n" + "".join(
    f"{sid},6,{step},{model},{level + step + j}\n" for j, model in enumerate(("m1", "m2", "m3"))
    for sid, level in (("a", 12), ("b", 56), ("c", 5)) for step in (1, 2))

# a report as evaluate writes it for {"measures": ["RMSE"]}, on which the Friedman test rejects
_KEYS = [[sid, 6, step] for sid in "abc" for step in (1, 2)]
REPORT = {
    "policy": "propagate",
    "models": ["m1", "m2", "m3"],
    "results": [{"measure": "RMSE", "model": model, "value": value, "n_used": 6, "n_undefined": 0, "flags": [],
                 "per_series": dict(zip("abc", per_series))}
                for model, value, per_series in (("m1", 1.83, [2.12, 2.55, 0.71]), ("m2", 2.38, [2.92, 3.54, 1.22]),
                                                 ("m3", 3.14, [3.81, 4.53, 1.58]))],
    "errors": {model: {"keys": _KEYS, "errors": [e - j for e in (2, -1, 2, -3, 0, -1)]}
               for j, model in enumerate(("m1", "m2", "m3"))},
}

# (input, a document of it that the command runs without error)
BASES = [
    ("suite", {"measures": ["MAE", {"name": "MASE", "constants": {"seasonal_period": 1}},
                            {"name": "RelMAE", "series_summary": "median"},
                            {"name": "msMAPE", "constants": {"epsilon": 0.1, "threshold": 0.5}}],
               "policy": "skip", "benchmark": "seasonal-naive", "seasonal_period": 2}),
    ("compare config", {"measure": "RMSE", "alpha": 0.05, "pairwise": "dm", "horizon": 1, "adjust": "holm"}),
    ("split", {"scheme": "rolling-origin", "initial_train": 3, "horizon": 2, "stride": 1, "window": "rolling",
               "window_length": 3}),
    ("DGP spec", {"kind": "composite", "length": 30, "seed": 1, "noise_sd": 1.0, "noise": "student-t",
                  "t_df": 5.0, "level": 10.0, "trend_slope": 0.5, "period": 4, "amplitude": 2.0,
                  "sigma_end_factor": 2.0, "break_index": 10, "break_shift": 3.0, "series_id": "s"}),
    ("DGP spec", {"kind": "intermittent", "length": 30, "seed": 1, "zero_probability": 0.5, "demand_rate": 3.0}),
    ("DGP spec", {"kind": "ar", "length": 30, "seed": 1, "ar_coefficients": [0.5, -0.2], "ar_intercept": 1.0,
                  "allow_unit_root": False}),
    ("DGP spec", {"kind": "exponential-trend", "length": 30, "seed": 1, "trend_rate": 0.05, "trend_scale": 2.0}),
    ("profile", {"trend": "linear", "structural_breaks": ["in_horizon"], "outliers": True,
                 "outlier_preference": "capture", "series_lengths": [60, 120], "model_class": "pure-AR"}),
    ("report", REPORT),
]
POOL = ["x", True, None, [1], {}, 1e400, 2**70, -1, 0, 2.5]
DROP = object()


def _paths(doc, prefix=()):
    """The path (keys and indexes) to every value in ``doc``, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` dropped (``DROP``) or replaced by ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations(base):
    what, doc = base
    return st.tuples(st.just(what), st.sampled_from(list(_paths(doc))), st.sampled_from([DROP, *POOL])).map(
        lambda case: (case[0], _mutate(doc, case[1], case[2])))


def _run(what: str, doc: dict, workdir: Path) -> tuple[int, str]:
    """The exit code and the standard error of the command that reads ``doc`` as ``what``."""
    (workdir / "series.csv").write_text(SERIES)
    (workdir / "forecasts.csv").write_text(FORECASTS)
    (workdir / "dm.json").write_text(json.dumps({"pairwise": "dm"}))
    (workdir / "report.json").write_text(json.dumps(REPORT))
    path = workdir / "input.json"
    path.write_text(json.dumps(doc))  # 1e400 is written as Infinity, which the readers parse as inf
    series, out = str(workdir / "series.csv"), ["--out", str(workdir / "out")]
    argv = {"suite": ["evaluate", series, str(workdir / "forecasts.csv"), str(path), *out],
            "compare config": ["compare", str(workdir / "report.json"), "--config", str(path), *out],
            "split": ["backtest", series, str(path), *out],
            "DGP spec": ["simulate", str(path), str(workdir / "out" / "series.csv")],
            "profile": ["advise", str(path), *out],
            "report": ["compare", str(path), "--config", str(workdir / "dm.json"), *out]}[what]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("what, doc", BASES)
def test_base_document_runs(what, doc):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(what, doc, Path(tmp)) == (0, "")


@settings(max_examples=200, deadline=None, database=None)
@seed(20261022)
@given(case=st.sampled_from(BASES).flatmap(_mutations))
@example(case=("DGP spec", {"kind": "intermittent", "length": 5, "seed": 1, "demand_rate": -1}))
@example(case=("DGP spec", {"kind": "intermittent", "length": 5, "seed": 1, "demand_rate": 1e400}))
@example(case=("DGP spec", {"kind": "random-walk", "length": 2**70, "seed": 1}))
def test_mutated_input_exits_0_2_or_3(case):
    what, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run(what, doc, Path(tmp))
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
