"""The three seeded CLI workloads: input generation, command lines and output checks.

Inputs are built from the workload seed with ``forevalkit.synth.generate``;
the program under test only ever sees the files written here. The output
checks recompute expected values with numpy/scipy and do not call forevalkit.

Each ``setup_*`` writes its inputs into ``work`` and returns the pass: a list
of ``Step``s, one CLI invocation each, run in order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from forevalkit.synth import DgpSpec, derive_seed, generate

REL_TOL = 1e-9


@dataclass
class Step:
    argv: list[str]
    # check(stdout) raises CheckError when the invocation's outputs are wrong
    check: Callable[[str], None]


class CheckError(Exception):
    """An invocation's outputs disagree with the benchmark's own computation."""


def _close(got, want, what: str) -> None:
    if got is None or not math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _write_series_csv(path: Path, series) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "timestamp", "value"])
        for s in series:
            for t, v in enumerate(s.values.tolist(), start=1):
                writer.writerow([s.id, t, repr(v)])


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _random_walks(seed: int, n: int, length: int, level: float):
    return [generate(DgpSpec(kind="random-walk", length=length, level=level,
                             seed=derive_seed(seed, i), series_id=f"s{i:04d}"))
            for i in range(n)]


def _write_forecasts(path: Path, ids, origin: int, forecasts: dict[str, np.ndarray]) -> None:
    """Forecast CSV for one origin; ``forecasts[model]`` has shape (series, h)."""
    h = next(iter(forecasts.values())).shape[1]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "origin", "step", "model", "forecast"])
        rows = {m: f.tolist() for m, f in forecasts.items()}
        for i, sid in enumerate(ids):
            for k in range(h):
                for m, f in rows.items():
                    writer.writerow([sid, origin, k + 1, m, repr(f[i][k])])


# --------------------------------------------------------------------------
# evaluate-wide
# --------------------------------------------------------------------------

EVAL_ORIGIN, EVAL_H = 48, 12
EVAL_SUITE = {"measures": ["MAE", "RMSE", "MASE", "sMAPE", "MRAE", "RelMAE", "MSR"],
              "benchmark": "naive", "policy": "skip"}


def setup_evaluate_wide(work: Path, seed: int, n_series: int = 1000) -> list[Step]:
    """Random walks of length 60, one origin at 48, h=12, two noisy models."""
    series = _random_walks(seed, n_series, EVAL_ORIGIN + EVAL_H, 100.0)
    values = np.array([s.values for s in series])
    actuals = values[:, EVAL_ORIGIN:EVAL_ORIGIN + EVAL_H]
    rng = np.random.default_rng([seed, 1])
    forecasts = {"sharp": actuals + rng.normal(0.0, 0.5, actuals.shape),
                 "blunt": actuals + rng.normal(0.0, 2.0, actuals.shape)}
    _write_series_csv(work / "series.csv", series)
    _write_forecasts(work / "forecasts.csv", [s.id for s in series], EVAL_ORIGIN, forecasts)
    (work / "suite.json").write_text(json.dumps(EVAL_SUITE))
    naive = values[:, EVAL_ORIGIN - 1:EVAL_ORIGIN]
    ids = [s.id for s in series]
    return [Step(
        ["evaluate", str(work / "series.csv"), str(work / "forecasts.csv"),
         str(work / "suite.json"), "--out", str(work / "eval")],
        lambda out: check_evaluate(work / "eval", ids, actuals, naive, forecasts),
    )]


def check_evaluate(out: Path, ids, actuals, naive, forecasts) -> None:
    """Pooled MAE and RMSE, and per-series MRAE against naive, for every model."""
    report = _read_json(out / "report.json")
    results = {(r["measure"], r["model"]): r for r in report["results"]}
    for model, fc in forecasts.items():
        e = actuals - fc
        _close(results[("MAE", model)]["value"], np.abs(e).mean(), f"MAE {model}")
        _close(results[("RMSE", model)]["value"], math.sqrt((e * e).mean()), f"RMSE {model}")
        mrae = (np.abs(e) / np.abs(actuals - naive)).mean(axis=1)
        per_series = results[("MRAE", model)]["per_series"] or {}
        if len(per_series) != len(ids):
            raise CheckError(f"MRAE {model}: {len(per_series)} per-series values, expected {len(ids)}")
        for sid, want in zip(ids, mrae.tolist()):
            _close(per_series.get(sid), want, f"MRAE {model} series {sid}")


# --------------------------------------------------------------------------
# backtest-deep
# --------------------------------------------------------------------------

BT_LENGTH, BT_PERIOD, BT_TRAIN, BT_H = 300, 12, 120, 12
BT_SAMPLE = 64


def setup_backtest_deep(work: Path, seed: int, n_series: int = 40) -> list[Step]:
    """Seasonal series, rolling origin with an expanding window, three benchmarks."""
    series = [generate(DgpSpec(kind="seasonal", length=BT_LENGTH, period=BT_PERIOD,
                               amplitude=10.0, level=50.0, seed=derive_seed(seed, i),
                               series_id=f"q{i:03d}"))
              for i in range(n_series)]
    _write_series_csv(work / "series.csv", series)
    (work / "split.json").write_text(json.dumps({
        "scheme": "rolling-origin", "initial_train": BT_TRAIN, "horizon": BT_H,
        "stride": 1, "window": "expanding"}))
    values = {s.id: s.values for s in series}
    return [Step(
        ["backtest", str(work / "series.csv"), str(work / "split.json"),
         "--benchmark", "naive", "--benchmark", "seasonal-naive", "--benchmark", "mean",
         "--seasonal-period", str(BT_PERIOD), "--out", str(work / "backtest")],
        lambda out: check_backtest(work / "backtest", values, seed),
    )]


def check_backtest(out: Path, values: dict, seed: int) -> None:
    """Fold count, folds.csv row count, and benchmark MAE on a seeded fold sample."""
    per_series = (BT_LENGTH - BT_TRAIN - BT_H) + 1
    n_folds = per_series * len(values)
    folds = _read_json(out / "report.json")["folds"]
    if len(folds) != n_folds:
        raise CheckError(f"{len(folds)} folds, expected {n_folds}")
    rows_per_series = sum(BT_TRAIN + j + BT_H for j in range(per_series))
    with (out / "folds.csv").open("rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != 1 + rows_per_series * len(values):
        raise CheckError(f"folds.csv has {lines} lines, expected {1 + rows_per_series * len(values)}")
    rng = np.random.default_rng([seed, 2])
    steps = np.arange(1, BT_H + 1)
    for idx in rng.choice(n_folds, size=min(BT_SAMPLE, n_folds), replace=False).tolist():
        entry = folds[idx]
        y = values[entry["series"]]
        o = entry["origin"]
        actual = y[o:o + BT_H]
        expected = {
            "naive": np.full(BT_H, y[o - 1]),
            "seasonal-naive": y[o + steps - BT_PERIOD * np.ceil(steps / BT_PERIOD).astype(int) - 1],
            "mean": np.full(BT_H, y[:o].mean()),
        }
        for kind, fc in expected.items():
            _close(entry["models"][kind]["MAE"], np.abs(actual - fc).mean(),
                   f"fold {idx + 1} {kind} MAE")


# --------------------------------------------------------------------------
# compare-chain: the compared report
# --------------------------------------------------------------------------

CMP_MODELS, CMP_ORIGIN, CMP_H = 8, 48, 12
CMP_CONFIG = {"measure": "RMSE", "pairwise": "dm", "horizon": CMP_H, "adjust": "holm",
              "alpha": 0.05}


def setup_compare_report(work: Path, seed: int, n_series: int = 1000) -> list[Step]:
    """A report.json in the format ``evaluate`` writes: per-series RMSE and per-row errors."""
    series = _random_walks(seed, n_series, CMP_ORIGIN + CMP_H, 100.0)
    actuals = np.array([s.values for s in series])[:, CMP_ORIGIN:]
    ids = [s.id for s in series]
    keys = [[sid, CMP_ORIGIN, k] for sid in ids for k in range(1, CMP_H + 1)]
    rng = np.random.default_rng([seed, 3])
    models = [f"m{j}" for j in range(CMP_MODELS)]
    errors, results = {}, []
    for j, model in enumerate(models):
        forecast = actuals + rng.normal(0.0, 1.0 + 0.1 * j, actuals.shape)
        e = actuals - forecast
        rmse = np.sqrt((e * e).mean(axis=1))
        errors[model] = e
        results.append({"measure": "RMSE", "model": model,
                        "value": math.sqrt(float((e * e).mean())), "n_used": e.size,
                        "n_undefined": 0, "flags": [],
                        "per_series": dict(zip(ids, rmse.tolist()))})
    report = {"policy": "skip", "models": models, "results": results,
              "errors": {m: {"keys": keys, "errors": e.ravel().tolist()}
                         for m, e in errors.items()}}
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    (work / "config.json").write_text(json.dumps(CMP_CONFIG))
    return [Step(
        ["compare", str(work / "report.json"), "--config", str(work / "config.json"),
         "--out", str(work / "compare")],
        lambda out: check_compare(work / "compare", results, errors, models),
    )]


def dm_statistic(loss_a: np.ndarray, loss_b: np.ndarray, h: int) -> float:
    """Diebold-Mariano statistic, rectangular window of h - 1 lags, with the
    Harvey-Leybourne-Newbold small-sample factor."""
    d = loss_a - loss_b
    n = d.size
    dc = d - d.mean()
    v = float(np.dot(dc, dc)) / n
    v += sum(2.0 * float(np.dot(dc[k:], dc[:-k])) / n for k in range(1, min(h, n)))
    if v <= 0:
        v = float(np.dot(dc, dc)) / n
    adj = (n + 1 - 2 * h + h * (h - 1) / n) / n
    return d.mean() / math.sqrt(v / n) * math.sqrt(max(adj, 0.0))


def check_compare(out: Path, results, errors, models) -> None:
    """Friedman against scipy, and the first DM pair against the formula."""
    from scipy.stats import friedmanchisquare

    tests = _read_json(out / "tests.json")
    scores = [list(r["per_series"].values()) for r in results]
    _close(tests["friedman"]["statistic"], friedmanchisquare(*scores).statistic, "Friedman")
    a, b = models[0], models[1]
    pair = tests["pairwise"].get(f"{a} vs {b}") or {}
    want = dm_statistic(errors[a].ravel() ** 2, errors[b].ravel() ** 2, CMP_H)
    _close(pair.get("statistic"), want, f"DM {a} vs {b}")


# --------------------------------------------------------------------------
# compare-chain: the demo-07 chain
# --------------------------------------------------------------------------

PIPE_IDS, PIPE_LENGTH, PIPE_ORIGIN, PIPE_H = ("u", "v"), 40, 30, 6


def setup_compare_chain(work: Path, seed: int, n_series: int = 1000) -> list[Step]:
    """``compare`` on a written 8-model report, then the demo-07 chain on tiny inputs."""
    return setup_compare_report(work, seed, n_series) + demo_chain(work, seed)


def demo_chain(work: Path, seed: int) -> list[Step]:
    """The demo-07 chain without its ``compare``: simulate x2, evaluate, advise, pitfalls."""
    specs = [DgpSpec(kind="random-walk", length=PIPE_LENGTH, seed=derive_seed(seed, i),
                     level=50.0, series_id=sid) for i, sid in enumerate(PIPE_IDS)]
    series = [generate(spec) for spec in specs]
    for spec in specs:
        (work / f"dgp_{spec.series_id}.json").write_text(spec.to_json())
    _write_series_csv(work / "series.csv", series)
    values = np.array([s.values for s in series])
    actuals = values[:, PIPE_ORIGIN:PIPE_ORIGIN + PIPE_H]
    rng = np.random.default_rng([seed, 4])
    forecasts = {"sharp": actuals + rng.normal(0.0, 0.4, actuals.shape),
                 "blunt": actuals + rng.normal(0.0, 3.0, actuals.shape)}
    _write_forecasts(work / "forecasts.csv", PIPE_IDS, PIPE_ORIGIN, forecasts)
    (work / "suite.json").write_text(json.dumps({
        "measures": ["MAE", "RMSE", "sMAPE", "MASE", "MRAE"], "benchmark": "naive",
        "policy": "skip"}))
    (work / "profile.json").write_text(json.dumps({
        "unit_roots": True, "series_lengths": [PIPE_LENGTH] * len(PIPE_IDS),
        "model_class": "pure-AR"}))
    naive = values[:, PIPE_ORIGIN - 1:PIPE_ORIGIN]

    def check_simulated(sid, want):
        def check(out):
            with (work / f"sim_{sid}.csv").open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            got = [float(r[2]) for r in rows]
            if got != want or any(r[0] != sid for r in rows):
                raise CheckError(f"simulate {sid}: CSV differs from the generated series")
        return check

    def check_advise(out):
        if not _read_json(work / "adv" / "recommendation.json").get("recommended"):
            raise CheckError("advise: empty recommendation")

    def check_pitfalls(out):
        lines = [ln for ln in out.splitlines() if ln.strip()]
        if not lines or not all(ln.startswith("[PASS] ") for ln in lines):
            raise CheckError("pitfalls: not every scenario printed PASS")

    steps = [Step(["simulate", str(work / f"dgp_{s.id}.json"), str(work / f"sim_{s.id}.csv")],
                  check_simulated(s.id, s.values.tolist())) for s in series]
    steps += [
        Step(["evaluate", str(work / "series.csv"), str(work / "forecasts.csv"),
              str(work / "suite.json"), "--out", str(work / "eval")],
             lambda out: check_evaluate(work / "eval", list(PIPE_IDS), actuals, naive, forecasts)),
        Step(["advise", str(work / "profile.json"), "--out", str(work / "adv")], check_advise),
        Step(["pitfalls", "--all"], check_pitfalls),
    ]
    return steps


WORKLOADS = {
    "evaluate-wide": setup_evaluate_wide,
    "backtest-deep": setup_backtest_deep,
    "compare-chain": setup_compare_chain,
}
