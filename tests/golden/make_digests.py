"""Golden output digests: SHA-256 of every output of a fixed set of small,
seeded in-process ``cli.main`` runs, one per command and setting that shapes
its outputs (see ``CASES``).

Run from the repository root to rewrite ``digests.json`` after a change that
is meant to alter outputs; the digest diff is what changed::

    PYTHONPATH=src python tests/golden/make_digests.py

``tests/test_golden.py`` recomputes the digests and compares them with the
file. Each run works in one directory with relative paths, so no output
depends on where it ran; manifests are digested with their input paths
removed (the input digests stay) and with sorted keys. A command's stdout and
exit code are digested too, and so is the stdout of each demo script, run in
process (``DEMOS``); demo 07 prints its temporary workspace, whose path is
replaced by ``<workspace>`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import runpy
import warnings
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")
DEMOS = sorted(Path(__file__).resolve().parents[2].joinpath("demos").glob("[0-9]*.py"))

N_STEPS = 30
SEASON = 4


def _series_csv() -> str:
    """Three 30-step series: ``a`` a positive random walk, ``b`` seasonal with
    period 4 and a zero actual at t = 25 (percentage terms there
    undefined), ``c`` flat from t = 18 on (its naive benchmark errors are 0)."""
    rng = np.random.default_rng(20240601)
    t = np.arange(1, N_STEPS + 1)
    a = 50.0 + np.cumsum(rng.normal(0.0, 1.0, N_STEPS))
    b = 20.0 + 5.0 * np.sin(2 * np.pi * t / SEASON) + rng.normal(0.0, 0.5, N_STEPS)
    b[24] = 0.0  # t = 25
    c = np.where(t >= 18, 5.0, 5.0 + rng.uniform(0.0, 3.0, N_STEPS))
    lines = ["series_id,timestamp,value"]
    for sid, values in (("a", a), ("b", b), ("c", c)):
        lines += [f"{sid},{i},{round(float(v), 3)!r}" for i, v in zip(t, values)]
    return "\n".join(lines) + "\n"


def _extreme_series_csv(series_csv: str) -> str:
    """The three series with ``b`` renamed ``b"ü``, an id that ``csv`` quotes and
    ``json`` escapes, and a fourth, ``x``, at -1e200 and 1e200 in turn: its naive
    and mean benchmark errors square past the float range, so RMSE is inf."""
    lines = [f'"b""\u00fc"{line[1:]}' if line.startswith("b,") else line for line in series_csv.splitlines()]
    lines += [f"x,{t},{(-1) ** t * 1e200!r}" for t in range(1, N_STEPS + 1)]
    return "\n".join(lines) + "\n"


def _forecast_csv(series_csv: str, origins, h: int) -> str:
    """Models ``m1`` and ``m2``: each actual plus seeded noise, kept positive."""
    rng = np.random.default_rng(7)
    values: dict[str, list[float]] = {}
    for line in series_csv.splitlines()[1:]:
        sid, _, v = line.split(",")
        values.setdefault(sid, []).append(float(v))
    lines = ["series_id,origin,step,model,forecast"]
    for model, sd in (("m1", 0.8), ("m2", 1.5)):
        for sid, y in values.items():
            for origin in origins:
                for k in range(1, h + 1):
                    f = abs(y[origin + k - 1] + float(rng.normal(0.0, sd))) + 0.01
                    lines.append(f"{sid},{origin},{k},{model},{round(f, 3)!r}")
    return "\n".join(lines) + "\n"


def _suite(benchmark: str, policy: str) -> dict:
    from forevalkit.measures.registry import measure_names

    suite = {
        "measures": [*measure_names(),
                     {"name": "MASE", "constants": {"seasonal_period": SEASON}},
                     {"name": "RMSSE", "constants": {"scale_mode": "multi-step", "multistep_h": 2}},
                     {"name": "msMAPE", "constants": {"epsilon": 0.5, "threshold": 1.0}},
                     {"name": "RelMAE", "series_summary": "geometric-mean"},
                     {"name": "WAPE", "series_summary": "median"}],
        "policy": policy,
        "benchmark": benchmark,
    }
    if benchmark == "seasonal-naive":
        suite["seasonal_period"] = SEASON
    return suite


def _inputs() -> dict[str, str]:
    """Every input file of the cases, by name."""
    series = _series_csv()
    files = {
        "series.csv": series,
        "series-extreme.csv": _extreme_series_csv(series),
        "one-origin.csv": _forecast_csv(series, [24], 6),
        "multi-origin.csv": _forecast_csv(series, [20, 22, 24], 4),
        "dgp-seasonal.json": json.dumps({"kind": "seasonal", "length": 40, "seed": 3, "period": 4,
                                         "amplitude": 2.0, "level": 10.0}),
        "dgp-ar.json": json.dumps({"kind": "ar", "length": 30, "seed": 5, "ar_coefficients": [0.6]}),
        "fixed.json": json.dumps({"scheme": "fixed-origin", "initial_train": 20, "horizon": 4}),
        "rolling.json": json.dumps({"scheme": "rolling-origin", "initial_train": 12, "horizon": 3,
                                    "stride": 2, "window": "rolling", "window_length": 10}),
        "hybrid.json": json.dumps({"scheme": "rolling-origin", "initial_train": 8, "horizon": 2,
                                   "window_length": 10}),
        "profile-seasonal.json": json.dumps({"seasonality": True, "trend": "linear",
                                             "series_lengths": [40, 60], "model_class": "pure-AR"}),
        "profile-intermittent.json": json.dumps({"intermittency": True, "outliers": True}),
        "compare-wilcoxon.json": json.dumps({"measure": "MAE", "pairwise": "wilcoxon"}),
        "compare-dm.json": json.dumps({"measure": "RMSE", "pairwise": "dm", "horizon": 2}),
    }
    for benchmark, policy in BENCHMARK_RUNS:
        files[f"suite-{benchmark}.json"] = json.dumps(_suite(benchmark, policy))
    return files


# each benchmark with the undefined-value policy of its suite
BENCHMARK_RUNS = (("naive", "propagate"), ("seasonal-naive", "skip"), ("mean", "skip"))

# (case, argv); each case writes into ``out/<case>``, or for simulate ``out/<case>/series.csv``
CASES = [
    ("simulate-seasonal", ["simulate", "dgp-seasonal.json", "out/simulate-seasonal/series.csv"]),
    ("simulate-ar", ["simulate", "dgp-ar.json", "out/simulate-ar/series.csv"]),
    *[(f"evaluate-{frame}-{benchmark}",
       ["evaluate", "series.csv", f"{frame}.csv", f"suite-{benchmark}.json",
        "--out", f"out/evaluate-{frame}-{benchmark}"])
      for frame in ("one-origin", "multi-origin") for benchmark, _ in BENCHMARK_RUNS],
    ("backtest-fixed", ["backtest", "series.csv", "fixed.json", "--benchmark", "naive", "--benchmark",
                        "seasonal-naive", "--benchmark", "mean", "--seasonal-period", str(SEASON),
                        "--out", "out/backtest-fixed"]),
    ("backtest-rolling", ["backtest", "series.csv", "rolling.json", "--benchmark", "naive", "--benchmark",
                          "mean", "--out", "out/backtest-rolling"]),
    ("backtest-extreme", ["backtest", "series-extreme.csv", "rolling.json", "--benchmark", "naive",
                          "--benchmark", "seasonal-naive", "--benchmark", "mean", "--seasonal-period",
                          str(SEASON), "--out", "out/backtest-extreme"]),
    ("backtest-hybrid", ["backtest", "series.csv", "hybrid.json", "--benchmark", "seasonal-naive",
                         "--seasonal-period", str(SEASON), "--out", "out/backtest-hybrid"]),
    ("compare-wilcoxon", ["compare", "out/evaluate-one-origin-naive/report.json",
                          "--config", "compare-wilcoxon.json", "--out", "out/compare-wilcoxon"]),
    ("compare-dm", ["compare", "out/evaluate-multi-origin-mean/report.json",
                    "--config", "compare-dm.json", "--out", "out/compare-dm"]),
    ("advise-seasonal", ["advise", "profile-seasonal.json", "--out", "out/advise-seasonal"]),
    ("advise-intermittent", ["advise", "profile-intermittent.json", "--out", "out/advise-intermittent"]),
    ("pitfalls-all", ["pitfalls", "--all", "--out", "out/pitfalls-all"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_bytes(data: bytes) -> bytes:
    manifest = json.loads(data)
    manifest["inputs"] = list(manifest["inputs"].values())
    return json.dumps(manifest, sort_keys=True).encode()


def _demo_stdout(path: Path) -> str:
    """What the demo script at ``path`` prints, its workspace path (demo 07) replaced."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    text = stdout.getvalue()
    workspace = re.match(r"workspace: (\S+)", text)
    return text.replace(workspace[1], "<workspace>") if workspace else text


def compute(workdir: Path) -> dict[str, str]:
    """Run every case in ``workdir`` (which should be empty) and return
    ``{"<case>/<file>": sha256}``, with ``<case>/stdout`` and ``<case>/exit``,
    and ``demo-<name>/stdout`` for each demo."""
    import forevalkit
    from forevalkit.cli import main

    workdir = Path(workdir)
    for name, text in _inputs().items():
        (workdir / name).write_text(text, encoding="utf-8")
    digests = {}
    cwd, pythonpath = os.getcwd(), os.environ.get("PYTHONPATH")
    # demo 07 runs the CLI in child processes: they import this package
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(Path(forevalkit.__file__).resolve().parents[1]), *filter(None, [pythonpath])])
    os.chdir(workdir)
    try:
        with warnings.catch_warnings():
            # two models on three series: Friedman does not reject, and compare says so
            warnings.filterwarnings("ignore", "post-hoc comparison requested", UserWarning)
            for case, argv in CASES:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                digests[f"{case}/exit"] = str(code)
                digests[f"{case}/stdout"] = _sha256(stdout.getvalue().encode())
                for path in sorted((workdir / "out" / case).iterdir()):
                    data = path.read_bytes()
                    if path.name == "manifest.json":
                        data = _manifest_bytes(data)
                    digests[f"{case}/{path.name}"] = _sha256(data)
            for path in DEMOS:
                digests[f"demo-{path.stem}/stdout"] = _sha256(_demo_stdout(path).encode())
    finally:
        os.chdir(cwd)
        if pythonpath is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = pythonpath
    return digests


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="forevalkit-golden-") as tmp:
        digests = compute(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests -> {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
