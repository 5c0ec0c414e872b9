"""Batch command-line surface for reproducible evaluation runs.

Subcommands: evaluate, backtest, compare, advise, simulate, pitfalls.
Every run writes a manifest (inputs, seed, config hash, version) next to
its outputs so identical manifests imply identical outputs.

Each command imports the modules it uses, numpy among them, when it runs,
each name from the submodule that defines it, so an invocation runs only
its own command's modules (see the package docstring); ``compare`` reads
its reports through ``report``, which no other command runs, and
``advise`` runs no module that imports numpy.

Each command runs BLAS on one thread: importing this module before numpy
sets ``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set. The products a command
makes are too small to gain from a second thread, yet each process would
start OpenBLAS's thread pool (numpy's, and for ``compare`` scipy's too),
whose workers spin while they wait; and a threaded dot product rounds
differently from a one-thread one, so an output computed with a long one
would depend on the host's CPU count. Library calls keep the
caller's BLAS setting: a numpy loaded before this module is left as it
is. ``main`` also pauses the cyclic garbage collector while a command
runs, numpy's import included (alone 29 collections), since its passes
over the command's many live objects (the decoded reports, for
``compare``) find almost nothing to free, and turns it back on before it
returns: ``main`` leaves no process-wide change behind, so tests and other
in-process callers can call it repeatedly.

The process entry is ``run``, for both ``python -m forevalkit.cli`` and
the ``forevalkit`` console script: it calls ``main``, then ``gc.freeze()``,
then ``sys.exit`` with the code. At exit the interpreter runs one last
collection over every object still tracked, most of them the numpy and,
for ``compare``, scipy module graphs, only to free them as the process
ends. Freezing first moves them all out of the collector's reach. The
median time from ``main``'s return to the reaped process, over 15 fresh
interpreters on a 2-CPU host, fell from 72 to 17 ms for ``compare`` and
from 25-29 to 7-9 ms for each other command. Unlike ``os._exit``, this
keeps atexit handlers, the flushing of stdout and stderr and the
broken-pipe behaviour: output to a pipe whose reader has gone exits 2
with ``error: [Errno 32] Broken pipe``.

Exit codes: 0 success, 2 usage/config problems (including unreadable
input files and malformed compare reports), 3 leakage or data validation
failures (``LeakageError`` and the other ``DataValidationError``s).
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# The one-thread pin must come before numpy's first import, which a command
# makes. It stays set, so scipy's own OpenBLAS, loaded at compare's first
# p-value, starts one thread too.
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .checks import DataValidationError, InsufficientHistoryError, ValidationError, from_fields, json_object

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(config) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, inputs: list[Path], config, seed) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "config": config,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    """One line of JSON; without ``indent``, ``json`` uses its C encoder."""
    path.write_text(json.dumps(obj) + "\n")


def _read_json(path) -> dict:
    return json_object(Path(path).read_text(encoding="utf-8"), str(path))


def _result_dict(r) -> dict:
    return {
        "measure": r.name,
        "model": r.model,
        "value": None if r.value != r.value else r.value,
        "n_used": r.n_used,
        "n_undefined": r.n_undefined,
        "flags": list(r.flags),
        "per_series": {sid: (None if v != v else v) for sid, v in r.per_series.items()},
    }


def cmd_evaluate(args) -> int:
    from .core import benchmark_frame
    from .io import build_frame, read_forecast_csv, read_series_csv, write_matrix_csv
    from .measures.engine import SuiteConfig, evaluate

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _read_json(args.suite)
    suite = from_fields(SuiteConfig, raw, "suite config")  # a bad suite is named before any data is read
    dataset = read_series_csv(args.series)
    frame = build_frame(dataset, read_forecast_csv(args.forecasts))
    bench_frame = None if suite.benchmark is None else benchmark_frame(dataset, frame, kind=suite.benchmark,
                                                                        period=suite.seasonal_period)

    index = frame.series_index
    train = dataset.prefixes(index.labels, frame.origins[frame.key_order[index.starts[:-1]]])

    results = [evaluate(entry.name, frame, model=model, benchmark=bench_frame, train=train, policy=suite.policy,
                        constants=entry.constants, series_summary=entry.series_summary)
               for model in frame.models for entry in suite.entries]
    keys = list(zip(frame.series_ids.tolist(), frame.origins.tolist(), frame.steps.tolist()))
    report = {
        "policy": suite.policy,
        "models": frame.models,
        "results": [_result_dict(r) for r in results],
        "errors": {model: {"keys": keys, "errors": (frame.actuals - frame.model_column(model)).tolist()}
                   for model in frame.models},
    }
    _write_json(out_dir / "report.json", report)
    write_matrix_csv(out_dir / "matrix.csv", frame.unique_series(), results)
    _write_manifest(out_dir, "evaluate", [Path(args.series), Path(args.forecasts), Path(args.suite)],
                    {"suite": raw, "policy": suite.policy}, None)
    print(f"evaluate: {len(results)} measure results for {len(frame.models)} model(s) -> {out_dir}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    import numpy as np

    from .core import Forecaster
    from .io import read_series_csv, write_backtest_report, write_folds_csv
    from .partition import FoldRanges, LeakageError, SplitSpec, leakage_checks, splits_for_series

    benchmarks = args.benchmark or ["naive"]
    if repeated := [kind for i, kind in enumerate(benchmarks) if kind in benchmarks[:i]]:
        raise ValidationError(f"--benchmark {repeated[0]} given more than once")
    if args.seasonal_period is not None and "seasonal-naive" not in benchmarks:
        raise ValidationError("--seasonal-period is read only by the seasonal-naive benchmark; "
                              "add --benchmark seasonal-naive")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = read_series_csv(args.series)
    spec = SplitSpec.from_json(Path(args.split).read_text(encoding="utf-8"))
    forecasters = {kind: Forecaster(kind, args.seasonal_period) for kind in benchmarks}

    splits, n_folds = [], 0  # every series' folds, all checked before any is scored
    for sid, n in zip(dataset.ids(), dataset.lengths.tolist()):
        try:
            folds = splits_for_series(n, spec)
        except InsufficientHistoryError as exc:
            raise InsufficientHistoryError(f"series {sid!r}: {exc}") from None
        # numbered across all series, as in folds.csv
        for fold_id, report in enumerate(leakage_checks(folds, spec.scheme), start=n_folds + 1):
            if not report.passed:
                raise LeakageError(f"leakage detected in series {sid!r}, fold {fold_id}: "
                                   + "; ".join(report.violations))
        splits.append(folds)
        n_folds += len(folds)

    h = spec.horizon
    folds = FoldRanges(np.concatenate([f.starts for f in splits]), np.concatenate([f.origins for f in splits]), h)
    series = np.repeat(np.arange(len(dataset)), [len(f) for f in splits])  # each fold's series
    actual = dataset.values[(dataset.offsets[series] + folds.origins)[:, None] + np.arange(h)]
    scores = {}  # kind -> (MAE, RMSE) per fold
    for kind, forecaster in forecasters.items():
        e = actual - forecaster.forecast_windows(dataset, series, folds.origins, h)
        with np.errstate(over="ignore"):  # an error past the float range scores inf
            scores[kind] = np.abs(e).mean(axis=1), np.sqrt((e * e).mean(axis=1))

    write_folds_csv(out_dir / "folds.csv", folds)
    write_backtest_report(out_dir / "report.json", np.array(dataset.ids(), dtype=object)[series].tolist(),
                          folds, scores)
    _write_manifest(out_dir, "backtest", [Path(args.series), Path(args.split)],
                    {"split": json.loads(spec.to_json()), "benchmarks": benchmarks,
                     "seasonal_period": args.seasonal_period}, None)
    print(f"backtest: {len(folds)} folds over {len(dataset)} series -> {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .report import _collect_scores, _losses_by_key, _read_reports
    from .stats import CompareConfig, compare_models, render_cd_svg, render_cd_text

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _read_json(args.config) if args.config else {}
    settings = from_fields(CompareConfig, config, "compare config")
    reports = _read_reports(args.reports)
    losses = _losses_by_key(reports)
    scores, series = _collect_scores(reports, settings.measure)
    result = compare_models(scores, series, losses, settings)
    # every test has run: nothing is written for a compare that fails
    (out_dir / "cd.txt").write_text(render_cd_text(result.layout))
    (out_dir / "cd.svg").write_text(render_cd_svg(result.layout))
    with (out_dir / "ranks.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + list(result.table.models))
        writer.writerows([sid, *map(repr, row)] for sid, row in zip(series, result.table.ranks.tolist()))
        writer.writerow(["mean_rank"] + [repr(r) for r in result.table.mean_ranks.values()])
    _write_json(out_dir / "tests.json", result.tests)
    _write_manifest(out_dir, "compare", [Path(p) for p in args.reports], {"config": config}, None)
    print(f"compare: {len(scores)} models on {len(series)} series -> {out_dir}")
    return EXIT_OK


def cmd_advise(args) -> int:
    from .advisor import CharacteristicProfile, load_rule_table, recommend_measures, recommend_partitioning

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _read_json(args.profile)
    profile = from_fields(CharacteristicProfile, raw, "profile")
    recommendation = recommend_measures(profile, load_rule_table())
    if profile.series_lengths is not None:
        advice = recommend_partitioning(profile.series_lengths, model_class=profile.model_class or "unknown")
        recommendation = replace(recommendation, partitioning_advice=advice)
    _write_json(out_dir / "recommendation.json", recommendation.to_dict())
    text = recommendation.to_text()
    (out_dir / "recommendation.txt").write_text(text)
    print(text, end="")
    # the profile as read: identical profiles at two paths hash alike
    _write_manifest(out_dir, "advise", [Path(args.profile)], {"profile": raw}, None)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .core import Dataset
    from .io import write_series_csv
    from .synth import DgpSpec, generate

    out_path = Path(args.out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    spec = DgpSpec.from_json(Path(args.dgp).read_text(encoding="utf-8"))
    series = generate(spec)
    write_series_csv(out_path, Dataset((series,)))
    out_dir = out_path.parent
    _write_manifest(out_dir, "simulate", [Path(args.dgp)],
                    {"dgp": json.loads(spec.to_json())}, spec.seed)
    print(f"simulate: {len(series)} observations of {series.id!r} -> {out_path}")
    return EXIT_OK


def cmd_pitfalls(args) -> int:
    from .pitfalls import DEFAULT_SEED, list_scenarios, run_all, run_scenario

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise ValidationError(f"pitfalls: --seed must be >= 0, got {seed}")
    given = [f"scenario {args.name!r}"] * (args.name is not None) + ["--all"] * args.all + ["--list"] * args.list
    if not given:
        raise ValidationError("pitfalls: give a scenario name, --all or --list")
    if len(given) > 1:
        raise ValidationError(f"pitfalls: {given[0]} conflicts with {given[1]}; give one of them")
    if args.list:
        for scenario in list_scenarios():
            print(f"{scenario.name} [{scenario.topic}]: {scenario.description}")
        return EXIT_OK
    if args.all:
        results = run_all(seed=seed)
    else:
        results = [run_scenario(args.name, seed=seed)]
    payload = [
        {"name": r.name, "passed": r.passed, "evidence": r.evidence, "description": r.description}
        for r in results
    ]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "pitfalls.json", payload)
        with (out_dir / "evidence.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "passed", "key", "value"])
            for entry in payload:
                for key, value in entry["evidence"].items():
                    if isinstance(value, dict):
                        for sub, v in value.items():
                            writer.writerow([entry["name"], int(entry["passed"]),
                                             f"{key}.{sub}", v])
                    else:
                        writer.writerow([entry["name"], int(entry["passed"]), key, value])
        _write_manifest(out_dir, "pitfalls", [], {"seed": seed, "all": args.all,
                                                  "name": args.name}, seed)
    for entry in payload:
        print(f"[{'PASS' if entry['passed'] else 'FAIL'}] {entry['name']}")
    return EXIT_OK if all(e["passed"] for e in payload) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forevalkit",
        description="Forecast evaluation: measures, backtests, significance tests, "
                    "advice, simulation, and pitfall reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="compute a measure suite over series + forecasts")
    p.add_argument("series", help="series CSV (series_id,timestamp,value)")
    p.add_argument("forecasts", help="forecast CSV (series_id,origin,step,model,forecast)")
    p.add_argument("suite", help="measure suite JSON")
    p.add_argument("--out", default="evaluate-out", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("backtest", help="emit folds for a split spec and score benchmarks")
    p.add_argument("series")
    p.add_argument("split", help="split spec JSON")
    p.add_argument("--benchmark", action="append",
                   choices=["naive", "seasonal-naive", "mean"],
                   help="benchmark forecaster(s) to score per fold")
    p.add_argument("--seasonal-period", type=int, default=None)
    p.add_argument("--out", default="backtest-out")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("compare", help="significance tests over evaluation reports")
    p.add_argument("reports", nargs="+", help="report.json files from evaluate runs")
    p.add_argument("--config", default=None, help="test config JSON")
    p.add_argument("--out", default="compare-out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("advise", help="measure selection for a declared profile")
    p.add_argument("profile", help="characteristic profile JSON")
    p.add_argument("--out", default="advise-out")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("simulate", help="generate a synthetic series from a DGP spec")
    p.add_argument("dgp", help="DGP spec JSON")
    p.add_argument("out_csv", help="output series CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pitfalls", help="run evaluation-pitfall scenarios")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pitfalls)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the collector is left as it was."""
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, DataValidationError) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_enabled:
            gc.enable()


def run() -> None:
    """The process entry: ``main``, then ``gc.freeze()`` so that the collection at
    exit has nothing to traverse (see the module docstring), then exit with its code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
