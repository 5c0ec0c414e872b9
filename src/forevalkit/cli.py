"""Batch command-line surface for reproducible evaluation runs.

Subcommands: evaluate, backtest, compare, advise, simulate, pitfalls.
Every run writes a manifest (inputs, seed, config hash, version) next to
its outputs so identical manifests imply identical outputs.

Exit codes: 0 success, 2 usage/config problems (including unreadable
input files), 3 leakage or data validation failures (``LeakageError`` and
the other ``DataValidationError``s).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .advisor import CharacteristicProfile, load_rule_table, recommend_measures, recommend_partitioning
from .core import DataValidationError, Forecaster, ValidationError, benchmark_frame
from .io import (
    build_frame,
    read_forecast_csv,
    read_series_csv,
    write_folds_csv,
    write_matrix_csv,
    write_series_csv,
)
from .measures import UndefinedPolicy, evaluate, rank_models, spec_for
from .partition import LeakageError, SplitSpec, leakage_checks, splits_for_series
from .pitfalls import DEFAULT_SEED, list_scenarios, run_all, run_scenario
from .stats import (
    cd_diagram_data,
    diebold_mariano,
    friedman,
    nemenyi_cd,
    p_adjust,
    render_cd_svg,
    render_cd_text,
    wilcoxon_rank_sum,
)
from .synth import DgpSpec, generate

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
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _default_seed(args_seed) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("FOREVALKIT_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"FOREVALKIT_SEED must be an integer, got {env!r}") from None


def _result_dict(r) -> dict:
    return {
        "measure": r.name,
        "model": r.model,
        "value": None if r.value != r.value else r.value,
        "n_used": r.n_used,
        "n_undefined": r.n_undefined,
        "flags": list(r.flags),
        "per_series": (
            None if r.per_series is None
            else {sid: (None if v != v else v) for sid, v in r.per_series.items()}
        ),
    }


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = read_series_csv(args.series)
    frame = build_frame(dataset, read_forecast_csv(args.forecasts))
    suite = _load_json(Path(args.suite))
    policy = UndefinedPolicy.parse(args.policy or suite.get("policy", "propagate"))

    measures = suite.get("measures")
    if not measures:
        raise ValidationError("suite config needs a non-empty 'measures' list")

    keys = list(zip(frame.series_ids.tolist(), frame.origins.tolist(), frame.steps.tolist()))
    bench_frame = None
    bench_kind = suite.get("benchmark")
    if bench_kind:
        bench_frame = benchmark_frame(dataset, keys, kind=bench_kind,
                                      period=suite.get("seasonal_period"))

    train = None
    if suite.get("train_from_series", True):
        index = frame.series_index
        first_origins = frame.origins[frame.key_order[index.starts[:-1]]]
        train = {sid: dataset[sid].prefix(origin)
                 for sid, origin in zip(index.series, first_origins.tolist())}

    results = []
    per_series_matrix: dict[str, dict] = {sid: {} for sid in frame.unique_series()}
    errors_by_model: dict[str, dict] = {}
    for model in frame.models:
        yhat = frame.model_column(model)
        e = frame.actuals - yhat
        errors_by_model[model] = {"keys": keys, "errors": e.tolist()}
        for entry in measures:
            name = entry if isinstance(entry, str) else entry.get("name")
            constants = None if isinstance(entry, str) else entry.get("constants")
            series_summary = "mean" if isinstance(entry, str) else entry.get("series_summary", "mean")
            if spec_for(name).needs_benchmark and bench_frame is None:
                raise ValidationError(
                    f"measure {name} needs a benchmark; set 'benchmark' in the suite config"
                )
            result = evaluate(
                name, frame, model=model, benchmark=bench_frame, train=train,
                policy=policy, constants=constants, breakdown=True,
                series_summary=series_summary,
            )
            results.append(result)
            if result.per_series:
                for sid, v in result.per_series.items():
                    per_series_matrix[sid][(name, model)] = v

    report = {
        "policy": policy,
        "models": frame.models,
        "results": [_result_dict(r) for r in results],
        "errors": errors_by_model,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    write_matrix_csv(out_dir / "matrix.csv", per_series_matrix)
    _write_manifest(out_dir, "evaluate", [Path(args.series), Path(args.forecasts), Path(args.suite)],
                    {"suite": suite, "policy": policy}, None)
    print(f"evaluate: {len(results)} measure results for {len(frame.models)} model(s) -> {out_dir}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = read_series_csv(args.series)
    spec = SplitSpec.from_json(Path(args.split).read_text(encoding="utf-8"))
    benchmarks = args.benchmark or ["naive"]
    forecasters = {kind: Forecaster(kind, args.seasonal_period) for kind in benchmarks}

    all_folds = []
    fold_reports = []
    for series in dataset:
        folds = splits_for_series(len(series), spec)
        # numbered across all series, as in folds.csv
        fold_ids = range(len(all_folds) + 1, len(all_folds) + len(folds) + 1)
        for fold_id, report in zip(fold_ids, leakage_checks(folds, spec.scheme)):
            if not report.passed:
                raise LeakageError(f"leakage detected in series {series.id!r}, fold {fold_id}: "
                                   + "; ".join(report.violations))
        origins = [fold.origin for fold in folds]
        actual = series.values[np.stack([fold.test_indices for fold in folds]) - 1]
        scores = {}  # kind -> (MAE per fold, RMSE per fold)
        for kind, forecaster in forecasters.items():
            e = actual - forecaster.forecast_origins(series, origins, actual.shape[1])
            scores[kind] = (np.abs(e).mean(axis=1).tolist(), np.sqrt((e * e).mean(axis=1)).tolist())
        for i, (fold_id, fold) in enumerate(zip(fold_ids, folds)):
            fold_reports.append({
                "series": series.id, "fold": fold_id, "origin": fold.origin,
                "train_size": fold.train_size, "test_size": fold.test_size,
                "models": {kind: {"MAE": mae[i], "RMSE": rmse[i]}
                           for kind, (mae, rmse) in scores.items()},
            })
        all_folds.extend(folds)

    write_folds_csv(out_dir / "folds.csv", all_folds)
    (out_dir / "report.json").write_text(json.dumps({"folds": fold_reports}, indent=2) + "\n")
    _write_manifest(out_dir, "backtest", [Path(args.series), Path(args.split)],
                    {"split": json.loads(spec.to_json()), "benchmarks": benchmarks}, None)
    print(f"backtest: {len(all_folds)} folds over {len(dataset)} series -> {out_dir}")
    return EXIT_OK


def _collect_scores(reports: list[dict], measure: str):
    """Per-model per-series score vectors for one measure, aligned on series."""
    per_model: dict[str, dict] = {}
    for report in reports:
        for entry in report.get("results", []):
            if entry["measure"] != measure or not entry.get("per_series"):
                continue
            per_model.setdefault(entry["model"], {}).update(entry["per_series"])
    if len(per_model) < 2:
        raise ValidationError(f"need per-series {measure} values for at least 2 models")
    common = None
    for scores in per_model.values():
        keys = {sid for sid, v in scores.items() if v is not None}
        common = keys if common is None else (common & keys)
    if not common:
        raise ValidationError("no common series with defined scores across models")
    series = sorted(common)
    return {m: [per_model[m][sid] for sid in series] for m in per_model}, series


def cmd_compare(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_json(Path(args.config)) if args.config else {}
    measure = config.get("measure", "RMSE")
    alpha = float(config.get("alpha", 0.05))
    adjust = config.get("adjust", "holm")
    pairwise_kind = config.get("pairwise", "wilcoxon")

    reports = [_load_json(Path(p)) for p in args.reports]
    scores, series = _collect_scores(reports, measure)
    if len(scores) < 2:
        raise ValidationError("comparison needs at least 2 models")
    ascending = not spec_for(measure).higher_is_better
    table = rank_models(scores, ascending=ascending)

    fried = friedman(table, alpha=alpha)
    posthoc = nemenyi_cd(table, alpha=alpha, friedman_result=fried)
    layout = cd_diagram_data(posthoc)
    (out_dir / "cd.txt").write_text(render_cd_text(layout))
    (out_dir / "cd.svg").write_text(render_cd_svg(layout))

    with (out_dir / "ranks.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + list(table.models))
        for sid, row in zip(series, table.ranks):
            writer.writerow([sid] + [repr(float(r)) for r in row])
        writer.writerow(["mean_rank"] + [repr(table.mean_ranks[m]) for m in table.models])

    losses = {}
    for report in reports:
        for model, entry in report.get("errors", {}).items():
            losses[model] = {tuple(k): e for k, e in zip(entry["keys"], entry["errors"])}
    models = list(scores)
    raw_p = {}
    pair_details = {}
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            a, b = models[i], models[j]
            if pairwise_kind == "dm":
                if a not in losses or b not in losses:
                    raise ValidationError("pairwise DM needs per-row errors in the reports")
                keys = sorted(set(losses[a]) & set(losses[b]))
                if len(keys) < 4:
                    raise ValidationError("pairwise DM needs at least 4 aligned errors")
                la = np.array([losses[a][k] for k in keys]) ** 2
                lb = np.array([losses[b][k] for k in keys]) ** 2
                res = diebold_mariano(la, lb, horizon=int(config.get("horizon", 1)), alpha=alpha)
            else:
                res = wilcoxon_rank_sum(scores[a], scores[b], alpha=alpha)
            raw_p[(a, b)] = 1.0 if res.p_value != res.p_value else res.p_value
            pair_details[f"{a} vs {b}"] = {"test": res.name, "statistic": res.statistic,
                                           "p_value": res.p_value}
    adjusted = p_adjust(raw_p, method=adjust, alpha=alpha)

    tests = {
        "measure": measure,
        "alpha": alpha,
        "n_series": len(series),
        "friedman": {"statistic": fried.statistic, "p_value": fried.p_value,
                     "reject": fried.reject},
        "mean_ranks": posthoc.mean_ranks,
        "critical_distance": posthoc.critical_distance,
        "nemenyi_significant_pairs": {f"{a} vs {b}": sig
                                      for (a, b), sig in posthoc.pairwise.items()},
        "groups": [sorted(g) for g in posthoc.groups],
        "pairwise": pair_details,
        "adjusted_p": {f"{a} vs {b}": p for (a, b), p in adjusted.pairwise.items()},
        "adjust_method": adjust,
    }
    (out_dir / "tests.json").write_text(json.dumps(tests, indent=2) + "\n")
    _write_manifest(out_dir, "compare", [Path(p) for p in args.reports],
                    {"config": config}, None)
    print(f"compare: {len(models)} models on {len(series)} series -> {out_dir}")
    return EXIT_OK


def cmd_advise(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_json(Path(args.profile))
    if not isinstance(raw, dict):
        raise ValidationError("profile JSON must be an object")
    lengths = raw.pop("series_lengths", None)
    model_class = raw.pop("model_class", "unknown")
    profile = CharacteristicProfile.from_json(json.dumps(raw))
    table = load_rule_table()
    recommendation = recommend_measures(profile, table)
    if lengths:
        advice = recommend_partitioning(lengths, model_class=model_class)
        recommendation = type(recommendation)(
            recommended=recommendation.recommended,
            cautioned=recommendation.cautioned,
            contraindicated=recommendation.contraindicated,
            partitioning_advice=advice,
        )
    (out_dir / "recommendation.json").write_text(
        json.dumps(recommendation.to_dict(), indent=2) + "\n")
    text = recommendation.to_text()
    (out_dir / "recommendation.txt").write_text(text)
    print(text, end="")
    _write_manifest(out_dir, "advise", [Path(args.profile)], {"profile": str(args.profile)}, None)
    return EXIT_OK


def cmd_simulate(args) -> int:
    out_path = Path(args.out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    spec = DgpSpec.from_json(Path(args.dgp).read_text(encoding="utf-8"))
    series = generate(spec)
    from .core import Dataset

    write_series_csv(out_path, Dataset((series,)))
    out_dir = out_path.parent
    _write_manifest(out_dir, "simulate", [Path(args.dgp)],
                    {"dgp": json.loads(spec.to_json())}, spec.seed)
    print(f"simulate: {len(series)} observations of {series.id!r} -> {out_path}")
    return EXIT_OK


def cmd_pitfalls(args) -> int:
    seed = _default_seed(args.seed)
    if args.list:
        for scenario in list_scenarios():
            print(f"{scenario.name} [{scenario.topic}]: {scenario.description}")
        return EXIT_OK
    if args.all:
        results = run_all(seed=seed)
    elif args.name:
        results = [run_scenario(args.name, seed=seed)]
    else:
        print("pitfalls: give a scenario name, --all or --list", file=sys.stderr)
        return EXIT_USAGE
    payload = [
        {"name": r.name, "passed": r.passed, "evidence": r.evidence, "description": r.description}
        for r in results
    ]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "pitfalls.json").write_text(json.dumps(payload, indent=2) + "\n")
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
    p.add_argument("--policy", choices=["propagate", "skip", "error"], default=None,
                   help="undefined-value policy override")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, DataValidationError) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
