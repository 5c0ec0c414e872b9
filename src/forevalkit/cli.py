"""Batch command-line surface for reproducible evaluation runs.

Subcommands: evaluate, backtest, compare, advise, simulate, pitfalls.
Every run writes a manifest (inputs, seed, config hash, version) next to
its outputs so identical manifests imply identical outputs.

``compare`` checks every report it reads before testing, and writes no
output until every test has run; a malformed report is a usage problem.
It reads each model's per-row errors into columns once and sorts the rows
of every report together once: that one sort finds a key repeated within a
model's errors and puts each model's squared errors in one row of a models
x keys array, NaN where the model has no error for a key. A Diebold-Mariano pair's common rows are then the
columns where neither row is NaN, with no per-pair join or sort.

Each command imports the modules it uses when it runs, each name from
the submodule that defines it, so an invocation runs only its own
command's modules (see the package docstring).

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
runs, since its passes over the command's many live objects (the decoded
reports, for ``compare``) find almost nothing to free, and turns it back
on before it returns: ``main`` leaves no process-wide change behind, so
tests and other in-process callers can call it repeatedly.

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
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

# The one-thread pin must come before numpy's first import, which ``from .core
# import`` would also make. It stays set, so scipy's own OpenBLAS, loaded at
# compare's first p-value, starts one thread too.
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .core import (DataValidationError, Dataset, Forecaster, InsufficientHistoryError, ValidationError,
                   _key_index, benchmark_frame, check_type, from_fields, json_object, reject_unknown)

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
    from .io import build_frame, read_forecast_csv, read_series_csv, write_matrix_csv
    from .measures.engine import evaluate
    from .measures.registry import UndefinedPolicy, spec_for

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = read_series_csv(args.series)
    frame = build_frame(dataset, read_forecast_csv(args.forecasts))
    suite = _read_json(args.suite)
    reject_unknown(suite, ("measures", "policy", "benchmark", "seasonal_period"), "suite config")
    policy = UndefinedPolicy.parse(suite.get("policy", "propagate"))

    measures = suite.get("measures")
    if not measures or not isinstance(measures, list):
        raise ValidationError("suite config needs a non-empty 'measures' list")
    measures = [{"name": m} if isinstance(m, str) else m for m in measures]
    for entry in measures:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValidationError(
                f"suite measures entry {entry!r} is neither a name nor an object with 'name'")
        reject_unknown(entry, ("name", "constants", "series_summary"),
                       f"suite measures entry {entry['name']!r}")

    bench_kind, period = suite.get("benchmark"), suite.get("seasonal_period")
    check_type("seasonal period", period, int | None)
    if period is not None and bench_kind != "seasonal-naive":
        raise ValidationError("suite config 'seasonal_period' is read only by the seasonal-naive benchmark; "
                              "MASE's seasonal period is the measure's constants.seasonal_period")
    bench_frame = None if bench_kind is None else benchmark_frame(dataset, frame, kind=bench_kind,
                                                                  period=period)

    index = frame.series_index
    train = dataset.prefixes(index.labels, frame.origins[frame.key_order[index.starts[:-1]]])

    results = []
    errors_by_model: dict[str, dict] = {}
    keys = list(zip(frame.series_ids.tolist(), frame.origins.tolist(), frame.steps.tolist()))
    for model in frame.models:
        yhat = frame.model_column(model)
        e = frame.actuals - yhat
        errors_by_model[model] = {"keys": keys, "errors": e.tolist()}
        for entry in measures:
            name = entry["name"]
            if spec_for(name).needs_benchmark and bench_frame is None:
                raise ValidationError(
                    f"measure {name} needs a benchmark; set 'benchmark' in the suite config"
                )
            result = evaluate(
                name, frame, model=model, benchmark=bench_frame, train=train,
                policy=policy, constants=entry.get("constants"),
                series_summary=entry.get("series_summary"),
            )
            results.append(result)

    report = {
        "policy": policy,
        "models": frame.models,
        "results": [_result_dict(r) for r in results],
        "errors": errors_by_model,
    }
    _write_json(out_dir / "report.json", report)
    write_matrix_csv(out_dir / "matrix.csv", frame.unique_series(), results)
    _write_manifest(out_dir, "evaluate", [Path(args.series), Path(args.forecasts), Path(args.suite)],
                    {"suite": suite, "policy": policy}, None)
    print(f"evaluate: {len(results)} measure results for {len(frame.models)} model(s) -> {out_dir}")
    return EXIT_OK


def cmd_backtest(args) -> int:
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


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def _is_key(key) -> bool:
    """``[series_id, origin, step]``: a string and two integers that fit int64."""
    return (type(key) is list and len(key) == 3 and type(key[0]) is str
            and type(key[1]) is int and _INT64_MIN <= key[1] <= _INT64_MAX
            and type(key[2]) is int and _INT64_MIN <= key[2] <= _INT64_MAX)


def _is_finite_number(x) -> bool:
    """A JSON number (bools are not numbers) that converts to a finite float."""
    if type(x) is float:
        return math.isfinite(x)
    return type(x) is int and -sys.float_info.max <= x <= sys.float_info.max


def _error_columns(keys: list, errors: list):
    """Series ids, origins and steps (int64) and errors (float64) of a report's
    equal-length ``keys`` and ``errors``, each column checked at once: None when
    some row breaks ``_is_key`` or ``_is_finite_number``."""
    if not keys:
        return [], np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    if set(map(type, keys)) != {list} or set(map(len, keys)) != {3}:
        return None
    sids, origins, steps = zip(*keys)
    if (set(map(type, sids)) != {str} or set(map(type, origins)) | set(map(type, steps)) != {int}
            or not set(map(type, errors)) <= {int, float}):
        return None
    try:
        origins, steps = np.array(origins, dtype=np.int64), np.array(steps, dtype=np.int64)
        values = np.array(errors, dtype=float)
    except OverflowError:  # beyond int64, or an int beyond the float range
        return None
    # below the largest float is finite; at it, an int may have rounded down to it
    at_limit = np.flatnonzero(~(np.abs(values) < sys.float_info.max)).tolist()
    if not all(_is_finite_number(errors[i]) for i in at_limit):
        return None
    return list(sids), origins, steps, values


def _read_report(path) -> dict:
    """A compared report, checked: ``results`` is a list of entries with a string
    ``measure`` and ``model`` and a ``per_series`` object of numbers or nulls, and
    ``errors`` an object of entries whose ``keys`` and ``errors`` are lists of
    equal length, of ``[series_id, origin, step]`` keys and finite numbers. Each
    entry becomes ``(where, keys, series ids, origins, steps, errors)``, the last
    three as arrays. A malformed part is a ``ValidationError`` that names the
    path, the model and the entry or row; ``_losses_by_key`` finds repeated keys
    and errors whose square is not finite."""
    report = _read_json(path)
    results = report.get("results", [])
    if not isinstance(results, list):
        raise ValidationError(f"{path}: 'results' must be a list")
    for i, entry in enumerate(results):
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("measure", "model"))):
            raise ValidationError(f"{path}: results entry {i} needs a string 'measure' and 'model'")
        per_series = entry.get("per_series")
        if per_series is not None and not (
                isinstance(per_series, dict)
                and all(v is None or type(v) in (int, float) for v in per_series.values())):
            raise ValidationError(f"{path}: results entry {i} (model {entry['model']!r}): "
                                  "'per_series' must be an object of numbers or nulls")
    errors = report.setdefault("errors", {})
    if not isinstance(errors, dict):
        raise ValidationError(f"{path}: 'errors' must be an object")
    for model, entry in errors.items():
        where = f"{path}: errors of model {model!r}"
        entry = entry if isinstance(entry, dict) else {}
        keys, values = entry.get("keys"), entry.get("errors")
        if not (isinstance(keys, list) and isinstance(values, list) and len(keys) == len(values)):
            raise ValidationError(f"{where} needs 'keys' and 'errors' lists of equal length")
        columns = _error_columns(keys, values)
        if columns is None:  # name the first row that breaks the rules
            for what, rows, valid, want in (("key", keys, _is_key, "[series_id, origin, step]"),
                                            ("error", values, _is_finite_number, "a finite number")):
                if not all(map(valid, rows)):
                    i = next(i for i, row in enumerate(rows) if not valid(row))
                    raise ValidationError(f"{where}: {what} {i} is {rows[i]!r}, not {want}")
        errors[model] = (where, keys, *columns)
    return report


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


def _losses_by_key(reports: list[dict]) -> dict:
    """Each model's squared errors, from the last report that holds them, as its
    row of one models x keys array: column ``i`` holds key id ``i``, keys in
    ``(series_id, origin, step)`` order, and NaN where the model has no error for
    that key. Errors are finite, so NaN marks only an absent key, and a pair's
    common keys are where both rows are not NaN, in key order.

    One sort covers the error rows of every (report, model) entry, with series
    ids coded in sorted order, so ids increase along the key order and equal keys
    share one across entries. The sort keeps read order among equal keys, so a
    key repeated within an entry shows as adjacent rows of that entry with one
    id; the first such entry in read order is reported, at its first row that
    repeats an earlier key."""
    entries = [(model, *rows) for report in reports for model, rows in report["errors"].items()]
    if not entries:
        return {}
    models, wheres, keys, sids, origins, steps, errors = zip(*entries)
    sizes = list(map(len, sids))
    sids = [sid for part in sids for sid in part]
    labels = sorted(set(sids))
    codes = np.fromiter(map(dict(zip(labels, range(len(labels)))).__getitem__, sids),
                        dtype=np.int64, count=len(sids))
    key_order, key_id, _ = _key_index(codes, np.concatenate(origins), np.concatenate(steps))
    owner = np.repeat(np.arange(len(entries)), sizes)[key_order]
    repeated = (key_id[1:] == key_id[:-1]) & (owner[1:] == owner[:-1])
    if repeated.any():
        j = int(owner[1:][repeated].min())
        i = int(key_order[1:][repeated & (owner[1:] == j)].min()) - sum(sizes[:j])
        raise ValidationError(f"{wheres[j]}: key {i} {keys[j][i]!r} repeats an earlier key")
    with np.errstate(over="ignore"):  # a square past the float range is reported here
        squares = np.concatenate(errors) ** 2
    if not np.isfinite(squares).all():
        at = int(np.argmin(np.isfinite(squares)))
        j = int(np.searchsorted(np.cumsum(sizes), at, side="right"))
        i = at - sum(sizes[:j])
        raise ValidationError(f"{wheres[j]}: error {i} is {float(errors[j][i])!r}, whose square is not finite")
    losses = squares[key_order]
    last = {model: j for j, model in enumerate(models)}
    matrix = np.full((len(last), key_id[-1] + 1 if key_id.size else 0), np.nan)
    for row, j in zip(matrix, last.values()):
        mine = owner == j
        row[key_id[mine]] = losses[mine]
    return dict(zip(last, matrix))


def cmd_compare(args) -> int:
    from .measures.ranking import rank_models
    from .measures.registry import spec_for
    from .stats import (cd_diagram_data, diebold_mariano, friedman, nemenyi_cd, p_adjust,
                        render_cd_svg, render_cd_text, wilcoxon_rank_sum)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _read_json(args.config) if args.config else {}
    reject_unknown(config, ("measure", "alpha", "horizon", "adjust", "pairwise"), "compare config")
    measure = config.get("measure", "RMSE")
    alpha = config.get("alpha", 0.05)
    horizon = config.get("horizon", 1)
    adjust = config.get("adjust", "holm")
    pairwise_kind = config.get("pairwise", "wilcoxon")
    check_type("compare config 'alpha'", alpha, float)
    check_type("compare config 'horizon'", horizon, int)
    if pairwise_kind not in ("wilcoxon", "dm"):
        raise ValidationError(f"compare config 'pairwise' must be 'wilcoxon' or 'dm', got {pairwise_kind!r}")
    if pairwise_kind == "wilcoxon" and "horizon" in config:
        raise ValidationError("compare config 'horizon' is read only by the 'dm' pairwise test; "
                              "set 'pairwise' to 'dm'")
    alpha = float(alpha)

    reports = [_read_report(p) for p in args.reports]
    losses = _losses_by_key(reports)
    ascending = not spec_for(measure).higher_is_better
    scores, series = _collect_scores(reports, measure)
    table = rank_models(scores, ascending=ascending)

    fried = friedman(table, alpha=alpha)
    posthoc = nemenyi_cd(table, alpha=alpha, friedman_result=fried)
    layout = cd_diagram_data(posthoc)

    models = list(scores)
    if pairwise_kind == "dm" and any(m not in losses for m in models):
        raise ValidationError("pairwise DM needs per-row errors in the reports")
    raw_p = {}
    pair_details = {}
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            a, b = models[i], models[j]
            if pairwise_kind == "dm":
                la, lb = losses[a], losses[b]
                both = (la == la) & (lb == lb)
                if np.count_nonzero(both) < 4:
                    raise ValidationError("pairwise DM needs at least 4 aligned errors")
                res = diebold_mariano(la[both], lb[both], horizon=horizon, alpha=alpha)
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
    # every test has run: nothing is written for a compare that fails
    (out_dir / "cd.txt").write_text(render_cd_text(layout))
    (out_dir / "cd.svg").write_text(render_cd_svg(layout))
    with (out_dir / "ranks.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + list(table.models))
        for sid, row in zip(series, table.ranks):
            writer.writerow([sid] + [repr(float(r)) for r in row])
        writer.writerow(["mean_rank"] + [repr(table.mean_ranks[m]) for m in table.models])
    _write_json(out_dir / "tests.json", tests)
    _write_manifest(out_dir, "compare", [Path(p) for p in args.reports],
                    {"config": config}, None)
    print(f"compare: {len(models)} models on {len(series)} series -> {out_dir}")
    return EXIT_OK


def cmd_advise(args) -> int:
    from .advisor import (CharacteristicProfile, _check_model_class, load_rule_table, recommend_measures,
                          recommend_partitioning)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _read_json(args.profile)
    config = {"profile": dict(raw)}  # as read: identical profiles at two paths hash alike
    reject_unknown(raw, (*(f.name for f in fields(CharacteristicProfile)), "series_lengths", "model_class"),
                   "profile")
    lengths = raw.pop("series_lengths", None)
    check_type("profile series_lengths", lengths, float | tuple[float, ...] | None)
    if "model_class" in raw:
        _check_model_class(raw["model_class"])
        if lengths is None:
            raise ValidationError("profile 'model_class' is read only with 'series_lengths', for partitioning "
                                  "advice; add series_lengths")
    model_class = raw.pop("model_class", "unknown")
    profile = from_fields(CharacteristicProfile, raw, "profile")
    recommendation = recommend_measures(profile, load_rule_table())
    if lengths is not None:
        advice = recommend_partitioning(lengths, model_class=model_class)
        recommendation = replace(recommendation, partitioning_advice=advice)
    _write_json(out_dir / "recommendation.json", recommendation.to_dict())
    text = recommendation.to_text()
    (out_dir / "recommendation.txt").write_text(text)
    print(text, end="")
    _write_manifest(out_dir, "advise", [Path(args.profile)], config, None)
    return EXIT_OK


def cmd_simulate(args) -> int:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
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
