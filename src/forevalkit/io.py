"""CSV ingestion and export.

Series CSV (long form): columns ``series_id,timestamp,value``.
Forecast CSV: columns ``series_id,origin,step,model,forecast`` where
``origin`` is the 1-based position of the forecast origin within its series
and ``step`` is the 1-based horizon step, so the forecast targets position
origin + step. Both files are UTF-8 with a mandatory header row.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import DataValidationError, Dataset, EvaluationFrame, TimeSeries, ValidationError

__all__ = [
    "read_series_csv",
    "write_series_csv",
    "read_forecast_csv",
    "build_frame",
    "write_matrix_csv",
    "write_folds_csv",
]

_SERIES_HEADER = ["series_id", "timestamp", "value"]
_FORECAST_HEADER = ["series_id", "origin", "step", "model", "forecast"]


def _check_header(actual: list[str] | None, expected: list[str], path) -> None:
    if actual is None:
        raise ValidationError(f"{path}: empty file, expected header {','.join(expected)}")
    got = [c.strip() for c in actual]
    if got != expected:
        raise ValidationError(f"{path}: expected header {','.join(expected)}, got {','.join(got)}")


def read_series_csv(path, frequency: int | None = None) -> Dataset:
    """Read a long-form series CSV into a dataset.

    Rows may arrive in any order; within a series they are sorted by
    timestamp. Blank/missing values are rejected rather than imputed.
    """
    path = Path(path)
    rows: dict[str, list[tuple[int, float]]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _SERIES_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            sid, ts, value = (c.strip() for c in row)
            if not value:
                raise ValidationError(f"{path}:{lineno}: missing value (imputation is not supported)")
            try:
                rows.setdefault(sid, []).append((int(ts), float(value)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    series = []
    for sid, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        ts = np.array([p[0] for p in pairs], dtype=np.int64)
        series.append(TimeSeries(
            id=sid,
            values=np.array([p[1] for p in pairs]),
            timestamps=ts,
            frequency=frequency,
        ))
    return Dataset(tuple(series))


def write_series_csv(path, dataset: Dataset) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SERIES_HEADER)
        for s in dataset:
            for ts, v in zip(s.timestamps.tolist(), s.values.tolist()):
                writer.writerow([s.id, ts, repr(v)])


def read_forecast_csv(path):
    """Read forecast rows as a list of (series_id, origin, step, model, forecast)."""
    path = Path(path)
    out = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), _FORECAST_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise ValidationError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            sid, origin, step, model, fc = (c.strip() for c in row)
            try:
                out.append((sid, int(origin), int(step), model, float(fc)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise ValidationError(f"{path}: no data rows")
    return out


def build_frame(dataset: Dataset, forecast_rows) -> EvaluationFrame:
    """Join forecast rows against the dataset actuals into an evaluation frame.

    Every (series, origin, step) key must target an existing observation and
    carry a forecast for every model; violations are reported per row.
    """
    models = sorted({r[3] for r in forecast_rows})
    by_key: dict[tuple[str, int, int], dict[str, float]] = {}
    problems: list[str] = []
    for sid, origin, step, model, fc in forecast_rows:
        key = (sid, origin, step)
        slot = by_key.setdefault(key, {})
        if model in slot:
            problems.append(f"duplicate forecast for key {key} model {model!r}")
        slot[model] = fc

    sids, origins, steps, actuals = [], [], [], []
    cols: dict[str, list[float]] = {m: [] for m in models}
    for key in by_key:
        sid, origin, step = key
        slot = by_key[key]
        missing = [m for m in models if m not in slot]
        if missing:
            problems.append(f"key {key}: missing forecasts for models {missing}")
            continue
        try:
            series = dataset[sid]
        except KeyError:
            problems.append(f"key {key}: series {sid!r} not in the series file")
            continue
        target = origin + step
        if not 1 <= origin <= len(series) or target > len(series):
            problems.append(
                f"key {key}: target position {target} outside series {sid!r} (length {len(series)})"
            )
            continue
        sids.append(sid)
        origins.append(origin)
        steps.append(step)
        actuals.append(series.value_at(target))
        for m in models:
            cols[m].append(slot[m])
    if problems:
        raise DataValidationError("misaligned evaluation inputs:\n  " + "\n  ".join(problems))
    return EvaluationFrame(sids, origins, steps, actuals, {m: np.array(v) for m, v in cols.items()})


def write_matrix_csv(path, per_series: dict[str, dict[tuple[str, str], float]]) -> None:
    """Write the series x (measure, model) value matrix.

    ``per_series`` maps series_id -> {(measure, model): value}.
    """
    path = Path(path)
    columns = sorted({col for row in per_series.values() for col in row})
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + [f"{measure}:{model}" for measure, model in columns])
        for sid in per_series:
            row = per_series[sid]
            writer.writerow([sid] + [
                "" if col not in row or row[col] != row[col] else repr(row[col])
                for col in columns
            ])


def write_folds_csv(path, folds) -> None:
    """Export folds as rows of (fold_id, role, index), 1-based indices.

    The bytes are those ``csv.writer`` would write, ``\\r\\n`` line ends
    included. Each (fold, role) block is one ``str.join`` over index strings
    made once, written before the next fold is read, so the file is never
    held in memory.
    """
    path = Path(path)
    # text[i] == str(i) for 0 <= i < len(text). A block that misses grows it
    # by at most twice its own length plus one, so it stays within the
    # file's size. A dict, so that a negative index misses, not wraps round.
    text: dict[int, str] = {}
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("fold_id,role,index\r\n")
        for fold_id, fold in enumerate(folds, start=1):
            for role, indices in (("train", fold.train_indices), ("test", fold.test_indices)):
                values = indices.tolist()
                if not values:
                    continue
                head = f"{fold_id},{role},"
                try:
                    fields = list(map(text.__getitem__, values))
                except KeyError:
                    top = max(values)
                    if min(values) >= 0 and top - len(text) <= len(values):
                        text.update((i, str(i)) for i in range(len(text), top + len(values) + 1))
                    fields = list(map(str, values))
                fh.write(head + f"\r\n{head}".join(fields) + "\r\n")
