"""CSV ingestion and export.

Series CSV (long form): columns ``series_id,timestamp,value``.
Forecast CSV: columns ``series_id,origin,step,model,forecast`` where
``origin`` is the 1-based position of the forecast origin within its series
and ``step`` is the 1-based horizon step, so the forecast targets position
origin + step. Both files are UTF-8 with a mandatory header row.

The readers accept what ``csv.reader`` reads, with every cell stripped of
surrounding whitespace and blank rows skipped. They split the file a block
of rows at a time and convert it column by column. A file that a plain
split might read differently from ``csv.reader`` (quotes, a lone carriage
return, ...), or whose cells do not all convert, is read again row by row;
that loop decides what is accepted and names a bad row as ``path:line``.

The backtest writers stream: ``folds.csv`` and the backtest ``report.json``
are written as bytes, each run of rows and each report row as soon as it is
made, into a binary file behind one ``_BUFFER`` of 1 MiB. Neither makes a
string of a group of rows or of the whole document, nor encodes text.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DataValidationError, Dataset, EvaluationFrame, Groups, ValidationError, _key_index

__all__ = [
    "read_series_csv",
    "write_series_csv",
    "read_forecast_csv",
    "ForecastColumns",
    "build_frame",
    "write_matrix_csv",
    "write_folds_csv",
    "write_backtest_report",
]

_SERIES_HEADER = ["series_id", "timestamp", "value"]
_FORECAST_HEADER = ["series_id", "origin", "step", "model", "forecast"]


def _check_header(actual: list[str] | None, expected: list[str], path) -> None:
    if actual is None:
        raise ValidationError(f"{path}: empty file, expected header {','.join(expected)}")
    got = [c.strip() for c in actual]
    if got != expected:
        raise ValidationError(f"{path}: expected header {','.join(expected)}, got {','.join(got)}")


_BLOCK = 1 << 16  # bytes of rows split, or fold indices written, at once: bounds what is alive together


def _split(raw: bytes, header: list[str], parsers) -> list | None:
    """The data rows as columns, ``parsers[j]`` mapped over column j's cells a
    block of rows at a time: ``str.strip`` gives a list, ``int`` or ``float``
    an array (these strip what ``str.strip`` strips, or reject the cell).
    None where a plain split might not read the file as ``csv.reader`` does
    (quotes, a lone carriage return, NUL, a cell over ``csv``'s size limit,
    bytes that are not UTF-8), and for a wrong header, no data rows, a row of
    another width (blank ones too) or a cell that does not convert."""
    n = len(header)
    if not raw.endswith(b"\n"):
        raw += b"\n"
    start = raw.find(b"\n") + 1
    head = raw[:start - 1]
    if (b'"' in raw or b"\0" in raw or b"\r" in head[:-1] or start == len(raw)
            or [c.strip() for c in head.decode("utf-8", "replace").split(",")] != header):
        return None
    row = np.array([ord(",")] * (n - 1) + [ord("\n")], dtype=np.uint8)  # n - 1 commas, a line end
    columns = [[] for _ in parsers]
    stored = [{} if parse is str.strip else None for parse in parsers]  # each string once
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK) + 1 or len(raw)
        block = raw[start:stop]
        data = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))  # where each cell ends
        crs = np.flatnonzero(data == ord("\r"))
        if (ends.size % n or (data[ends].reshape(-1, n) != row).any() or (data[crs + 1] != ord("\n")).any()
                or (np.diff(ends, prepend=-1) - 1).max() > csv.field_size_limit()):
            return None
        try:
            # a "\r" of a "\r\n" stays at the end of a row's last cell, for the strip to drop
            cells = block.decode("utf-8").replace("\n", ",").split(",")
            for parse, column, known, j in zip(parsers, columns, stored, range(n)):
                if known is None:
                    column.append(np.fromiter(map(parse, cells[j:ends.size:n]),
                                              np.int64 if parse is int else float, ends.size // n))
                else:
                    values = list(map(parse, cells[j:ends.size:n]))
                    column.extend(map(known.setdefault, values, values))
        except (ValueError, OverflowError):  # OverflowError: an int beyond int64
            return None
        start = stop
    return [column if known is not None else np.concatenate(column) for column, known in zip(columns, stored)]


def _read_rows(path: Path, header: list[str], parse_row) -> list[list]:
    """The data rows, read one at a time by ``csv.reader`` and converted by
    ``parse_row``, as columns. A row that breaks the format is named."""
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), header, path)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                rows.append(parse_row(*(c.strip() for c in row)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return [list(col) for col in zip(*rows)]


def _read_columns(path: Path, header: list[str], parsers, parse_row) -> list:
    """The data rows as columns. ``parsers`` convert the cells column by column
    and accept what ``parse_row`` accepts of a stripped row; when the split or a
    conversion fails, the row-by-row loop reads the file again, once."""
    return _split(path.read_bytes(), header, parsers) or _read_rows(path, header, parse_row)


def _series_row(sid: str, timestamp: str, value: str):
    if not value:
        raise ValueError("missing value (imputation is not supported)")
    ts = int(timestamp)
    if not -2 ** 63 <= ts < 2 ** 63:
        raise ValueError(f"timestamp {ts} does not fit a 64-bit integer")
    return sid, ts, float(value)


def read_series_csv(path) -> Dataset:
    """Read a long-form series CSV into a dataset.

    Rows may arrive in any order. One stable sort on (series, timestamp)
    groups them: series in order of first appearance, each sorted by
    timestamp. The sorted columns are the dataset's arrays, so no per-series
    object is made. Blank/missing values are rejected rather than imputed.
    """
    path = Path(path)
    sids, timestamps, values = _read_columns(path, _SERIES_HEADER, (str.strip, int, float), _series_row)
    index = Groups.of(sids)
    timestamps, values = np.asarray(timestamps, dtype=np.int64), np.asarray(values, dtype=float)
    order = np.lexsort((timestamps, index.codes))
    return Dataset.from_arrays(index.labels, values[order], timestamps[order], index.starts)


def write_series_csv(path, dataset: Dataset) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SERIES_HEADER)
        writer.writerows(zip(np.repeat(np.array(dataset.ids(), dtype=object), dataset.lengths).tolist(),
                             dataset.timestamps.tolist(), map(repr, dataset.values.tolist())))


@dataclass(frozen=True)
class ForecastColumns:
    """The data rows of a forecast CSV as columns, in file order: row i is the
    forecast ``forecasts[i]`` of model ``models[i]`` for the key
    ``(series_ids[i], origins[i], steps[i])``. ``origins`` and ``steps`` are
    int64, or Python ints (object) when one does not fit int64."""

    series_ids: list
    origins: np.ndarray
    steps: np.ndarray
    models: list
    forecasts: np.ndarray

    def __len__(self) -> int:
        return len(self.series_ids)


def _int_column(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _forecast_row(sid: str, origin: str, step: str, model: str, forecast: str):
    return sid, int(origin), int(step), model, float(forecast)


def read_forecast_csv(path) -> ForecastColumns:
    """Read the forecast rows as columns."""
    path = Path(path)
    sids, origins, steps, models, forecasts = _read_columns(
        path, _FORECAST_HEADER, (str.strip, int, int, str.strip, float), _forecast_row)
    return ForecastColumns(sids, _int_column(origins), _int_column(steps), models,
                           np.asarray(forecasts, dtype=float))


def build_frame(dataset: Dataset, rows: ForecastColumns) -> EvaluationFrame:
    """Join forecast rows against the dataset actuals into an evaluation frame.

    Every (series, origin, step) key must target an existing observation and
    carry a forecast for every model; violations are reported per row. The
    frame holds the keys in order of first appearance. One sort of the rows
    by (key, model) finds each key's rows, its models and repeated forecasts.
    """
    models = sorted(set(rows.models))
    position = dict(zip(models, range(len(models))))
    model_codes = np.fromiter(map(position.__getitem__, rows.models), np.int64, len(rows))
    series = Groups.of(rows.series_ids)
    origins, steps = rows.origins, rows.steps
    # an origin or step beyond int64 targets no position; its rank keeps it distinct
    ranked = [x if x.dtype != object else np.unique(x, return_inverse=True)[1] for x in (origins, steps)]
    by_model = np.argsort(model_codes, kind="stable")
    key_order, key_ids, _ = _key_index(*(x[by_model] for x in (series.codes, *ranked)))
    order = by_model[key_order]  # rows by key, then model, then file position
    sorted_models = model_codes[order]
    repeated = order[1:][(key_ids[1:] == key_ids[:-1]) & (sorted_models[1:] == sorted_models[:-1])]

    present = np.zeros((len(models), key_ids[-1] + 1), dtype=bool)
    present[sorted_models, key_ids] = True
    table = np.empty(present.shape)
    table[sorted_models, key_ids] = rows.forecasts[order]
    firsts = np.minimum.reduceat(order, np.flatnonzero(np.diff(key_ids, prepend=-1)))
    appearance = np.argsort(firsts)
    first, present, table = firsts[appearance], present[:, appearance], table[:, appearance]

    position = dataset.locate(series.labels)
    # length 0: not in the series file (a series holds at least one value)
    lengths = np.where(position < 0, 0, dataset.lengths[position])
    codes, origins, steps = series.codes[first], origins[first], steps[first]
    length = lengths[codes]
    missing = ~present.all(axis=0)
    unknown = length == 0
    inside = ~missing & ~unknown & (origins >= 1) & (origins <= length)
    # each target origin + step is compared, not formed: int64 could wrap
    at = np.flatnonzero(inside)
    past_end = steps[at] > length[at] - origins[at]
    inside[at[past_end]] = False
    at = at[~past_end]
    before_start = at[steps[at] < 1 - origins[at]]

    def key(r):
        return rows.series_ids[r], int(rows.origins[r]), int(rows.steps[r])

    if before_start.size:
        j = before_start[0]
        raise ValidationError(f"position {int(origins[j]) + int(steps[j])} outside series "
                              f"{series.labels[codes[j]]!r} (length {length[j]})")
    problems = [f"duplicate forecast for key {key(r)} model {rows.models[r]!r}"
                for r in np.sort(repeated).tolist()]
    for j in np.flatnonzero(~inside).tolist():
        k, sid = key(first[j]), series.labels[codes[j]]
        if missing[j]:
            problems.append(f"key {k}: missing forecasts for models "
                            f"{[m for m, p in zip(models, present[:, j]) if not p]}")
        elif unknown[j]:
            problems.append(f"key {k}: series {sid!r} not in the series file")
        else:
            problems.append(f"key {k}: target position {k[1] + k[2]} outside series {sid!r} "
                            f"(length {length[j]})")
    if problems:
        raise DataValidationError("misaligned evaluation inputs:\n  " + "\n  ".join(problems))
    origins, steps = origins.astype(np.int64), steps.astype(np.int64)  # object beside an int beyond int64
    return EvaluationFrame(np.array(series.labels, dtype=object)[codes], origins, steps,
                           dataset.values[dataset.offsets[position][codes] + origins + steps - 1],
                           dict(zip(models, table)))


def write_matrix_csv(path, series_ids: list, results) -> None:
    """Write the series x (measure, model) matrix of the results' per-series values.

    Columns are sorted by (measure, model); a later result for the same pair
    replaces an earlier one. An undefined value is an empty cell.
    """
    path = Path(path)
    columns = {(r.name, r.model): r.per_series for r in results}
    keys = sorted(columns)
    cells = [["" if v != v else repr(v) for v in map(columns[k].__getitem__, series_ids)] for k in keys]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + [f"{measure}:{model}" for measure, model in keys])
        writer.writerows(zip(series_ids, *cells))


_ROLES = (b"train", b"test")
_BUFFER = 1 << 20  # bytes an output file holds before it writes them out: what a bytes writer keeps alive


def _write_runs(fh, folds: np.ndarray, roles: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> None:
    """Write the rows ``b"%d,%s,%d\\r\\n" % (fold + 1, role, i)`` for i in first..last of each
    run, in order, to the binary file ``fh``; ``roles`` index ``_ROLES``, and an empty
    run writes nothing. Runs are cut to ``_BLOCK`` indices and grouped about ``_BLOCK``
    indices at a time. Within each group, a run is one slice of the lines
    ``b"\\x1f%d\\r\\n" % i`` over at most twice the group's index count, its marks
    replaced by the run's head, written as soon as it is made; a run beyond them
    (negative, huge or sparse indices) is written index by index."""
    sizes = lasts - firsts + 1
    keep = np.flatnonzero(sizes > 0)
    pieces = (sizes[keep] + _BLOCK - 1) // _BLOCK
    run = np.repeat(keep, pieces)
    piece = np.arange(run.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    firsts = firsts[run] + piece * _BLOCK
    lasts = firsts + np.minimum(lasts[run] - firsts, _BLOCK - 1)
    fold_ids, roles = folds[run] + 1, roles[run]
    ends = np.cumsum(lasts - firsts + 1)
    groups = np.searchsorted(ends, np.arange(_BLOCK, int(ends[-1]) if ends.size else 0, _BLOCK), "right")
    for a, z in zip([0, *groups.tolist()], [*groups.tolist(), run.size]):
        if a == z:
            continue
        lo, count = int(firsts[a:z].min()), int(ends[z - 1] - (ends[a - 1] if a else 0))
        lines = [f"\x1f{i}\r\n" for i in range(lo, min(int(lasts[a:z].max()), lo + 2 * count) + 1)]
        offsets, text = np.cumsum([0, *map(len, lines)]).tolist(), "".join(lines).encode("ascii")
        for fold_id, role, first, last in zip(fold_ids[a:z].tolist(), roles[a:z].tolist(),
                                              firsts[a:z].tolist(), lasts[a:z].tolist()):
            head = b"%d,%s," % (fold_id, _ROLES[role])
            if last - lo < len(lines):
                fh.write(text[offsets[first - lo]:offsets[last - lo + 1]].replace(b"\x1f", head))
            else:
                fh.writelines(b"%s%d\r\n" % (head, i) for i in range(first, last + 1))


def write_folds_csv(path, folds) -> None:
    """Export folds as rows of (fold_id, role, index), 1-based indices.

    The bytes are those ``csv.writer`` would write, ``\\r\\n`` line ends
    included. Rows are written from the folds' (fold, role, first, last) runs
    of consecutive indices, each run's bytes as soon as they are made, into a
    binary file that holds ``_BUFFER`` bytes before writing them out. Beyond
    the folds themselves, memory holds the runs, a few int64 arrays over them,
    that buffer, one run's rows, and the lines of one group of about
    ``_BLOCK`` indices that the runs are cut from: a temporal split's
    ``FoldRanges`` is two runs per fold and makes no ``Fold``; other folds'
    indices are read once, in one concatenation, for their runs, of at most
    one per index.
    """
    from .partition import _fold_runs

    with Path(path).open("wb", buffering=_BUFFER) as fh:
        fh.write(b"fold_id,role,index\r\n")
        _write_runs(fh, *_fold_runs(folds))


def write_backtest_report(path, series_ids: list, folds, scores: dict) -> None:
    """Write a backtest's report: ``{"folds": [...]}`` with one entry per fold of
    ``folds`` (a ``FoldRanges``), of its series id ``series_ids[j]``, its number
    j + 1, origin, train and test sizes, and its MAE and RMSE under each
    benchmark of ``scores`` (kind -> two arrays over the folds).

    The bytes are ``json.dumps`` of those entries as dicts, a line end after.
    Each entry is one row of a bytes template, with no dict made, written as
    soon as it is made into a binary file that holds ``_BUFFER`` bytes before
    writing them out; no string of the whole report is made. Beyond that
    buffer, memory holds the columns: ``json`` writes each distinct id once,
    and each score column in one call, non-finite scores as ``Infinity`` and
    ``NaN``.
    """
    quoted = {sid: json.dumps(sid).encode("ascii") for sid in dict.fromkeys(series_ids)}
    models = b", ".join(json.dumps(kind).encode("ascii").replace(b"%", b"%%") + b': {"MAE": %s, "RMSE": %s}'
                        for kind in scores)
    row = (b'{"series": %s, "fold": %d, "origin": %d, "train_size": %d, "test_size": '
           + b"%d" % folds.horizon + b', "models": {' + models + b"}}")
    columns = [map(quoted.__getitem__, series_ids), range(1, len(folds) + 1), folds.origins.tolist(),
               (folds.origins - folds.starts + 1).tolist(),
               *(json.dumps(column.tolist())[1:-1].encode("ascii").split(b", ")
                 for pair in scores.values() for column in pair)]
    rows = map(row.__mod__, zip(*columns))
    with Path(path).open("wb", buffering=_BUFFER) as fh:
        fh.write(b'{"folds": [' + next(rows, b""))
        fh.writelines(map(b", ".__add__, rows))
        fh.write(b"]}\n")
