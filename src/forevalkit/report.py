"""The reports ``compare`` reads, checked, as per-row losses; a malformed report
is a usage problem. ``evaluate`` writes one key list per model, the same for
every model of a frame: an entry whose keys equal a list already read, element
for element and in JSON type (``3.0`` and ``true`` are not ``3`` and ``1``),
shares its checked columns, and one sort of the distinct lists' rows finds
repeated keys and puts each model's squared errors in one row of a models x
keys array, NaN where it has no error for a key. A Diebold-Mariano pair's
common rows are the columns where neither row is NaN: no per-pair join or sort.
"""

import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ValidationError, _key_index, json_object

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def _is_key(key) -> bool:
    """``[series_id, origin, step]``: a string and two integers that fit int64."""
    return (type(key) is list and len(key) == 3 and type(key[0]) is str
            and type(key[1]) is int and _INT64_MIN <= key[1] <= _INT64_MAX
            and type(key[2]) is int and _INT64_MIN <= key[2] <= _INT64_MAX)


def _is_finite_number(x) -> bool:
    """A JSON number (bools are not numbers) that converts to a finite float."""
    return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max  # NaN compares false


def _key_columns(keys: list):
    """Series ids, origins and steps (int64) of ``keys``, checked at once: None if one breaks ``_is_key``."""
    if not keys:
        return [], np.empty(0, np.int64), np.empty(0, np.int64)
    if set(map(type, keys)) != {list} or set(map(len, keys)) != {3}:
        return None
    sids, origins, steps = zip(*keys)
    if set(map(type, sids)) != {str} or set(map(type, origins)) | set(map(type, steps)) != {int}:
        return None
    try:
        return list(sids), np.array(origins, dtype=np.int64), np.array(steps, dtype=np.int64)
    except OverflowError:  # beyond int64
        return None


def _error_column(errors: list):
    """``errors`` as float64, checked at once: None if one breaks ``_is_finite_number``."""
    if not set(map(type, errors)) <= {int, float}:
        return None
    try:
        values = np.array(errors, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    # below the largest float is finite; at it, an int may have rounded down to it
    at_limit = np.flatnonzero(~(np.abs(values) < sys.float_info.max)).tolist()
    return values if all(_is_finite_number(errors[i]) for i in at_limit) else None


def _read_reports(paths) -> list[dict]:
    """The compared reports, checked: ``results`` entries with a string ``measure``
    and ``model`` and ``per_series`` numbers or nulls; ``errors`` entries with
    equal-length ``keys`` and finite ``errors``, each made ``(where, keys, columns,
    errors)``, one columns tuple (series ids, origins, steps) per distinct list. A
    ``ValidationError`` names the path, the model and the entry or row."""
    known, reports = [], []  # (keys, columns) of each distinct key list read; the reports
    for path in paths:
        report = json_object(Path(path).read_text(encoding="utf-8"), str(path))
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
            keys, values = (entry.get("keys"), entry.get("errors")) if isinstance(entry, dict) else (None, None)
            if not (isinstance(keys, list) and isinstance(values, list) and len(keys) == len(values)):
                raise ValidationError(f"{where} needs 'keys' and 'errors' lists of equal length")
            columns = next((c for k, c in known if k == keys), None)
            if columns is None or not set(map(type, chain.from_iterable(keys))) <= {str, int}:
                known.append((keys, columns := _key_columns(keys)))  # None only just before a raise
            column = _error_column(values)
            if columns is None or column is None:  # name the first row that breaks the rules
                for what, rows, valid, want in (("key", keys, _is_key, "[series_id, origin, step]"),
                                                ("error", values, _is_finite_number, "a finite number")):
                    if not all(map(valid, rows)):
                        i = next(i for i, row in enumerate(rows) if not valid(row))
                        raise ValidationError(f"{where}: {what} {i} is {rows[i]!r}, not {want}")
            errors[model] = (where, keys, columns, column)
        reports.append(report)
    return reports


def _collect_scores(reports: list[dict], measure: str):
    """Per-model per-series score vectors for one measure, aligned on series."""
    per_model: dict[str, dict] = {}
    for entry in chain.from_iterable(report.get("results", []) for report in reports):
        if entry["measure"] == measure and entry.get("per_series"):
            per_model.setdefault(entry["model"], {}).update(entry["per_series"])
    if len(per_model) < 2:
        raise ValidationError(f"need per-series {measure} values for at least 2 models")
    common = set.intersection(*({sid for sid, v in s.items() if v is not None} for s in per_model.values()))
    if not common:
        raise ValidationError("no common series with defined scores across models")
    series = sorted(common)
    return {m: [per_model[m][sid] for sid in series] for m in per_model}, series


def _losses_by_key(reports: list[dict]) -> dict:
    """Each model's squared errors, from the last report that holds them, as its
    row of one models x keys array: column ``i`` holds key id ``i``, keys in
    ``(series_id, origin, step)`` order, NaN where the model has no error for that
    key (errors are finite). One stable sort covers the rows of each distinct
    columns tuple, so a key repeated within a list shows as adjacent rows with one
    id; the first entry read with such a list is named, at its first repeat."""
    entries = [(model, *rows) for report in reports for model, rows in report["errors"].items()]
    if not entries:
        return {}
    models, wheres, keys, columns, errors = zip(*entries)
    number = {}  # id of each distinct columns tuple -> its place in read order
    lists = [number.setdefault(id(c), len(number)) for c in columns]  # each entry's distinct list
    sids, origins, steps = zip(*{id(c): c for c in columns}.values())
    sizes = list(map(len, origins))
    sids = list(chain.from_iterable(sids))
    labels = sorted(set(sids))
    codes = np.fromiter(map(dict(zip(labels, range(len(labels)))).__getitem__, sids),
                        dtype=np.int64, count=len(sids))
    key_order, key_id, _ = _key_index(codes, np.concatenate(origins), np.concatenate(steps))
    owner = np.repeat(np.arange(len(sizes)), sizes)[key_order]
    repeated = (key_id[1:] == key_id[:-1]) & (owner[1:] == owner[:-1])
    if repeated.any():
        s = int(owner[1:][repeated].min())
        i = int(key_order[1:][repeated & (owner[1:] == s)].min()) - sum(sizes[:s])
        j = lists.index(s)
        raise ValidationError(f"{wheres[j]}: key {i} {keys[j][i]!r} repeats an earlier key")
    with np.errstate(over="ignore"):  # a square past the float range is reported here
        squares = [e ** 2 for e in errors]
    for j, square in enumerate(squares):
        if not np.isfinite(square).all():
            i = int(np.argmin(np.isfinite(square)))
            raise ValidationError(f"{wheres[j]}: error {i} is {float(errors[j][i])!r}, whose square is not finite")
    ids = np.split(key_id[np.argsort(key_order)], np.cumsum(sizes)[:-1])  # each list's key ids, in its order
    last = {model: j for j, model in enumerate(models)}
    matrix = np.full((len(last), key_id[-1] + 1 if key_id.size else 0), np.nan)
    for row, j in zip(matrix, last.values()):
        row[ids[lists[j]]] = squares[j]
    return dict(zip(last, matrix))
