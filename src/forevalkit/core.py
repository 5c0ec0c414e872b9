"""Domain types for series, forecasts and aligned evaluation data.

Conventions used throughout the package:

* Time positions are 1-based: a series of length T holds values y_1..y_T.
* The forecast origin is the position of the last known observation, so a
  forecast at horizon step k targets position origin + k.
* All types are immutable after construction and all operations are pure,
  so series can be processed in parallel without shared state.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import types
import typing
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ForevalError",
    "ValidationError",
    "DataValidationError",
    "InsufficientHistoryError",
    "TimeSeries",
    "Dataset",
    "Forecaster",
    "EvaluationFrame",
    "Groups",
    "EmbeddedMatrix",
    "embed",
]


class ForevalError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ForevalError):
    """Input violates a documented invariant (domain error)."""


class DataValidationError(ValidationError):
    """Input data is malformed: non-finite values, or keys that do not line up."""


class InsufficientHistoryError(ValidationError):
    """The requested operation needs more observations than are available."""


def json_object(text: str, what: str) -> dict:
    """Parse a JSON object; bad JSON or another JSON type is a ``ValidationError``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} JSON must be an object")
    return data


def reject_unknown(config: dict, allowed: tuple, what: str) -> None:
    """A key of ``config`` outside ``allowed`` is a ``ValidationError``, so a misspelt key is not ignored."""
    unknown = [k for k in config if k not in allowed]
    if unknown:
        raise ValidationError(f"{what} has unknown key {unknown[0]!r}; allowed keys are {list(allowed)}")


def from_fields(cls, data: dict, what: str):
    """Dataclass ``cls`` from a parsed JSON object; an unknown or missing field is a ``ValidationError``."""
    reject_unknown(data, tuple(f.name for f in fields(cls)), what)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ValidationError(f"bad {what}: {exc}") from None


# per type: the classes it accepts, and one value and several described; a bool is not a number
_TYPES = {bool: ((bool, np.bool_), "true or false", "booleans"),
          int: ((int, np.integer), "an integer", "integers"),
          float: ((int, float, np.integer, np.floating), "a number", "numbers"),
          str: ((str,), "a string", "strings"),
          dict: ((dict,), "an object", "objects")}


@functools.cache
def _type_check(hint) -> tuple:
    """``(classes, predicate, description)`` for values of type ``hint``: a ``_TYPES`` key,
    a union (``X | None`` lets None through), or ``tuple[X, ...]`` or ``frozenset[X]``, given
    as a list or tuple of X values (the frozenset also as a set). A value whose exact class
    is in ``classes`` passes without the slower ``predicate``."""
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        classes, oks, what = zip(*(_type_check(a) for a in args if a is not type(None)))
        none = {type(None)} if len(oks) < len(args) else set()
        return frozenset(none).union(*classes), lambda v: any(ok(v) for ok in oks), " or ".join(what)
    if origin:
        each, several = _type_check(args[0])[1], _TYPES[args[0]][2]
        seq = (list, tuple) if origin is tuple else (list, tuple, set, frozenset)
        return frozenset(), lambda v: isinstance(v, seq) and all(map(each, v)), f"a list of {several}"
    accepted, what, _ = _TYPES[hint]
    bool_ok = hint is bool
    return frozenset(accepted), lambda v: isinstance(v, accepted) and (bool_ok or type(v) is not bool), what


def check_type(what: str, value, hint) -> None:
    """A ``ValidationError`` naming ``what`` unless ``value`` is of type ``hint``."""
    classes, ok, description = _type_check(hint)
    if type(value) not in classes and not ok(value):
        raise ValidationError(f"{what} must be {description}, got {value!r}")


@functools.cache
def _field_checks(cls) -> tuple:
    return tuple((name, *_type_check(hint)) for name, hint in typing.get_type_hints(cls).items())


def check_fields(obj, owner: str) -> None:
    """``check_type`` on each field of the dataclass ``obj``, naming ``owner`` and the field.
    Each class's annotations are resolved once."""
    for name, classes, ok, description in _field_checks(type(obj)):
        value = getattr(obj, name)
        if type(value) not in classes and not ok(value):
            raise ValidationError(f"{owner} {name} must be {description}, got {value!r}")


def _check_series(ids, values: np.ndarray, timestamps: np.ndarray, offsets: np.ndarray) -> None:
    """A ``ValidationError`` naming the first series (``ids[j]`` at ``offsets[j]:offsets[j + 1]``)
    that is empty, holds a value that is not finite or a timestamp not above the one before it."""
    lengths, finite = np.diff(offsets), np.isfinite(values)
    rising = np.ones(values.size, dtype=bool)
    rising[1:] = timestamps[1:] > timestamps[:-1]
    rising[offsets[:-1][lengths > 0]] = True  # a series' first timestamp follows none of its own
    ok = finite & rising
    if ok.all() and lengths.all():
        return
    bad = np.flatnonzero(~ok)[:1]
    j = min([*np.flatnonzero(lengths < 1)[:1], *(np.searchsorted(offsets, bad, "right") - 1)])
    rows = slice(offsets[j], offsets[j + 1])
    raise ValidationError(f"series {ids[j]!r}: " + (
        "values must be a non-empty 1-d sequence" if lengths[j] < 1
        else "missing values are rejected at ingestion" if np.isnan(values[rows]).any()
        else "values must be finite" if not finite[rows].all()
        else "timestamps must be strictly increasing"))


@dataclass(frozen=True)
class TimeSeries:
    """A single univariate series with strictly increasing integer timestamps.
    A ``Dataset`` gives its series as read-only views on its own arrays."""

    id: str
    values: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValidationError(f"series {self.id!r}: values must be a non-empty 1-d sequence")
        if self.timestamps is None:
            ts = np.arange(1, values.size + 1, dtype=np.int64)
        else:
            ts = np.array(self.timestamps, dtype=np.int64)
            if ts.shape != values.shape:
                raise ValidationError(f"series {self.id!r}: timestamps/values length mismatch")
        # the cheap test first; default timestamps rise
        if not (values.size and np.isfinite(values).all() and (self.timestamps is None or (ts[1:] > ts[:-1]).all())):
            _check_series((self.id,), values, ts, np.array([0, values.size]))
        values.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.values.size

    def value_at(self, position: int) -> float:
        """Value at 1-based position."""
        if not 1 <= position <= len(self):
            raise ValidationError(f"position {position} outside series {self.id!r} (length {len(self)})")
        return float(self.values[position - 1])

    def prefix(self, position: int) -> np.ndarray:
        """Values y_1..y_position (the training region for origin = position)."""
        if not 1 <= position <= len(self):
            raise ValidationError(f"position {position} outside series {self.id!r} (length {len(self)})")
        return self.values[:position]


class Dataset:
    """A collection of series with unique ids, held as read-only arrays:
    ``values`` (float64) and ``timestamps`` (int64) of all series end to end,
    and ``offsets``, series j filling ``offsets[j]:offsets[j + 1]`` (``lengths[j]``
    values). ``Dataset(series)`` stacks ``TimeSeries``, ``from_arrays`` takes
    the arrays; either way one check over the whole arrays names the first
    series that is empty, holds a value that is not finite or a timestamp not
    above the one before it. Indexing by id, iterating and ``series`` give
    read-only ``TimeSeries`` views on the arrays, made on demand.
    """

    def __init__(self, series):
        series = tuple(series)
        self._set([s.id for s in series], np.concatenate([np.empty(0), *(s.values for s in series)]),
                  np.concatenate([np.empty(0, np.int64), *(s.timestamps for s in series)]),
                  np.cumsum([0, *map(len, series)]))

    @classmethod
    def from_arrays(cls, ids, values, timestamps, offsets) -> "Dataset":
        dataset = cls.__new__(cls)
        dataset._set(ids, values, timestamps, offsets)
        return dataset

    def _set(self, ids, values, timestamps, offsets) -> None:
        ids = tuple(ids)
        if not ids:
            raise ValidationError("dataset must contain at least one series")
        # copies, so that freezing them leaves the caller's arrays writable
        values, timestamps = np.array(values, dtype=float), np.array(timestamps, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64)
        if (values.ndim != 1 or timestamps.shape != values.shape or offsets.shape != (len(ids) + 1,)
                or offsets[0] != 0 or offsets[-1] != values.size or (offsets[1:] < offsets[:-1]).any()):
            raise ValidationError("dataset arrays do not line up: offsets must rise from 0 to the number "
                                  "of values, one more of them than ids, and one timestamp per value")
        _check_series(ids, values, timestamps, offsets)
        position = dict(zip(ids, range(len(ids))))
        if len(position) != len(ids):
            raise ValidationError("dataset series ids must be unique")
        lengths = np.diff(offsets)
        for arr in (values, timestamps, offsets, lengths):
            arr.setflags(write=False)
        vars(self).update(_ids=ids, _position=position, values=values, timestamps=timestamps, offsets=offsets,
                          lengths=lengths)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Dataset is read-only; cannot set {name!r}")

    def _series(self, j: int) -> TimeSeries:
        view, rows = object.__new__(TimeSeries), slice(self.offsets[j], self.offsets[j + 1])
        view.__dict__.update(id=self._ids[j], values=self.values[rows], timestamps=self.timestamps[rows])
        return view

    @functools.cached_property
    def series(self) -> tuple[TimeSeries, ...]:
        return tuple(map(self._series, range(len(self._ids))))

    def __iter__(self):
        return iter(self.series)

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        return list(self._ids)

    def __getitem__(self, series_id: str) -> TimeSeries:
        try:
            return self._series(self._position[series_id])
        except KeyError:
            raise KeyError(f"unknown series id {series_id!r}") from None

    def locate(self, ids) -> np.ndarray:
        """The position of each of ``ids`` among the series, -1 where none has that id."""
        return np.fromiter(map(self._position.get, ids, itertools.repeat(-1)), np.int64, len(ids))

    def prefixes(self, ids, positions) -> "Dataset":
        """Series ``ids[j]`` cut to y_1..y_positions[j] (its training region for
        origin = positions[j]), as a dataset of those ids."""
        at, positions = self.locate(ids), np.asarray(positions, dtype=np.int64)
        for j in np.flatnonzero((at < 0) | (positions < 1) | (positions > self.lengths[at]))[:1]:
            self[ids[j]].prefix(int(positions[j]))  # names the unknown id, or the position and series
        offsets = np.concatenate(([0], np.cumsum(positions)))
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[at] - offsets[:-1], positions)
        return Dataset.from_arrays(ids, self.values[rows], self.timestamps[rows], offsets)


_GATHER = 1 << 20  # positions gathered at once, so no (runs x length) block of 10k long series is made whole


def _stacks(starts: np.ndarray, lengths: np.ndarray):
    """Yield ``(runs, at)`` per run length: ``at[k]`` holds the positions
    ``starts[r] + 0, 1, ..., lengths[r] - 1`` of run ``r = runs[k]``. Runs of one
    length come in blocks of at most about ``_GATHER`` positions; empty runs not at all."""
    by_length = np.argsort(lengths, kind="stable")
    for runs in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        n = int(lengths[runs[0]]) if runs.size else 0
        step = max(1, _GATHER // max(n, 1))
        for block in np.split(runs, range(step, runs.size, step)) if n else ():
            yield block, starts[block, None] + np.arange(n)


def _reduce_runs(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, reducer) -> np.ndarray:
    """``reducer`` over each run ``values[starts[i]:starts[i] + lengths[i]]``, as the
    rows of ``_stacks``' blocks: a run is summed exactly as ``ndarray.sum`` sums
    it alone (see ``Groups``). NaN for an empty run."""
    out = np.full(starts.size, np.nan)
    for runs, at in _stacks(starts, lengths):
        out[runs] = reducer(values[at])
    return out


_BENCHMARK_KINDS = ("naive", "seasonal-naive", "mean")


@dataclass(frozen=True)
class Forecaster:
    """A benchmark forecaster. Forecasts of other models enter the toolkit as data.

    ``seasonal-naive`` forecasts step k with y at position origin + k -
    m*ceil(k/m), m being ``period``. ``naive`` is its m = 1 case, whatever
    ``period`` holds: it repeats the last known observation, which is optimal
    for a random walk. ``mean`` repeats the mean of the history up to the origin.

    ``forecast_windows`` forecasts many (series, origin) windows of a dataset
    at once; ``forecast_origins``, the origins of one series, is its
    one-series case.
    """

    kind: str
    period: int | None = None

    def __post_init__(self):
        if self.kind not in _BENCHMARK_KINDS:
            raise ValidationError(f"unknown forecaster kind {self.kind!r}; expected one of {_BENCHMARK_KINDS}")
        check_type("seasonal period", self.period, int | None)
        if self.kind == "seasonal-naive" and (self.period is None or self.period < 1):
            raise ValidationError("seasonal-naive requires a positive seasonal period")

    def forecast_windows(self, dataset: Dataset, series, origins, h: int) -> np.ndarray:
        """Forecasts for steps 1..h from each window: the series at position
        ``series[i]`` of the dataset, from origin ``origins[i]``.

        Row i of the (windows x h) result is window i's forecast, read only
        from positions <= its origin. ``naive`` and ``seasonal-naive`` are one
        gather from the dataset's values over every window; ``mean`` sums the
        histories of the windows at each origin as one stack (``_reduce_runs``),
        bit-equal to the history's ``mean()``. The first window whose origin is
        out of range, or short of one seasonal period, is reported.
        """
        if h < 1:
            raise ValidationError("horizon must be >= 1")
        m = self.period if self.kind == "seasonal-naive" else 1
        origins = np.asarray(origins)
        if origins.size and origins.dtype.kind not in "iu":
            raise ValidationError(f"origins must be integers, got {origins.dtype} values")
        origins, series = origins.astype(np.int64), np.asarray(series, dtype=np.int64)
        lengths = dataset.lengths[series]
        bad = (origins < m) | (origins > lengths)
        if bad.any():
            i = int(bad.argmax())
            origin, sid = int(origins[i]), dataset.ids()[series[i]]
            if not 1 <= origin <= lengths[i]:
                raise ValidationError(f"origin {origin} out of range for series {sid!r}")
            raise InsufficientHistoryError(
                f"seasonal naive needs at least one full period of history for series "
                f"{sid!r} (origin {origin} < m {m})"
            )
        starts = dataset.offsets[series]
        if self.kind == "mean":
            level = _reduce_runs(dataset.values, starts, origins, _row_sum) / origins
            return np.repeat(level[:, None], h, axis=1)
        steps = np.arange(1, h + 1)
        return dataset.values[(starts + origins - 1)[:, None] + steps - m * np.ceil(steps / m).astype(int)]

    def forecast_origins(self, series: TimeSeries, origins, h: int) -> np.ndarray:
        """Forecasts for steps 1..h from each of several origins of one series:
        ``forecast_windows`` on the dataset of that series alone."""
        return self.forecast_windows(Dataset((series,)), np.zeros(np.size(origins), np.int64), origins, h)


@dataclass(frozen=True)
class EmbeddedMatrix:
    """Lag-matrix form of a series for an autoregression of order p.

    Row i (1-based) holds y_i..y_{i+p-1} as predictors and y_{i+p} as the
    target, so a length-n series yields exactly n - p rows and every row is a
    window of p + 1 consecutive observations.
    """

    series_id: str
    order: int
    predictors: np.ndarray  # shape (n - p, p), row i-1 = y_i..y_{i+p-1}
    targets: np.ndarray  # shape (n - p,), row i-1 = y_{i+p}

    def __post_init__(self):
        self.predictors.setflags(write=False)
        self.targets.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.targets.size

    def row_span(self, row: int) -> tuple[int, int]:
        """Original 1-based position range (start, end) covered by a row."""
        if not 1 <= row <= self.n_rows:
            raise ValidationError(f"row {row} out of range (1..{self.n_rows})")
        return row, row + self.order

    def reassemble(self) -> np.ndarray:
        """Reconstruct the original series values from the rows."""
        return np.concatenate([self.predictors[0], self.targets])


def embed(series: TimeSeries, p: int) -> EmbeddedMatrix:
    """Build the order-p embedded matrix of a series.

    Requires n > p >= 1 and returns n - p rows.
    """
    n = len(series)
    if p < 1:
        raise ValidationError("embedding order must be >= 1")
    if n <= p:
        raise InsufficientHistoryError(f"series length {n} must exceed embedding order {p}")
    v = series.values
    idx = np.arange(n - p)[:, None] + np.arange(p)[None, :]
    return EmbeddedMatrix(
        series_id=series.id,
        order=p,
        predictors=v[idx].copy(),
        targets=v[p:].copy(),
    )


@dataclass(frozen=True)
class Groups:
    """A frame's rows split into groups: per series, per (series, origin)
    window, or one group of every row (the pooled value).

    ``labels[j]`` names group j and ``codes[i]`` is the group of row i. The
    rows of group j are ``order[starts[j]:starts[j + 1]]``. ``reduce``
    reduces each stack of equal-size groups along its rows, which sums a
    group exactly as ``ndarray.sum`` sums it alone, so a per-series value
    equals the measure on that series' sub-frame to the last bit.
    (``np.add.reduceat`` adds sequentially and differs in the last bits,
    which matters where terms cancel.)
    """

    labels: tuple | np.ndarray
    codes: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for arr in (self.labels, self.codes, self.order, self.starts):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @classmethod
    def of(cls, keys: list) -> "Groups":
        """Rows grouped by equal key: groups in first-appearance order, rows in frame order."""
        position = dict(zip(dict.fromkeys(keys), range(len(keys))))
        codes = np.fromiter(map(position.__getitem__, keys), dtype=np.int64, count=len(keys))
        starts = np.zeros(len(position) + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes), out=starts[1:])
        return cls(tuple(position), codes, np.argsort(codes, kind="stable"), starts)

    @classmethod
    def pooled(cls, n: int) -> "Groups":
        """One group of all ``n`` rows, in frame order."""
        return cls((None,), np.zeros(n, dtype=np.int64), np.arange(n), np.array([0, n]))

    def __len__(self) -> int:
        return self.starts.size - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Rows in ``mask`` per group."""
        return np.bincount(self.codes[mask], minlength=len(self))

    def stacks(self, mask=None):
        """Yield ``(groups, rows)`` per group size: ``rows[k]`` lists group ``groups[k]``'s rows
        (those in ``mask``) in order."""
        rows, sizes = self.order, self.sizes
        if mask is not None:
            rows, sizes = rows[mask[rows]], self.count(mask)
        if sizes.min() == sizes.max():  # already stacked: one row per group
            if sizes[0]:
                yield np.arange(sizes.size), rows.reshape(sizes.size, -1)
            return
        for groups, at in _stacks(np.cumsum(sizes) - sizes, sizes):
            yield groups, rows[at]

    def reduce(self, x: np.ndarray, reducer, mask=None) -> np.ndarray:
        """``reducer`` over each group's rows (those in ``mask``); NaN for a group with none."""
        out = np.full(len(self), np.nan)
        for groups, rows in self.stacks(mask):
            out[groups] = reducer(x[rows])
        return out

    def sum(self, x: np.ndarray) -> np.ndarray:
        return self.reduce(x, _row_sum)

    def mean(self, x: np.ndarray) -> np.ndarray:
        return self.reduce(x, _row_mean)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Per-group values broadcast back to the rows."""
        return values[self.codes]

    def as_dict(self, values: np.ndarray) -> dict:
        return dict(zip(self.labels, values.tolist()))


def _row_sum(a):
    return np.add.reduce(a, axis=1)


def _row_mean(a):
    return np.add.reduce(a, axis=1) / a.shape[1]


def _row_geometric_mean(a):
    a = np.abs(a)
    nonzero = a != 0
    out = np.exp(_row_mean(np.log(a, out=np.zeros_like(a), where=nonzero)))
    out[~nonzero.all(axis=1)] = 0.0
    return out


# the row reducers a summary operator names, for ``Groups.reduce``
_SUMMARISERS = {
    "mean": _row_mean,
    "median": lambda a: np.median(a, axis=1),
    "geometric-mean": _row_geometric_mean,
}


def _key_index(codes, origins, steps):
    """One sort of the rows by (series code, origin, step): the rows in that order,
    the dense id (0, 1, ...) of each sorted row's key, equal keys sharing one, and
    the rows grouped by (series, origin) in that order, labelled (series code, origin).
    Every key check and join compares these ids. All read-only."""
    key_order = np.lexsort((steps, origins, codes))
    codes, origins, steps = codes[key_order], origins[key_order], steps[key_order]
    new_window, new_key = np.ones((2, codes.size), dtype=bool)
    new_window[1:] = (codes[1:] != codes[:-1]) | (origins[1:] != origins[:-1])
    new_key[1:] = new_window[1:] | (steps[1:] != steps[:-1])
    key_ids = np.cumsum(new_key) - 1
    key_ids.setflags(write=False)
    window = np.empty(codes.size, dtype=np.int64)
    window[key_order] = np.cumsum(new_window) - 1
    starts = np.append(np.flatnonzero(new_window), codes.size)
    labels = np.stack((codes[new_window], origins[new_window]), axis=1)
    return key_order, key_ids, Groups(labels, window, key_order, starts)


class EvaluationFrame:
    """Aligned (actual, forecast) records keyed by (series, origin, step).

    The frame is dense: every key carries a forecast for every model, and the
    actual value for a key is stored once, so it cannot differ across models.
    Actuals and forecasts must be finite. This is the single source for every
    base error in the measures module.

    The key index is built at construction and is read-only: ``series_index``
    and ``windows`` group the rows by series and by (series, origin), the
    latter in step order, and ``key_order`` lists the rows sorted by (series
    code, origin, step). A repeated key is found, and a benchmark is joined,
    through the integer key ids of ``_key_index``. A ``benchmark_frame`` on
    this frame's keys shares its index.
    """

    def __init__(
        self,
        series_ids,
        origins,
        steps,
        actuals,
        forecasts: dict[str, np.ndarray],
    ):
        self.series_ids = np.asarray(series_ids, dtype=object)
        self.origins = np.asarray(origins, dtype=np.int64)
        self.steps = np.asarray(steps, dtype=np.int64)
        self.actuals = np.asarray(actuals, dtype=float)
        if not forecasts:
            raise ValidationError("evaluation frame needs at least one model")
        self.forecasts = {name: np.asarray(f, dtype=float) for name, f in forecasts.items()}

        n = self.actuals.size
        if n == 0:
            raise ValidationError("evaluation frame is empty")
        for arr in (self.series_ids, self.origins, self.steps):
            if arr.size != n:
                raise ValidationError("evaluation frame columns must have equal length")
        for name, f in self.forecasts.items():
            if f.size != n:
                raise ValidationError(f"model {name!r}: forecast column length mismatch")
        if self.steps.min() < 1:
            raise ValidationError("horizon steps must be >= 1")
        self.series_index = Groups.of(self.series_ids.tolist())
        self.key_order, key_ids, self.windows = _key_index(
            self.series_index.codes, self.origins, self.steps)
        repeated = key_ids[1:] == key_ids[:-1]
        if repeated.any():
            i = self.key_order[int(repeated.argmax())]
            key = (self.series_ids[i], int(self.origins[i]), int(self.steps[i]))
            raise ValidationError(f"duplicate (series, origin, step) key {key} in evaluation frame")
        for model, col in ((None, self.actuals), *self.forecasts.items()):
            self._check_finite(model, col)

        for arr in (self.series_ids, self.origins, self.steps, self.actuals, *self.forecasts.values()):
            arr.setflags(write=False)

    def _check_finite(self, model: str | None, col: np.ndarray) -> None:
        """The first non-finite value of a column (``model`` None: the actuals) is reported."""
        finite = np.isfinite(col)
        if not finite.all():
            i = int(finite.argmin())
            what = "actual" if model is None else f"model {model!r}: forecast"
            key = (self.series_ids[i], int(self.origins[i]), int(self.steps[i]))
            raise DataValidationError(f"{what} at key {key} is not finite: {col[i]}")

    def _with_forecasts(self, forecasts: dict[str, np.ndarray]) -> "EvaluationFrame":
        """A frame on this frame's keys, actuals and key index whose models are
        ``forecasts``, one value per row in frame order."""
        frame = copy.copy(self)
        frame.forecasts = forecasts
        for model, col in forecasts.items():
            frame._check_finite(model, col)
            col.setflags(write=False)
        return frame

    @property
    def models(self) -> list[str]:
        return list(self.forecasts)

    @property
    def n_rows(self) -> int:
        return self.actuals.size

    def unique_series(self) -> list[str]:
        """Series ids in first-appearance order."""
        return list(self.series_index.labels)

    def model_column(self, model: str | None = None) -> np.ndarray:
        """Forecast column for a model; the model may be omitted if unambiguous."""
        if model is None:
            if len(self.forecasts) != 1:
                raise ValidationError(
                    f"frame has models {self.models}; specify which one to evaluate"
                )
            return next(iter(self.forecasts.values()))
        try:
            return self.forecasts[model]
        except KeyError:
            raise ValidationError(f"unknown model {model!r}; frame has {self.models}") from None

    def align_benchmark(self, benchmark: "EvaluationFrame") -> np.ndarray:
        """Benchmark forecast column re-ordered to this frame's keys.

        The benchmark frame must hold exactly one model and cover every key;
        it may hold more keys, in any order. One ``_key_index`` over the
        benchmark's keys followed by this frame's gives each row a key id;
        each of this frame's rows takes the benchmark row with its id.
        """
        if len(benchmark.forecasts) != 1:
            raise ValidationError("benchmark frame must carry exactly one model")
        col = next(iter(benchmark.forecasts.values()))
        theirs, own, n = benchmark.series_index, self.series_index, benchmark.n_rows
        series = Groups.of([*theirs.labels, *own.labels]).codes
        key_order, key_ids, _ = _key_index(
            np.concatenate((series[:len(theirs)][theirs.codes], series[len(theirs):][own.codes])),
            np.concatenate((benchmark.origins, self.origins)),
            np.concatenate((benchmark.steps, self.steps)))
        ids = np.empty_like(key_ids)
        ids[key_order] = key_ids
        row = np.full(key_ids[-1] + 1, -1)
        row[ids[:n]] = np.arange(n)  # a benchmark frame's keys are unique
        pos = row[ids[n:]]
        if (pos < 0).any():
            i = int((pos < 0).argmax())
            raise ValidationError(
                f"benchmark frame is missing key ({self.series_ids[i]!r}, "
                f"{int(self.origins[i])}, {int(self.steps[i])})"
            )
        return col[pos]


def benchmark_frame(
    dataset: Dataset,
    frame: EvaluationFrame,
    kind: str = "naive",
    period: int | None = None,
) -> EvaluationFrame:
    """Benchmark forecasts on the keys of ``frame``: a single-model frame, its
    model named ``kind``, on the frame's series ids, origins, steps and
    actuals, in frame order.

    Forecasts are produced per origin from the series prefix only, so no
    information after the origin leaks into the benchmark. The frame's own
    index supplies its (series, origin) windows: every window is forecast in
    one ``Forecaster.forecast_windows`` call on the dataset's arrays, and no
    key is grouped or sorted again. Every target is checked to lie inside its
    series before the (windows x horizon) forecast table is allocated.
    """
    fc = Forecaster(kind=kind, period=period)
    index, windows = frame.series_index, frame.windows
    at = dataset.locate(index.labels)
    if (at < 0).any():
        j = int((at < 0).argmax())
        first, sid = index.order[index.starts[j]], index.labels[j]
        key = (sid, int(frame.origins[first]), int(frame.steps[first]))
        raise ValidationError(f"benchmark key {key!r}: series {sid!r} not in the dataset")
    lengths = index.expand(dataset.lengths[at])
    targets = frame.origins + frame.steps
    outside = (targets < 1) | (targets > lengths)
    if outside.any():
        i = int(outside.argmax())  # a target beyond int64 wraps below 1, so it is found too
        raise ValidationError(f"position {int(frame.origins[i]) + int(frame.steps[i])} outside "
                              f"series {frame.series_ids[i]!r} (length {lengths[i]})")
    window_codes, window_origins = windows.labels.T
    forecasts = fc.forecast_windows(dataset, at[window_codes], window_origins, int(frame.steps.max()))
    return frame._with_forecasts({kind: forecasts[windows.codes, frame.steps - 1]})
