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
          str: ((str,), "a string", "strings")}


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


@dataclass(frozen=True)
class TimeSeries:
    """A single univariate series with strictly increasing integer timestamps."""

    id: str
    values: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError(f"series {self.id!r}: values must be a non-empty 1-d sequence")
        if not np.isfinite(values).all():
            if np.isnan(values).any():
                raise ValidationError(
                    f"series {self.id!r}: missing values are rejected at ingestion"
                )
            raise ValidationError(f"series {self.id!r}: values must be finite")
        if self.timestamps is None:
            ts = np.arange(1, values.size + 1, dtype=np.int64)
        else:
            ts = np.array(self.timestamps, dtype=np.int64)
            if ts.shape != values.shape:
                raise ValidationError(f"series {self.id!r}: timestamps/values length mismatch")
            if not (ts[1:] > ts[:-1]).all():
                raise ValidationError(f"series {self.id!r}: timestamps must be strictly increasing")
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


@dataclass(frozen=True)
class Dataset:
    """A collection of series with unique ids."""

    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        series = tuple(self.series)
        if not series:
            raise ValidationError("dataset must contain at least one series")
        ids = [s.id for s in series]
        if len(set(ids)) != len(ids):
            raise ValidationError("dataset series ids must be unique")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "_by_id", {s.id: s for s in series})

    def __iter__(self):
        return iter(self.series)

    def __len__(self) -> int:
        return len(self.series)

    def ids(self) -> list[str]:
        return [s.id for s in self.series]

    def __getitem__(self, series_id: str) -> TimeSeries:
        try:
            return self._by_id[series_id]
        except KeyError:
            raise KeyError(f"unknown series id {series_id!r}") from None


_BENCHMARK_KINDS = ("naive", "seasonal-naive", "mean")


@dataclass(frozen=True)
class Forecaster:
    """A benchmark forecaster. Forecasts of other models enter the toolkit as data.

    ``seasonal-naive`` forecasts step k with y at position origin + k -
    m*ceil(k/m), m being ``period``. ``naive`` is its m = 1 case, whatever
    ``period`` holds: it repeats the last known observation, which is optimal
    for a random walk. ``mean`` repeats the mean of the history up to the origin.
    """

    kind: str
    period: int | None = None

    def __post_init__(self):
        if self.kind not in _BENCHMARK_KINDS:
            raise ValidationError(f"unknown forecaster kind {self.kind!r}; expected one of {_BENCHMARK_KINDS}")
        check_type("seasonal period", self.period, int | None)
        if self.kind == "seasonal-naive" and (self.period is None or self.period < 1):
            raise ValidationError("seasonal-naive requires a positive seasonal period")

    def forecast_origins(self, series: TimeSeries, origins, h: int) -> np.ndarray:
        """Forecasts for steps 1..h from each of several origins of one series.

        Row i of the (origins x h) result is the forecast from ``origins[i]``.
        Each row reads only positions <= its origin. The first origin out of
        range, or short of one seasonal period, is reported.
        """
        if h < 1:
            raise ValidationError("horizon must be >= 1")
        values, m = series.values, self.period if self.kind == "seasonal-naive" else 1
        origins = np.asarray(origins)
        if origins.size and origins.dtype.kind not in "iu":
            raise ValidationError(f"origins must be integers, got {origins.dtype} values")
        origins = origins.astype(np.int64)
        bad = (origins < m) | (origins > values.size)
        if bad.any():
            origin = int(origins[bad.argmax()])
            if not 1 <= origin <= values.size:
                raise ValidationError(f"origin {origin} out of range for series {series.id!r}")
            raise InsufficientHistoryError(
                f"seasonal naive needs at least one full period of history for series "
                f"{series.id!r} (origin {origin} < m {m})"
            )
        if self.kind == "mean":
            # mean() divides the same pairwise sum by the count, so this is bit-equal; a cumsum is not
            level = np.array([values[:o].sum() for o in origins.tolist()]) / origins
            return np.repeat(level[:, None], h, axis=1)
        steps = np.arange(1, h + 1)
        return values[origins[:, None] + steps - m * np.ceil(steps / m).astype(int) - 1]


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
        starts = np.cumsum(sizes) - sizes
        by_size = np.argsort(sizes, kind="stable")
        for groups in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            size = sizes[groups[0]]
            if size:
                yield groups, rows[starts[groups, None] + np.arange(size)]

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
    index supplies the series and their (series, origin) windows: each series'
    windows are forecast in one ``Forecaster.forecast_origins`` call, and no
    key is grouped or sorted again. Every target is checked to lie inside its
    series before the (windows x horizon) forecast table is allocated.
    """
    fc = Forecaster(kind=kind, period=period)
    index, windows = frame.series_index, frame.windows
    series = []
    for sid, first in zip(index.labels, index.order[index.starts[:-1]].tolist()):
        try:
            series.append(dataset[sid])
        except KeyError:
            key = (sid, int(frame.origins[first]), int(frame.steps[first]))
            raise ValidationError(f"benchmark key {key!r}: series {sid!r} not in the dataset") from None
    lengths = index.expand(np.array([len(s) for s in series]))
    targets = frame.origins + frame.steps
    outside = (targets < 1) | (targets > lengths)
    if outside.any():
        i = int(outside.argmax())  # a target beyond int64 wraps below 1, so it is found too
        raise ValidationError(f"position {int(frame.origins[i]) + int(frame.steps[i])} outside "
                              f"series {frame.series_ids[i]!r} (length {lengths[i]})")
    # one forecast row per window; windows run by series code, then origin
    window_codes, window_origins = windows.labels.T
    bounds = np.searchsorted(window_codes, np.arange(len(index) + 1)).tolist()
    h = int(frame.steps.max())
    forecasts = np.empty((len(windows), h))
    for j, s in enumerate(series):
        at = slice(bounds[j], bounds[j + 1])
        forecasts[at] = fc.forecast_origins(s, window_origins[at], h)
    return frame._with_forecasts({kind: forecasts[windows.codes, frame.steps - 1]})
