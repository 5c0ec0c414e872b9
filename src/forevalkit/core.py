"""Domain types for series, forecasts and aligned evaluation data.

Conventions used throughout the package:

* Time positions are 1-based: a series of length T holds values y_1..y_T.
* The forecast origin is the position of the last known observation, so a
  forecast at horizon step k targets position origin + k.
* All types are immutable after construction and all operations are pure,
  so series can be processed in parallel without shared state.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

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
    "naive_forecast",
    "seasonal_naive_forecast",
    "mean_forecast",
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


@dataclass(frozen=True)
class TimeSeries:
    """A single univariate series with strictly increasing integer timestamps.

    ``frequency`` is the seasonal period m (e.g. 7 for daily data with a
    weekly pattern); it is optional and never inferred.
    """

    id: str
    values: np.ndarray
    timestamps: np.ndarray | None = None
    frequency: int | None = None

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
        if self.frequency is not None and self.frequency < 2:
            raise ValidationError(f"series {self.id!r}: frequency must be >= 2 when given")
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


def naive_forecast(series: TimeSeries, origin: int, h: int) -> np.ndarray:
    """Repeat the last known observation over the horizon.

    Optimal for a random walk; the baseline every comparison should include.
    """
    return Forecaster("naive").forecast(series, origin, h)


def seasonal_naive_forecast(series: TimeSeries, origin: int, h: int, m: int) -> np.ndarray:
    """Repeat the value from one seasonal period earlier, per step.

    The forecast at step k is y at position origin + k - m*ceil(k/m); with
    m = 1 this degenerates to the naive forecast.
    """
    return Forecaster("seasonal-naive", m).forecast(series, origin, h)


def mean_forecast(series: TimeSeries, origin: int, h: int) -> np.ndarray:
    """Forecast the mean of the history up to the origin, repeated over the horizon.

    Uses only positions <= origin; nothing after the origin can change the output.
    """
    return Forecaster("mean").forecast(series, origin, h)


_BENCHMARK_KINDS = ("naive", "seasonal-naive", "mean", "external")


@dataclass(frozen=True)
class Forecaster:
    """A benchmark forecaster, or a tag for externally supplied forecasts.

    External forecasts enter the toolkit as data and are never fitted here;
    asking an ``external`` forecaster to predict is an error.
    """

    kind: str
    period: int | None = None

    def __post_init__(self):
        if self.kind not in _BENCHMARK_KINDS:
            raise ValidationError(f"unknown forecaster kind {self.kind!r}; expected one of {_BENCHMARK_KINDS}")
        if self.kind == "seasonal-naive" and (self.period is None or self.period < 1):
            raise ValidationError("seasonal-naive requires a positive seasonal period")

    def forecast(self, series: TimeSeries, origin: int, h: int) -> np.ndarray:
        """Forecasts for steps 1..h from one origin."""
        return self.forecast_origins(series, [origin], h)[0]

    def forecast_origins(self, series: TimeSeries, origins, h: int) -> np.ndarray:
        """Forecasts for steps 1..h from each of several origins of one series.

        Row i of the (origins x h) result is the forecast from ``origins[i]``.
        Each row reads only positions <= its origin. The first origin out of
        range, or short of one seasonal period, is reported.
        """
        if self.kind == "external":
            raise ValidationError("external forecasts are read-only inputs and cannot be generated")
        if h < 1:
            raise ValidationError("horizon must be >= 1")
        values, m = series.values, self.period
        origins = np.asarray(origins)
        if origins.size and origins.dtype.kind not in "iu":
            raise ValidationError(f"origins must be integers, got {origins.dtype} values")
        origins = origins.astype(np.int64)
        bad = (origins < (m if self.kind == "seasonal-naive" else 1)) | (origins > values.size)
        if bad.any():
            origin = int(origins[bad.argmax()])
            if not 1 <= origin <= values.size:
                raise ValidationError(f"origin {origin} out of range for series {series.id!r}")
            raise InsufficientHistoryError(
                f"seasonal naive needs at least one full period of history for series "
                f"{series.id!r} (origin {origin} < m {m})"
            )
        if self.kind == "seasonal-naive":
            steps = np.arange(1, h + 1)
            return values[origins[:, None] + steps - m * np.ceil(steps / m).astype(int) - 1]
        if self.kind == "naive":
            level = values[origins - 1]
        else:
            # a mean per prefix keeps numpy's pairwise summation; a cumsum would not
            level = np.array([values[:o].mean() for o in origins.tolist()])
        return np.repeat(level[:, None], h, axis=1)


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


_KEY_DTYPE = np.dtype([("series", np.int64), ("origin", np.int64), ("step", np.int64)])


def _keys(codes, origins, steps) -> np.ndarray:
    """(series code, origin, step) records; they compare field by field."""
    keys = np.empty(codes.size, dtype=_KEY_DTYPE)
    keys["series"], keys["origin"], keys["step"] = codes, origins, steps
    return keys


def _as_ints(keys: np.ndarray) -> np.ndarray:
    """Keys as an (n, 3) integer array, for fast element-wise comparison."""
    return keys.view(np.int64).reshape(-1, 3)


def _repeats(sorted_keys: np.ndarray) -> np.ndarray:
    """For each sorted key after the first, whether it equals the key before it."""
    keys = _as_ints(sorted_keys)
    return (keys[1:] == keys[:-1]).all(axis=1)


def _key_index(codes, origins, steps):
    """Read-only rows sorted by (series code, origin, step), their keys, and the
    rows grouped by (series, origin) in that order, labelled (series code, origin)."""
    key_order = np.lexsort((steps, origins, codes))
    sorted_keys = _keys(codes, origins, steps)[key_order]
    sorted_keys.setflags(write=False)
    keys = _as_ints(sorted_keys)
    first = np.ones(codes.size, dtype=bool)
    first[1:] = (keys[1:, :2] != keys[:-1, :2]).any(axis=1)
    window = np.empty(codes.size, dtype=np.int64)
    window[key_order] = np.cumsum(first) - 1
    starts = np.append(np.flatnonzero(first), codes.size)
    return key_order, sorted_keys, Groups(keys[first, :2], window, key_order, starts)


class EvaluationFrame:
    """Aligned (actual, forecast) records keyed by (series, origin, step).

    The frame is dense: every key carries a forecast for every model, and the
    actual value for a key is stored once, so it cannot differ across models.
    Actuals and forecasts must be finite. This is the single source for every
    base error in the measures module.

    The key index is built at construction and is read-only: ``series_index``
    and ``windows`` group the rows by series and by (series, origin), the
    latter in step order; ``key_order`` lists the rows sorted by (series
    code, origin, step), and ``sorted_keys`` holds those keys in that order.
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
        self.key_order, self.sorted_keys, self.windows = _key_index(
            self.series_index.codes, self.origins, self.steps)
        repeated = _repeats(self.sorted_keys)
        if repeated.any():
            i = self.key_order[int(repeated.argmax())]
            key = (self.series_ids[i], int(self.origins[i]), int(self.steps[i]))
            raise ValidationError(f"duplicate (series, origin, step) key {key} in evaluation frame")
        for model, col in ((None, self.actuals), *self.forecasts.items()):
            finite = np.isfinite(col)
            if not finite.all():
                i = int(finite.argmin())
                what = "actual" if model is None else f"model {model!r}: forecast"
                key = (self.series_ids[i], int(self.origins[i]), int(self.steps[i]))
                raise DataValidationError(f"{what} at key {key} is not finite: {col[i]}")

        for arr in (self.series_ids, self.origins, self.steps, self.actuals, *self.forecasts.values()):
            arr.setflags(write=False)

    @property
    def models(self) -> list[str]:
        return list(self.forecasts)

    @property
    def horizon(self) -> int:
        return int(self.steps.max())

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
        it may hold more keys, in any order. The join searches this frame's
        keys in the benchmark's sorted keys.
        """
        if len(benchmark.forecasts) != 1:
            raise ValidationError("benchmark frame must carry exactly one model")
        col = next(iter(benchmark.forecasts.values()))
        sorted_keys, own = benchmark.sorted_keys, self.series_index
        position = dict(zip(benchmark.series_index.labels, range(len(benchmark.series_index))))
        bench_codes = np.array([position.get(sid, -1) for sid in own.labels], dtype=np.int64)
        wanted = _keys(bench_codes[own.codes], self.origins, self.steps)
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1)
        found = (_as_ints(sorted_keys[pos]) == _as_ints(wanted)).all(axis=1)
        if not found.all():
            i = int(found.argmin())
            raise ValidationError(
                f"benchmark frame is missing key ({self.series_ids[i]!r}, "
                f"{int(self.origins[i])}, {int(self.steps[i])})"
            )
        return col[benchmark.key_order[pos]]


def frame_from_records(records, models: list[str] | None = None) -> EvaluationFrame:
    """Build a frame from (series_id, origin, step, actual, {model: forecast}) tuples."""
    records = list(records)
    if not records:
        raise ValidationError("no evaluation records")
    if models is None:
        models = sorted({m for *_, fc in records for m in fc})
    cols: dict[str, list[float]] = {m: [] for m in models}
    sids, origins, steps, actuals = [], [], [], []
    for sid, origin, step, actual, fc in records:
        sids.append(sid)
        origins.append(origin)
        steps.append(step)
        actuals.append(actual)
        for m in models:
            if m not in fc:
                raise ValidationError(f"record ({sid!r}, {origin}, {step}) lacks forecast for model {m!r}")
            cols[m].append(fc[m])
    return EvaluationFrame(sids, origins, steps, actuals, {m: np.array(v) for m, v in cols.items()})


def _integer_field(keys: list, i: int, what: str) -> np.ndarray:
    """Field ``i`` of every key as int64; a key whose field is not an integer is reported."""
    try:
        return np.array([operator.index(k[i]) for k in keys], dtype=np.int64)
    except TypeError:
        bad = next(k for k in keys if not hasattr(type(k[i]), "__index__"))
        raise ValidationError(f"benchmark key {bad!r}: {what} must be an integer") from None


def benchmark_frame(
    dataset: Dataset,
    keys,
    kind: str = "naive",
    period: int | None = None,
    name: str | None = None,
) -> EvaluationFrame:
    """Generate benchmark forecasts for the given (series, origin, step) keys.

    Forecasts are produced per origin from the series prefix only, so no
    information after the origin leaks into the benchmark. Each series'
    origins are forecast in one ``Forecaster.forecast_origins`` call.
    """
    fc = Forecaster(kind=kind, period=period)
    keys = list(keys)
    sids = [k[0] for k in keys]
    origins = _integer_field(keys, 1, "origin")
    steps = _integer_field(keys, 2, "step")
    if (steps < 1).any():
        raise ValidationError("horizon steps must be >= 1")
    index = Groups.of(sids)
    # one forecast row per (series, origin) window; windows run by series code, then origin
    windows = _key_index(index.codes, origins, steps)[2]
    window_codes, window_origins = windows.labels.T
    bounds = np.searchsorted(window_codes, np.arange(len(index) + 1))
    forecasts = np.empty((len(windows), int(steps.max(initial=1))))
    targets, actuals = origins + steps, np.empty(len(keys))
    for j, sid in enumerate(index.labels):
        rows, at = index.order[index.starts[j]:index.starts[j + 1]], slice(bounds[j], bounds[j + 1])
        try:
            series = dataset[sid]
        except KeyError:
            raise ValidationError(
                f"benchmark key {keys[rows[0]]!r}: series {sid!r} not in the dataset") from None
        forecasts[at] = fc.forecast_origins(series, window_origins[at], forecasts.shape[1])
        # clipped: out-of-range targets are reported below, after every forecast
        actuals[rows] = series.values.take(targets[rows] - 1, mode="clip")
    col = forecasts[windows.codes, steps - 1]
    lengths = index.expand(np.array([len(dataset[sid]) for sid in index.labels]))
    outside = (targets < 1) | (targets > lengths)
    if outside.any():
        i = int(outside.argmax())
        raise ValidationError(f"position {targets[i]} outside series {sids[i]!r} (length {lengths[i]})")
    return EvaluationFrame(sids, origins, steps, actuals, {name or kind: col})
