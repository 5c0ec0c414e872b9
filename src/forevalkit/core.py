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
    "SeriesIndex",
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
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError(f"series {self.id!r}: values must be a non-empty 1-d sequence")
        if np.isnan(values).any():
            raise ValidationError(
                f"series {self.id!r}: missing values are rejected at ingestion"
            )
        if not np.isfinite(values).all():
            raise ValidationError(f"series {self.id!r}: values must be finite")
        if self.timestamps is None:
            ts = np.arange(1, values.size + 1, dtype=np.int64)
        else:
            ts = np.asarray(self.timestamps, dtype=np.int64)
            if ts.shape != values.shape:
                raise ValidationError(f"series {self.id!r}: timestamps/values length mismatch")
            if ts.size > 1 and not (np.diff(ts) > 0).all():
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
    if h < 1:
        raise ValidationError("horizon must be >= 1")
    if not 1 <= origin <= len(series):
        raise ValidationError(f"origin {origin} out of range for series {series.id!r}")
    return np.full(h, series.values[origin - 1], dtype=float)


def seasonal_naive_forecast(series: TimeSeries, origin: int, h: int, m: int) -> np.ndarray:
    """Repeat the value from one seasonal period earlier, per step.

    The forecast at step k is y at position origin + k - m*ceil(k/m); with
    m = 1 this degenerates to the naive forecast.
    """
    if h < 1:
        raise ValidationError("horizon must be >= 1")
    if m < 1:
        raise ValidationError("seasonal period must be >= 1")
    if not 1 <= origin <= len(series):
        raise ValidationError(f"origin {origin} out of range for series {series.id!r}")
    if origin < m:
        raise InsufficientHistoryError(
            f"seasonal naive needs at least one full period of history (origin {origin} < m {m})"
        )
    steps = np.arange(1, h + 1)
    positions = origin + steps - m * np.ceil(steps / m).astype(int)
    return series.values[positions - 1].astype(float)


def mean_forecast(series: TimeSeries, origin: int, h: int) -> np.ndarray:
    """Forecast the mean of the history up to the origin, repeated over the horizon.

    Uses only positions <= origin; nothing after the origin can change the output.
    """
    if h < 1:
        raise ValidationError("horizon must be >= 1")
    if not 1 <= origin <= len(series):
        raise ValidationError(f"origin {origin} out of range for series {series.id!r}")
    return np.full(h, float(series.values[:origin].mean()), dtype=float)


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
        if self.kind == "naive":
            return naive_forecast(series, origin, h)
        if self.kind == "seasonal-naive":
            m = self.period if self.period is not None else series.frequency
            if m is None:
                raise ValidationError("seasonal-naive requires a seasonal period")
            return seasonal_naive_forecast(series, origin, h, m)
        if self.kind == "mean":
            return mean_forecast(series, origin, h)
        raise ValidationError("external forecasts are read-only inputs and cannot be generated")


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
class SeriesIndex:
    """Per-series layout of an evaluation frame's rows.

    ``series`` lists the ids in first-appearance order and ``codes[i]`` is
    the position in it of row i's series. ``order`` lists the rows grouped
    by series, in frame order within a series, so the rows of series j are
    ``order[starts[j]:starts[j + 1]]``.
    """

    series: tuple
    position: dict  # series id -> its code
    codes: np.ndarray
    order: np.ndarray
    starts: np.ndarray


_KEY_DTYPE = np.dtype([("series", np.int64), ("origin", np.int64), ("step", np.int64)])


def _keys(codes, origins, steps) -> np.ndarray:
    """(series code, origin, step) records; they compare field by field."""
    keys = np.empty(codes.size, dtype=_KEY_DTYPE)
    keys["series"], keys["origin"], keys["step"] = codes, origins, steps
    return keys


def _as_ints(keys: np.ndarray) -> np.ndarray:
    """Keys as an (n, 3) integer array, for fast element-wise comparison."""
    return keys.view(np.int64).reshape(-1, 3)


class EvaluationFrame:
    """Aligned (actual, forecast) records keyed by (series, origin, step).

    The frame is dense: every key carries a forecast for every model, and the
    actual value for a key is stored once, so it cannot differ across models.
    Actuals and forecasts must be finite. This is the single source for every
    base error in the measures module.

    Two indexes are computed on first use and cached on the frame:
    ``series_index`` (series codes in first-appearance order and the rows of
    each series, read by the per-series measures and breakdowns) and, once
    the frame serves as a benchmark, its keys sorted for ``align_benchmark``'s
    join. Both rely on the columns never changing after construction: the
    arrays are read-only, and the attributes holding them must not be
    reassigned. Frames that never group or join build neither index.
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
        steps = self.steps.tolist()
        if min(steps) < 1:
            raise ValidationError("horizon steps must be >= 1")
        if len(set(zip(self.series_ids.tolist(), self.origins.tolist(), steps))) != n:
            raise ValidationError("duplicate (series, origin, step) key in evaluation frame")
        for model, col in ((None, self.actuals), *self.forecasts.items()):
            finite = np.isfinite(col)
            if not finite.all():
                i = int(finite.argmin())
                what = "actual" if model is None else f"model {model!r}: forecast"
                key = (self.series_ids[i], int(self.origins[i]), int(self.steps[i]))
                raise DataValidationError(f"{what} at key {key} is not finite: {col[i]}")

        for arr in (self.series_ids, self.origins, self.steps, self.actuals, *self.forecasts.values()):
            arr.setflags(write=False)
        self._series_index: SeriesIndex | None = None
        self._sorted_keys: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def models(self) -> list[str]:
        return list(self.forecasts)

    @property
    def horizon(self) -> int:
        return int(self.steps.max())

    @property
    def n_rows(self) -> int:
        return self.actuals.size

    @property
    def series_index(self) -> SeriesIndex:
        """The frame's per-series row layout, computed on first use."""
        if self._series_index is None:
            position: dict = {}
            codes = np.fromiter(
                (position.setdefault(sid, len(position)) for sid in self.series_ids.tolist()),
                dtype=np.int64, count=self.n_rows,
            )
            starts = np.zeros(len(position) + 1, dtype=np.int64)
            np.cumsum(np.bincount(codes), out=starts[1:])
            self._series_index = SeriesIndex(
                tuple(position), position, codes, np.argsort(codes, kind="stable"), starts,
            )
        return self._series_index

    def unique_series(self) -> list[str]:
        """Series ids in first-appearance order."""
        return list(self.series_index.series)

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

    def select_model(self, model: str) -> "EvaluationFrame":
        """Single-model view of this frame (used to pass benchmarks around)."""
        return EvaluationFrame(
            self.series_ids, self.origins, self.steps, self.actuals,
            {model: self.model_column(model)},
        )

    def align_benchmark(self, benchmark: "EvaluationFrame") -> np.ndarray:
        """Benchmark forecast column re-ordered to this frame's keys.

        The benchmark frame must hold exactly one model and cover every key;
        it may hold more keys, in any order. The join searches this frame's
        keys in the benchmark's sorted keys, which are cached on the
        benchmark frame.
        """
        if len(benchmark.forecasts) != 1:
            raise ValidationError("benchmark frame must carry exactly one model")
        col = next(iter(benchmark.forecasts.values()))
        if benchmark._sorted_keys is None:
            index = benchmark.series_index
            order = np.lexsort((benchmark.steps, benchmark.origins, index.codes))
            benchmark._sorted_keys = (_keys(index.codes, benchmark.origins, benchmark.steps)[order],
                                      order)
        sorted_keys, order = benchmark._sorted_keys
        own = self.series_index
        bench_codes = np.array([benchmark.series_index.position.get(sid, -1) for sid in own.series],
                               dtype=np.int64)
        wanted = _keys(bench_codes[own.codes], self.origins, self.steps)
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1)
        found = (_as_ints(sorted_keys[pos]) == _as_ints(wanted)).all(axis=1)
        if not found.all():
            i = int(found.argmin())
            raise ValidationError(
                f"benchmark frame is missing key ({self.series_ids[i]!r}, "
                f"{int(self.origins[i])}, {int(self.steps[i])})"
            )
        return col[order[pos]]


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


def benchmark_frame(
    dataset: Dataset,
    keys,
    kind: str = "naive",
    period: int | None = None,
    name: str | None = None,
) -> EvaluationFrame:
    """Generate benchmark forecasts for the given (series, origin, step) keys.

    Forecasts are produced per origin from the series prefix only, so no
    information after the origin leaks into the benchmark.
    """
    fc = Forecaster(kind=kind, period=period)
    name = name or kind
    by_origin: dict[tuple[str, int], list[int]] = {}
    keys = list(keys)
    for sid, origin, step in keys:
        by_origin.setdefault((sid, int(origin)), []).append(int(step))
    values: dict[tuple[str, int, int], float] = {}
    for (sid, origin), steps in by_origin.items():
        h = max(steps)
        f = fc.forecast(dataset[sid], origin, h)
        for k in steps:
            values[(sid, origin, k)] = float(f[k - 1])
    sids = [k[0] for k in keys]
    origins = [k[1] for k in keys]
    steps = [k[2] for k in keys]
    actuals = [dataset[sid].value_at(int(o) + int(k)) for sid, o, k in keys]
    col = np.array([values[(sid, int(o), int(k))] for sid, o, k in keys])
    return EvaluationFrame(sids, origins, steps, actuals, {name: col})
