from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forevalkit.core
from forevalkit import (
    DataValidationError,
    Dataset,
    EvaluationFrame,
    Forecaster,
    InsufficientHistoryError,
    TimeSeries,
    ValidationError,
    benchmark_frame,
    embed,
)
from forevalkit.core import _SUMMARISERS, Groups, _key_index, _row_sum
from forevalkit.measures import evaluate
from forevalkit.olsar import ArFit, fit_ar, one_step_predictions, recursive_forecast


def ts(values, **kw):
    return TimeSeries(id=kw.pop("id", "s"), values=np.asarray(values, dtype=float), **kw)


def forecast(series, origin, h, kind="naive", m=None):
    """The forecast from one origin: the one row of ``forecast_origins``."""
    return Forecaster(kind, m).forecast_origins(series, [origin], h)[0]


class TestTimeSeries:
    def test_invariants(self):
        s = ts([1, 2, 3])
        assert len(s) == 3
        assert s.value_at(3) == 3.0
        with pytest.raises(ValidationError):
            TimeSeries(id="x", values=np.array([]))
        with pytest.raises(ValidationError):
            TimeSeries(id="x", values=np.array([1.0, np.nan]))
        with pytest.raises(ValidationError):
            TimeSeries(id="x", values=np.array([1.0, 2.0]), timestamps=np.array([2, 1]))

    def test_immutable(self):
        s = ts([1, 2, 3])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_callers_arrays_stay_writable(self):
        values, timestamps = np.zeros(3), np.arange(1, 4, dtype=np.int64)
        s = TimeSeries("a", values, timestamps)
        values[0], timestamps[0] = 1.0, 0
        assert s.values[0] == 0.0 and s.timestamps[0] == 1

    def test_prefix(self):
        assert ts([1, 2, 3, 4]).prefix(2).tolist() == [1.0, 2.0]


class TestDataset:
    def test_unique_ids(self):
        with pytest.raises(ValidationError):
            Dataset((ts([1]), ts([2])))
        ds = Dataset((ts([1], id="a"), ts([2], id="b")))
        assert ds.ids() == ["a", "b"]
        assert ds["a"].values[0] == 1.0
        with pytest.raises(ValidationError):
            Dataset(())

    def test_series_are_stacked_into_three_arrays(self):
        a, b = ts([1, 2, 3], id="a", timestamps=[5, 7, 9]), ts([4.5, 5.5], id="b")
        ds = Dataset((a, b))
        assert ds.values.tolist() == [1, 2, 3, 4.5, 5.5] and ds.values.dtype == np.float64
        assert ds.timestamps.tolist() == [5, 7, 9, 1, 2] and ds.timestamps.dtype == np.int64
        assert ds.offsets.tolist() == [0, 3, 5] and ds.lengths.tolist() == [3, 2]
        for arr in (ds.values, ds.timestamps, ds.offsets, ds.lengths):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError, match="read-only"):
            ds.values = np.zeros(5)
        same = Dataset.from_arrays(["a", "b"], [1, 2, 3, 4.5, 5.5], [5, 7, 9, 1, 2], [0, 3, 5])
        assert [(s.id, s.values.tolist(), s.timestamps.tolist()) for s in same] == [
            (s.id, s.values.tolist(), s.timestamps.tolist()) for s in (a, b)]

    def test_series_are_read_only_views_made_on_demand(self, monkeypatch):
        ds = Dataset((ts([1, 2, 3], id="a"), ts([4, 5], id="b")))
        made = []
        monkeypatch.setattr(TimeSeries, "__post_init__", lambda s: made.append(s.id))
        b = ds["b"]
        assert b.id == "b" and len(b) == 2 and b.values.tolist() == [4.0, 5.0]
        assert np.shares_memory(b.values, ds.values) and np.shares_memory(b.timestamps, ds.timestamps)
        with pytest.raises(ValueError):
            b.values[0] = 9.0
        assert [len(s) for s in ds] == [3, 2] and ds.series == tuple(ds)
        assert made == []
        with pytest.raises(KeyError, match="unknown series id 'z'"):
            ds["z"]

    def test_callers_arrays_stay_writable(self):
        values, timestamps, offsets = np.zeros(3), np.arange(3), np.array([0, 3])
        ds = Dataset.from_arrays(["a"], values, timestamps, offsets)
        values[0] = timestamps[0] = offsets[1] = 1
        assert ds.values[0] == 0.0 and ds.timestamps[0] == 0 and ds.offsets[1] == 3

    @pytest.mark.parametrize("values, timestamps, message", [
        ([1, 2, np.nan, 4, np.inf, 6], [1, 2, 1, 2, 1, 2], "series 'b': missing values are rejected at ingestion"),
        ([1, 2, 3, np.inf, -np.inf, 6], [1, 2, 1, 2, 1, 2], "series 'b': values must be finite"),
        ([1, 2, 3, 4, np.nan, 6], [1, 2, 1, 1, 1, 2], "series 'b': timestamps must be strictly increasing"),
        ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 1, 1], "series 'c': timestamps must be strictly increasing"),
    ])
    def test_the_first_bad_series_is_named(self, values, timestamps, message):
        # series a, b, c hold two values each; a series' first timestamp follows none of its own
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Dataset.from_arrays(["a", "b", "c"], values, timestamps, [0, 2, 4, 6])

    def test_empty_series_and_misaligned_arrays_rejected(self):
        with pytest.raises(ValidationError, match="^series 'b': values must be a non-empty 1-d sequence$"):
            Dataset.from_arrays(["a", "b", "c"], [1.0, np.nan], [1, 1], [0, 1, 1, 2])
        for ids, values, timestamps, offsets in ((["a"], [1.0], [1], [0, 2]), (["a"], [1.0], [1, 2], [0, 1]),
                                                 (["a", "b"], [1.0, 2.0], [1, 2], [0, 2]),
                                                 (["a", "b"], [1.0, 2.0], [1, 2], [1, 0, 2])):
            with pytest.raises(ValidationError, match="^dataset arrays do not line up"):
                Dataset.from_arrays(ids, values, timestamps, offsets)
        with pytest.raises(ValidationError, match="^dataset series ids must be unique$"):
            Dataset.from_arrays(["a", "a"], [1.0, 2.0], [1, 2], [0, 1, 2])

    def test_locate_and_prefixes(self):
        ds = Dataset((ts([1, 2, 3], id="a", timestamps=[4, 5, 6]), ts([4, 5], id="b")))
        assert ds.locate(["b", "z", "a"]).tolist() == [1, -1, 0]
        heads = ds.prefixes(["b", "a"], [1, 2])
        assert heads.ids() == ["b", "a"] and heads.offsets.tolist() == [0, 1, 3]
        assert heads.values.tolist() == [4.0, 1.0, 2.0] and heads.timestamps.tolist() == [1, 4, 5]
        with pytest.raises(ValidationError, match=r"^position 3 outside series 'b' \(length 2\)$"):
            ds.prefixes(["a", "b"], [3, 3])
        with pytest.raises(KeyError, match="unknown series id 'z'"):
            ds.prefixes(["a", "z"], [1, 1])


def _frame(models=("m",)):
    return EvaluationFrame(["a", "a"], [1, 1], [1, 2], [1.0, 2.0], {m: [1.0, 3.0] for m in models})


@pytest.mark.parametrize("call, error, message", [
    (lambda: TimeSeries(id="s", values=[1.0, 2.0], timestamps=[1]), ValidationError,
     "^series 's': timestamps/values length mismatch$"),
    (lambda: embed(ts([1, 2, 3, 4]), 2).row_span(3), ValidationError, r"^row 3 out of range \(1..2\)$"),
    (lambda: embed(ts([1, 2, 3]), 0), ValidationError, "^embedding order must be >= 1$"),
    (lambda: EvaluationFrame(["a"], [1], [1], [1.0], {}), ValidationError,
     "^evaluation frame needs at least one model$"),
    (lambda: EvaluationFrame([], [], [], [], {"m": []}), ValidationError, "^evaluation frame is empty$"),
    (lambda: EvaluationFrame(["a"], [1], [1, 2], [1.0, 2.0], {"m": [1.0, 2.0]}), ValidationError,
     "^evaluation frame columns must have equal length$"),
    (lambda: _frame(("m", "n")).model_column("x"), ValidationError, r"^unknown model 'x'; frame has \['m', 'n'\]$"),
    (lambda: _frame().align_benchmark(_frame(("m", "n"))), ValidationError,
     "^benchmark frame must carry exactly one model$"),
    (lambda: recursive_forecast(ArFit(2, 0.0, np.array([0.5, 0.2])), [1.0], 3), InsufficientHistoryError,
     "^need 2 history values, got 1$"),
])
def test_malformed_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestNaiveForecast:
    def test_definition(self):
        assert forecast(ts([1, 2, 3]), 3, 2).tolist() == [3.0, 3.0]

    def test_single_point(self):
        assert forecast(ts([5]), 1, 1).tolist() == [5.0]

    def test_rolling_use(self):
        s = ts([1, 2, 3, 4, 5])
        assert forecast(s, 3, 1).tolist() == [3.0]
        assert forecast(s, 4, 1).tolist() == [4.0]

    def test_origin_out_of_range(self):
        with pytest.raises(ValidationError):
            forecast(ts([1, 2, 3]), 4, 1)
        with pytest.raises(ValidationError):
            forecast(ts([1, 2, 3]), 0, 1)

    def test_constant_over_horizon(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            s = ts(rng.normal(0, 1, n))
            origin = int(rng.integers(1, n + 1))
            f = forecast(s, origin, 7)
            assert np.ptp(f) == 0.0


class TestSeasonalNaive:
    def test_period_lookup(self):
        assert forecast(ts([1, 2, 1, 2]), 4, 2, "seasonal-naive", 2).tolist() == [1.0, 2.0]

    def test_m1_degenerates_to_naive(self):
        assert forecast(ts([1, 2, 3]), 3, 2, "seasonal-naive", 1).tolist() == [3.0, 3.0]

    def test_m1_equals_naive_fuzz(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            s = ts(rng.normal(0, 5, n))
            origin = int(rng.integers(1, n + 1))
            h = int(rng.integers(1, 10))
            assert np.array_equal(
                forecast(s, origin, h, "seasonal-naive", 1), forecast(s, origin, h)
            )

    def test_wraps_full_period(self):
        assert forecast(ts([10, 20, 30]), 3, 4, "seasonal-naive", 3).tolist() == [10.0, 20.0, 30.0, 10.0]

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError, match=r"for series 's' \(origin 2 < m 3\)$"):
            forecast(ts([1, 2, 3]), 2, 1, "seasonal-naive", 3)


class TestMeanForecast:
    def test_arithmetic_mean(self):
        assert forecast(ts([2, 4]), 2, 1, "mean").tolist() == [3.0]

    def test_constant_series(self):
        assert forecast(ts([5, 5, 5]), 3, 4, "mean").tolist() == [5.0] * 4

    def test_prefix_only_no_leakage(self):
        assert forecast(ts([1, 2, 3, 4]), 2, 2, "mean").tolist() == [1.5, 1.5]

    def test_perturbing_future_never_changes_output(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            values = rng.normal(0, 3, n)
            origin = int(rng.integers(1, n))
            base = forecast(ts(values), origin, 3, "mean")
            perturbed = values.copy()
            perturbed[origin] += rng.normal(0, 100)
            assert np.array_equal(base, forecast(ts(perturbed), origin, 3, "mean"))

    def test_equals_the_prefix_mean_bit_for_bit(self, rng):
        # 300 origins cross numpy's 8- and 128-element pairwise summation blocks
        values = rng.normal(0, 1e3, 300) * rng.choice([1e-9, 1.0, 1e9], 300)
        got = Forecaster("mean").forecast_origins(ts(values), np.arange(1, 301), 2)
        want = np.array([values[:o].mean() for o in range(1, 301)])
        assert got[:, 0].tobytes() == got[:, 1].tobytes() == want.tobytes()


class TestForecaster:
    def test_kinds(self):
        s = ts([1, 2, 3, 4])
        assert Forecaster("naive").forecast_origins(s, [4], 1)[0].tolist() == [4.0]
        assert Forecaster("seasonal-naive", period=2).forecast_origins(s, [4], 1)[0].tolist() == [3.0]
        assert Forecaster("mean").forecast_origins(s, [4], 1)[0].tolist() == [2.5]

    def test_seasonal_requires_period(self):
        with pytest.raises(ValidationError):
            Forecaster("seasonal-naive")


def _one_origin(kind, values, origin, h, m):
    """The one-origin benchmark forecasts, written out directly."""
    if kind == "naive":
        return np.full(h, values[origin - 1], dtype=float)
    if kind == "mean":
        return np.full(h, float(values[:origin].mean()), dtype=float)
    steps = np.arange(1, h + 1)
    return values[origin + steps - m * np.ceil(steps / m).astype(int) - 1].astype(float)


class TestForecastOrigins:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["naive", "seasonal-naive", "mean"]),
           n=st.integers(1, 40), m=st.integers(1, 12), h=st.integers(1, 30))
    def test_rows_are_the_one_origin_forecasts_bit_for_bit(self, data, kind, n, m, h):
        values = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
        first = m if kind == "seasonal-naive" else 1
        if first > n:
            m = first = n
        origins = data.draw(st.lists(st.integers(first, n), min_size=1, max_size=12))
        fc = Forecaster(kind, m if kind == "seasonal-naive" else None)
        s = ts(values)
        batch = fc.forecast_origins(s, origins, h)
        assert batch.shape == (len(origins), h)
        for row, origin in zip(batch, origins):
            want = _one_origin(kind, values, origin, h, m).tobytes()
            assert row.tobytes() == want
            assert fc.forecast_origins(s, [origin], h)[0].tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), h=st.integers(1, 30),
           period=st.none() | st.integers(-5, 60))
    def test_naive_is_seasonal_naive_with_period_one_whatever_its_period(self, data, n, h, period):
        # backtest passes --seasonal-period to every forecaster; naive reads none
        values = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
        origins = data.draw(st.lists(st.integers(1, n), max_size=12))
        naive = Forecaster("naive", period).forecast_origins(ts(values), origins, h)
        seasonal = Forecaster("seasonal-naive", 1).forecast_origins(ts(values), origins, h)
        assert naive.shape == seasonal.shape == (len(origins), h)
        assert naive.dtype == seasonal.dtype and naive.tobytes() == seasonal.tobytes()
        for bad in (0, n + 1):
            with pytest.raises(ValidationError, match=rf"^origin {bad} out of range for series 's'$"):
                Forecaster("naive", period).forecast_origins(ts(values), [*origins, bad], h)

    def test_origin_equal_to_period_and_horizon_past_it(self):
        s = ts([1, 2, 3, 4, 5, 6, 7])
        got = Forecaster("seasonal-naive", 3).forecast_origins(s, [3, 5], 7)
        assert got.tolist() == [[1, 2, 3, 1, 2, 3, 1], [3, 4, 5, 3, 4, 5, 3]]
        assert Forecaster("seasonal-naive", 1).forecast_origins(s, [1, 7], 2).tolist() == [
            [1, 1], [7, 7]]

    def test_no_origins(self):
        assert Forecaster("mean").forecast_origins(ts([1, 2]), [], 3).shape == (0, 3)

    def test_first_bad_origin_reported(self):
        s = ts([1, 2, 3, 4, 5], id="a")
        seasonal = Forecaster("seasonal-naive", 3)
        with pytest.raises(InsufficientHistoryError,
                           match=r"^seasonal naive needs at least one full period of history "
                                 r"for series 'a' \(origin 2 < m 3\)$"):
            seasonal.forecast_origins(s, [4, 2, 6], 1)
        with pytest.raises(ValidationError, match=r"^origin 6 out of range for series 'a'$") as exc:
            seasonal.forecast_origins(s, [4, 6, 2], 1)
        assert type(exc.value) is ValidationError
        for kind in ("naive", "mean"):
            with pytest.raises(ValidationError, match=r"^origin 0 out of range for series 'a'$"):
                Forecaster(kind).forecast_origins(s, [1, 0, 9], 2)
            with pytest.raises(ValidationError, match=r"^horizon must be >= 1$"):
                Forecaster(kind).forecast_origins(s, [1], 0)
        with pytest.raises(ValidationError, match=r"^origins must be integers, got float64 values$"):
            forecast(s, 2.5, 1)


def _reference_scale(values, kind, lags):
    """The in-sample scale of one series, computed on its own train values."""
    if kind == "mean":
        return values.mean()
    d = np.concatenate([values[lag:] - values[:-lag] for lag in lags])
    return np.abs(d).mean() if kind == "naive-mae" else (d * d).mean()


@st.composite
def stacked_cases(draw):
    """Series of unequal lengths up to 300 (past numpy's 8- and 128-value pairwise
    summation blocks) and values over 18 decades, a seasonal period, and windows
    (series, origin) over them in any order, repeats allowed."""
    lengths = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = [rng.normal(0, 1e3, n) * rng.choice([1e-9, 1.0, 1e9], n) for n in lengths]
    ds = Dataset(tuple(ts(v, id=f"s{j}") for j, v in enumerate(values)))
    window = st.integers(0, len(lengths) - 1).flatmap(
        lambda j: st.tuples(st.just(j), st.integers(1, lengths[j])))
    windows = draw(st.lists(window, max_size=60))
    return ds, values, windows, draw(st.integers(1, 12))


class TestStackedMatchesPerSeries:
    """The stacked forecasts and in-sample scales equal the per-series
    computation bit for bit, whatever the gather size."""

    @settings(max_examples=150, deadline=None)
    @given(case=stacked_cases(), h=st.integers(1, 20), gather=st.sampled_from([1 << 20, 1, 100]))
    def test_forecasts(self, case, h, gather):
        ds, values, windows, m = case
        for kind in ("naive", "seasonal-naive", "mean"):
            first = m if kind == "seasonal-naive" else 1
            mine = [(j, o) for j, o in windows if o >= first]
            series, origins = np.array(mine, dtype=np.int64).reshape(-1, 2).T
            with mock.patch.object(forevalkit.core, "_GATHER", gather):
                got = Forecaster(kind, m).forecast_windows(ds, series, origins, h)
            assert got.shape == (len(mine), h) and got.dtype == np.float64
            for row, (j, o) in zip(got, mine):
                assert row.tobytes() == _one_origin(kind, values[j], o, h, m).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(case=stacked_cases(), multistep_h=st.integers(1, 6), gather=st.sampled_from([1 << 20, 1, 100]))
    def test_scales(self, case, multistep_h, gather):
        from forevalkit.measures import engine

        ds, values, windows, m = case
        multi = {"scale_mode": "multi-step", "multistep_h": multistep_h}
        for kind, lags, constants in (
                ("mean", (), {}),
                ("naive-mae", (1,), {"scale_mode": "one-step", "seasonal_period": None}),
                ("naive-mae", (m,), {"scale_mode": "one-step", "seasonal_period": m}),
                ("naive-mse", (m,), {"scale_mode": "one-step", "seasonal_period": m}),
                ("naive-mae", tuple(range(1, multistep_h + 1)), multi),
                ("naive-mse", tuple(range(1, multistep_h + 1)), multi)):
            # a window's origin is its series' train length; one window per series, in window order
            origin = {f"s{j}": o for j, o in windows if o > max(lags, default=0)}
            if not origin:
                continue
            labels = tuple(origin)
            want = np.array([_reference_scale(values[int(sid[1:])][:o], kind, lags) for sid, o in origin.items()])
            for train in ({sid: values[int(sid[1:])][:o] for sid, o in origin.items()},
                          ds.prefixes(labels, list(origin.values()))):
                with mock.patch.object(forevalkit.core, "_GATHER", gather):
                    got = engine._train_scale("S", train, labels, kind, constants)
                assert got.tobytes() == want.tobytes()


class TestEmbed:
    def test_row_count(self):
        assert embed(ts(np.arange(10.0)), 3).n_rows == 7

    def test_smallest_case(self):
        m = embed(ts([1, 2, 3]), 1)
        assert m.predictors.tolist() == [[1.0], [2.0]]
        assert m.targets.tolist() == [2.0, 3.0]

    def test_boundary_one_row(self):
        assert embed(ts([1, 2, 3, 4]), 3).n_rows == 1

    def test_insufficient_length(self):
        with pytest.raises(InsufficientHistoryError):
            embed(ts([1, 2]), 2)

    def test_round_trip(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 50))
            p = int(rng.integers(1, n))
            values = rng.normal(0, 1, n)
            m = embed(ts(values), p)
            assert np.array_equal(m.reassemble(), values)
            assert m.row_span(1) == (1, p + 1)
            assert m.row_span(m.n_rows) == (n - p, n)

    def test_rows_are_consecutive_windows(self, rng):
        values = rng.normal(0, 1, 20)
        m = embed(ts(values), 4)
        for i in range(m.n_rows):
            window = np.concatenate([m.predictors[i], [m.targets[i]]])
            assert np.array_equal(window, values[i:i + 5])


class TestOlsAr:
    def test_exact_ar_recovered_with_lags_in_order(self):
        v = [2.0, -1.0]
        for _ in range(30):
            v.append(1.0 + 0.5 * v[-1] - 0.3 * v[-2])
        fit = fit_ar(v, 2)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(fit.coefficients, [0.5, -0.3], atol=1e-9)
        assert np.allclose(one_step_predictions(fit, v), v[2:], atol=1e-9)

    def test_short_input(self):
        with pytest.raises(InsufficientHistoryError):
            fit_ar([1.0, 2.0, 3.0], 3)
        with pytest.raises(InsufficientHistoryError):
            one_step_predictions(ArFit(3, 0.0, np.zeros(3)), [1.0, 2.0])


_BENCHMARK_KEY = st.tuples(
    st.sampled_from("abcd"),
    st.sampled_from([-2 ** 63, -7, 0, 1, 2, 5, 2 ** 62, 2 ** 63 - 1]),
    st.integers(1, 3),
)


@st.composite
def benchmark_keys(draw):
    """A frame's keys in any order, and a shuffled benchmark's: a superset with
    extra keys and extra series, or one that lacks some keys or a whole series."""
    own = draw(st.lists(_BENCHMARK_KEY, min_size=1, max_size=12, unique=True))
    theirs = list(dict.fromkeys(own + draw(st.lists(_BENCHMARK_KEY, max_size=8))))
    lack = draw(st.sampled_from(["nothing", "keys", "series"]))
    if lack == "keys":
        gone = set(draw(st.lists(st.sampled_from(own), min_size=1)))
    else:
        sid = draw(st.sampled_from(own))[0]
        gone = {k for k in theirs if k[0] == sid} if lack == "series" else set()
    return own, draw(st.permutations([k for k in theirs if k not in gone]))


class TestEvaluationFrame:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match=r"key \('a', 1, 1\)"):
            EvaluationFrame(["a", "a"], [1, 1], [1, 1], [1.0, 2.0], {"m": np.array([1.0, 2.0])})
        # the two rows are apart in the input, and another series shares the key's origin and step
        with pytest.raises(ValidationError, match=r"duplicate .* key \('b', 2, 3\)"):
            EvaluationFrame(["b", "a", "b", "b", "a"], [2, 2, 1, 2, 1], [3, 3, 3, 3, 3],
                            [1.0] * 5, {"m": np.ones(5)})

    def test_dense_across_models(self):
        # a model that lacks a forecast for some key has a shorter column
        with pytest.raises(ValidationError, match=r"^model 'm2': forecast column length mismatch$"):
            EvaluationFrame(["a", "a"], [1, 1], [1, 2], [1.0, 2.0], {"m1": np.ones(2), "m2": np.ones(1)})

    def test_actuals_model_invariant(self):
        frame = EvaluationFrame(["a", "a"], [1, 1], [1, 2], [1.0, 2.0],
                                {"m1": np.zeros(2), "m2": np.ones(2)})
        # actuals are stored once per key, so they cannot differ per model
        assert frame.actuals.tolist() == [1.0, 2.0]
        assert set(frame.models) == {"m1", "m2"}

    def test_model_column_needs_disambiguation(self):
        frame = EvaluationFrame(["a"], [1], [1], [1.0], {"m1": np.array([1.0]), "m2": np.array([2.0])})
        with pytest.raises(ValidationError):
            frame.model_column()

    def test_align_benchmark_missing_key(self):
        frame = _keys_frame([("a", 1, 1), ("a", 1, 2)], np.array([1.0, 2.0]))
        bench = EvaluationFrame(["a"], [1], [1], [1.0], {"b": np.array([1.0])})
        with pytest.raises(ValidationError, match=r"missing key \('a', 1, 2\)"):
            frame.align_benchmark(bench)
        # rows in another order, plus keys the frame does not hold
        superset = EvaluationFrame(["b", "a", "a", "a"], [1, 1, 2, 1], [1, 2, 1, 1], [0.0, 2.0, 0.0, 1.0],
                                   {"b": np.array([9.0, 20.0, 8.0, 10.0])})
        assert frame.align_benchmark(superset).tolist() == [10.0, 20.0]

    @settings(max_examples=200, deadline=None)
    @given(case=benchmark_keys())
    def test_align_benchmark_matches_dict_join(self, case):
        own, theirs = case
        assume(theirs)
        frame = EvaluationFrame(*zip(*own), np.zeros(len(own)), {"m": np.zeros(len(own))})
        values = np.arange(len(theirs)) * 1.1 + 0.1
        bench = EvaluationFrame(*zip(*theirs), np.zeros(len(theirs)), {"b": values})
        join = dict(zip(theirs, values.tolist()))
        missing = [k for k in own if k not in join]
        if missing:
            with pytest.raises(ValidationError) as info:
                frame.align_benchmark(bench)
            assert str(info.value) == f"benchmark frame is missing key {missing[0]!r}"
        else:
            expected = np.array([join[k] for k in own])
            assert frame.align_benchmark(bench).tobytes() == expected.tobytes()

    def test_step_below_one_rejected(self):
        for bad in (0, -20):
            with pytest.raises(ValidationError, match=r"^horizon steps must be >= 1$"):
                _keys_frame([("a", 3, 1), ("a", 4, bad)])

    def test_series_index(self):
        frame = EvaluationFrame(["b", "a", "b", "c", "a"], [1] * 5, [1, 1, 2, 1, 2],
                                [1.0] * 5, {"m": np.ones(5)})
        index = frame.series_index
        assert index is frame.series_index  # computed once
        assert frame.unique_series() == ["b", "a", "c"]
        assert index.codes.tolist() == [0, 1, 0, 2, 1]
        assert index.order.tolist() == [0, 2, 1, 4, 3]
        assert index.starts.tolist() == [0, 2, 4, 5]

    def test_key_index(self):
        frame = EvaluationFrame(["b", "a", "b", "a"], [2, 1, 1, 1], [1, 2, 1, 1],
                                [1.0] * 4, {"m": np.ones(4)})
        assert frame.key_order.tolist() == [2, 0, 3, 1]
        for arr in (frame.key_order, frame.series_index.codes,
                    frame.series_index.order, frame.series_index.starts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        # equal keys share one dense id, numbered in sorted key order
        key_order, key_ids, windows = _key_index(
            np.array([1, 0, 1, 0, 0]), np.array([1, 2, 1, 2, 2]), np.array([1, 1, 1, 2, 1]))
        assert key_order.tolist() == [1, 4, 3, 0, 2]
        assert key_ids.tolist() == [0, 0, 1, 2, 2]
        assert windows.labels.tolist() == [[0, 2], [1, 1]]
        with pytest.raises(ValueError, match="read-only"):
            key_ids[0] = 1

    @pytest.mark.parametrize("column", ["actual", "forecast"])
    def test_non_finite_values_rejected(self, column):
        values = {"actual": [1.0, 2.0, 3.0], "forecast": [1.0, 2.0, 3.0]}
        values[column][1] = np.nan
        with pytest.raises(DataValidationError, match=r"key \('a', 1, 2\)") as info:
            EvaluationFrame(["a"] * 3, [1] * 3, [1, 2, 3], values["actual"],
                            {"m": np.array(values["forecast"])})
        assert ("model 'm'" in str(info.value)) == (column == "forecast")
        values[column][1] = np.inf
        with pytest.raises(DataValidationError):
            EvaluationFrame(["a"] * 3, [1] * 3, [1, 2, 3], values["actual"],
                            {"m": np.array(values["forecast"])})


@st.composite
def grouped_rows(draw):
    """Shuffled rows in groups of unequal sizes (sometimes one group), their
    values (zeros included), and a mask that empties some groups."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    keys = [f"g{g}" for g, size in enumerate(sizes) for _ in range(size)]
    keys = [keys[i] for i in draw(st.permutations(range(len(keys))))]
    values = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=len(keys), max_size=len(keys))))
    mask = np.array(draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys))))
    emptied = draw(st.sets(st.sampled_from(sorted(set(keys)))))
    mask &= ~np.isin(keys, sorted(emptied))
    return keys, values, mask


def _own_reduction(op, v):
    """One group's reduction of its own 1-d array."""
    if op == "sum":
        return v.sum()
    if op == "mean":
        return v.mean()
    if op == "median":
        return np.median(v)
    return 0.0 if (v == 0).any() else np.exp(np.log(np.abs(v)).mean())


class TestGroups:
    @settings(max_examples=150, deadline=None)
    @given(case=grouped_rows(), use_mask=st.booleans())
    def test_reduce_equals_each_groups_own_reduction(self, case, use_mask):
        keys, values, mask = case
        if not use_mask:
            mask = np.ones(len(keys), dtype=bool)
        for groups, labels in ((Groups.of(keys), list(dict.fromkeys(keys))),
                               (Groups.pooled(len(keys)), [None])):
            assert list(groups.labels) == labels and len(groups) == len(labels)
            members = [np.array(keys) == label if label else np.ones(len(keys), dtype=bool)
                       for label in labels]
            assert groups.count(mask).tolist() == [int((rows & mask).sum()) for rows in members]
            for op, reducer in {"sum": _row_sum, **_SUMMARISERS}.items():
                got = groups.reduce(values, reducer, mask if use_mask else None)
                for j, rows in enumerate(members):
                    if not (rows & mask).any():
                        assert np.isnan(got[j])
                    else:
                        want = np.float64(_own_reduction(op, values[rows & mask]))
                        assert got[j].tobytes() == want.tobytes(), (op, j)

    def test_one_group_and_expand(self):
        groups = Groups.of(["a", "b", "a"])
        assert groups.sizes.tolist() == [2, 1]
        assert groups.expand(np.array([1.5, 2.5])).tolist() == [1.5, 2.5, 1.5]
        assert groups.as_dict(np.array([1.5, 2.5])) == {"a": 1.5, "b": 2.5}
        pooled = Groups.pooled(3)
        assert pooled.order.tolist() == [0, 1, 2] and pooled.starts.tolist() == [0, 3]
        assert pooled.expand(np.array([4.0])).tolist() == [4.0] * 3

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_window_running_mean_matches_per_window_cumsum(self, data):
        keys = []
        for s in range(data.draw(st.integers(1, 4))):
            for origin in data.draw(st.sets(st.integers(1, 9), min_size=1, max_size=3)):
                steps = data.draw(st.sets(st.integers(1, 8), min_size=1, max_size=6))  # gaps
                keys += [(f"s{s}", origin, k) for k in steps]
        keys = [keys[i] for i in data.draw(st.permutations(range(len(keys))))]
        value = st.floats(-1e8, 1e8, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-8)
        y, f = (np.array(data.draw(st.lists(value, min_size=len(keys), max_size=len(keys))))
                for _ in range(2))
        sids, origins, steps = (list(c) for c in zip(*keys))
        frame = EvaluationFrame(sids, origins, steps, y, {"m": f})
        windows = frame.windows
        want = np.empty(len(keys))
        for (code, origin), lo, hi in zip(windows.labels, windows.starts[:-1], windows.starts[1:]):
            rows = windows.order[lo:hi]
            assert (frame.series_index.codes[rows] == code).all() and (frame.origins[rows] == origin).all()
            assert (np.diff(frame.steps[rows]) > 0).all()
            want[rows] = f[rows] - np.cumsum(y[rows]) / np.arange(1, rows.size + 1)
        assert sorted(set(zip(sids, origins))) == sorted(
            {(sids[i], origins[i]) for i in windows.order[windows.starts[:-1]]})
        assert (windows.codes[windows.order] == np.repeat(np.arange(len(windows)), windows.sizes)).all()
        r = evaluate("MAR", frame)
        assert r.value == np.abs(want).mean()
        for sid, got in r.per_series.items():
            assert got == np.abs(want[np.array(sids) == sid]).mean()


def _keys_frame(keys, actuals=None):
    """A one-model frame on ``keys`` (zero forecasts; zero actuals unless given)."""
    actuals = np.zeros(len(keys)) if actuals is None else actuals
    return EvaluationFrame(*zip(*keys), actuals, {"m": np.zeros(len(keys))})


@st.composite
def benchmark_cases(draw):
    """Series of several lengths, a seasonal period, and a frame's unique keys over
    them in shuffled order, each origin at least one period in and each target
    inside its series, with actuals of the frame's own."""
    m = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(m + 1, 30), min_size=1, max_size=4))
    values = [draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))
              for n in lengths]
    key = st.integers(0, len(lengths) - 1).flatmap(lambda j: st.integers(m, lengths[j] - 1).flatmap(
        lambda o: st.tuples(st.just(f"s{j}"), st.just(o), st.integers(1, lengths[j] - o))))
    keys = draw(st.permutations(draw(st.lists(key, min_size=1, max_size=40, unique=True))))
    actuals = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(keys),
                            max_size=len(keys)))
    return m, values, keys, np.array(actuals)


class TestBenchmarkFrame:
    def test_naive_keys(self):
        ds = Dataset((ts([1, 2, 3, 4, 5], id="a"),))
        bf = benchmark_frame(ds, _keys_frame([("a", 3, 1), ("a", 3, 2)], np.array([4.0, 5.0])),
                             kind="naive")
        assert bf.forecasts["naive"].tolist() == [3.0, 3.0]
        assert bf.actuals.tolist() == [4.0, 5.0]

    def test_target_past_series_end(self):
        ds = Dataset((ts([1, 2, 3, 4, 5], id="a"), ts([1, 2, 3], id="b")))
        with pytest.raises(ValidationError, match=r"^position 4 outside series 'b' \(length 3\)$"):
            benchmark_frame(ds, _keys_frame(
                [("a", 3, 2), ("b", 2, 1), ("a", 4, 1), ("b", 2, 2), ("a", 4, 2)]))

    @pytest.mark.parametrize("origin, step", [(3, 2 ** 40), (2 ** 63 - 2, 5)])
    def test_far_target_rejected_before_the_forecast_table(self, origin, step):
        # a (windows x 2**40) table would need 8 TiB: the target check comes first;
        # origin + step beyond int64 is reported as the position it names
        ds = Dataset((ts([1, 2, 3, 4, 5], id="a"),))
        with pytest.raises(ValidationError,
                           match=rf"^position {origin + step} outside series 'a' \(length 5\)$"):
            benchmark_frame(ds, _keys_frame([("a", 2, 1), ("a", origin, step)]))

    def test_mean_uses_prefix_only(self):
        ds = Dataset((ts([2, 4, 100, 100], id="a"),))
        bf = benchmark_frame(ds, _keys_frame([("a", 2, 1)]), kind="mean")
        assert bf.forecasts["mean"].tolist() == [3.0]

    @settings(max_examples=150, deadline=None)
    @given(case=benchmark_cases())
    def test_interleaved_keys_match_one_origin_forecasts(self, case):
        m, values, keys, actuals = case
        ds = Dataset(tuple(ts(v, id=f"s{j}") for j, v in enumerate(values)))
        frame = _keys_frame(keys, actuals)
        for kind in ("naive", "seasonal-naive", "mean"):
            bf = benchmark_frame(ds, frame, kind=kind, period=m)
            assert bf.models == [kind]
            for col in ("series_ids", "origins", "steps", "actuals"):
                assert getattr(bf, col) is getattr(frame, col)
            for i, (sid, origin, step) in enumerate(keys):
                want = _one_origin(kind, ds[sid].values, origin, step, m)[-1]
                assert bf.forecasts[kind][i].tobytes() == want.tobytes()

    def test_reuses_the_frame_index(self, monkeypatch):
        frame = _keys_frame([("b", 3, 2), ("a", 2, 1), ("b", 3, 1), ("a", 4, 1)])
        ds = Dataset((ts([1, 2, 3, 4, 5], id="a"), ts([6, 7, 8, 9, 10], id="b")))
        calls = []
        monkeypatch.setattr(Groups, "of", lambda keys: calls.append("Groups.of"))
        monkeypatch.setattr(forevalkit.core, "_key_index", lambda *a: calls.append("_key_index"))
        bf = benchmark_frame(ds, frame, kind="naive")
        assert calls == []
        for index in ("series_index", "windows", "key_order"):
            assert getattr(bf, index) is getattr(frame, index)
        assert bf.forecasts["naive"].tolist() == [8.0, 2.0, 8.0, 4.0]
        assert not bf.forecasts["naive"].flags.writeable
        assert frame.models == ["m"]

    def test_unknown_series_rejected(self):
        ds = Dataset((ts([1, 2, 3, 4, 5], id="a"),))
        with pytest.raises(ValidationError, match=r"^benchmark key \('zz', 1, 1\): series 'zz' not in the"):
            benchmark_frame(ds, _keys_frame([("a", 2, 1), ("zz", 1, 1), ("zz", 2, 1)]))
