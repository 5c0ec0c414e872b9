"""Executable reproductions of known forecast-evaluation failure modes.

Each scenario constructs synthetic data on which a measure (or benchmark
choice) misbehaves in a documented way, and checks a qualitative predicate:
an ordering inversion, a bound, or a distortion direction. Verdicts are
deterministic under a fixed seed. Predicates are qualitative on purpose;
no exact figure values are asserted.

To add a scenario, decorate a ``check(seed) -> (passed, evidence)`` function
with ``@_scenario(name, topic, description)``. The catalogue lists scenarios
in definition order, and ``evidence.csv`` writes each evidence dict's keys in
insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, EvaluationFrame, TimeSeries, ValidationError, benchmark_frame
from .measures.engine import evaluate
from .olsar import fit_ar, recursive_forecast
from .synth import DgpSpec, OutlierInjection, derive_seed, generate, inject_outliers

__all__ = ["Scenario", "ScenarioResult", "list_scenarios", "run_scenario", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20240917


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    passed: bool
    evidence: dict
    description: str


@dataclass(frozen=True)
class Scenario:
    name: str
    topic: str
    description: str
    run: callable


_CATALOGUE: dict[str, Scenario] = {}


def _scenario(name: str, topic: str, description: str):
    """Register a ``check(seed) -> (passed, evidence)`` function as a scenario."""
    def register(check):
        def run(seed: int) -> ScenarioResult:
            passed, evidence = check(seed)
            return ScenarioResult(name=name, passed=passed, evidence=evidence,
                                  description=description)
        _CATALOGUE[name] = Scenario(name=name, topic=topic, description=description, run=run)
        return check
    return register


def _single_series_frame(sid, origin, actuals, forecasts_by_model) -> EvaluationFrame:
    h = len(actuals)
    return EvaluationFrame(
        [sid] * h,
        [origin] * h,
        list(range(1, h + 1)),
        actuals,
        {m: np.asarray(f, dtype=float) for m, f in forecasts_by_model.items()},
    )


def _shifted_frame(series: TimeSeries, origin: int, h: int, shift: float) -> EvaluationFrame:
    """One horizon of ``series`` from ``origin``, forecast by the actuals plus ``shift``."""
    actual = series.values[origin: origin + h]
    return _single_series_frame(series.id, origin, actual, {"model": actual + shift})


def _rolling_one_step_frame(series: TimeSeries, start: int, deviation: float) -> EvaluationFrame:
    """One-step rolling-origin frame with forecasts a fixed deviation off the actuals."""
    origins = list(range(start, len(series)))
    actuals = [series.value_at(o + 1) for o in origins]
    return EvaluationFrame([series.id] * len(origins), origins, [1] * len(origins), actuals,
                           {"model": np.asarray(actuals) + deviation})


def _mae_and_naive_mrae(dataset: Dataset, frames: dict) -> dict:
    """``mae_<label>`` for each labelled frame, then ``mrae_<label>``.

    The MRAE's benchmark is the naive forecast on the frame's own keys.
    """
    mae, mrae = {}, {}
    for label, frame in frames.items():
        bench = benchmark_frame(dataset, frame, kind="naive")
        mae[f"mae_{label}"] = evaluate("MAE", frame).value
        mrae[f"mrae_{label}"] = evaluate("MRAE", frame, benchmark=bench).value
    return mae | mrae


def _peak_trough_miss(series: TimeSeries, origin: int, h: int, miss: float):
    """The same miss at the horizon's highest and at its lowest actual, under MAE and MAPE.

    Passes when the MAEs tie and MAPE weighs the peak miss less.
    """
    actual = series.values[origin: origin + h]
    peak, trough = int(np.argmax(actual)), int(np.argmin(actual))
    forecasts = {"peak-miss": actual.copy(), "trough-miss": actual.copy()}
    forecasts["peak-miss"][peak] -= miss
    forecasts["trough-miss"][trough] -= miss
    frame = _single_series_frame(series.id, origin, actual, forecasts)
    mae_p, mae_t = (evaluate("MAE", frame, model=m).value for m in forecasts)
    mape_p, mape_t = (evaluate("MAPE", frame, model=m).value for m in forecasts)
    return (mae_p == mae_t) and (mape_p < mape_t), {
        "mae_peak_miss": mae_p, "mae_trough_miss": mae_t,
        "mape_peak_miss": mape_p, "mape_trough_miss": mape_t,
        "peak_actual": float(actual[peak]), "trough_actual": float(actual[trough])}


@_scenario(
    "naive-beats-ar-on-random-walk", "unit-roots",
    "On seeded random walks the last-value forecast attains mean squared error no "
    "worse than an autoregression trained on levels; apparent wins over it are spurious.",
)
def _naive_vs_ar(seed: int):
    n, h, reps, order = 1000, 10, 200, 5
    actual, naive, ar = [], [], []
    for i in range(reps):
        series = generate(DgpSpec(kind="random-walk", length=n, seed=derive_seed(seed, i)))
        train = series.values[: n - h]
        actual.append(series.values[n - h:])
        naive.append(np.full(h, train[-1]))
        ar.append(recursive_forecast(fit_ar(train, order), train, h))
    # replication i is series i of one frame
    frame = EvaluationFrame(np.repeat(np.arange(reps), h), np.full(reps * h, n - h),
                            np.tile(np.arange(1, h + 1), reps), np.concatenate(actual),
                            {"naive": np.concatenate(naive), "ar": np.concatenate(ar)})
    mean_naive, mean_ar = (float(np.mean(list(evaluate("MSE", frame, model=m).per_series.values())))
                           for m in ("naive", "ar"))
    return mean_naive <= mean_ar, {"replications": reps, "mean_mse_naive": mean_naive,
                                   "mean_mse_ar": mean_ar}


@_scenario(
    "percentage-errors-miss-seasonal-peaks", "seasonality",
    "Two forecasts with identical absolute error, one missing the seasonal peak and one "
    "the trough, get opposite percentage-error verdicts: the peak miss is under-weighted.",
)
def _mape_seasonal(seed: int):
    series = generate(DgpSpec(kind="seasonal", length=48, seed=seed, level=100.0,
                              amplitude=90.0, period=12, noise_sd=1.0))
    return _peak_trough_miss(series, origin=36, h=12, miss=8.0)


@_scenario(
    "relative-errors-reward-bad-benchmarks", "count-data",
    "On a rapidly alternating series the one-step benchmark collapses, so a model with "
    "higher absolute error scores a lower relative error than a better model on a calm series.",
)
def _mrae_negative_ar(seed: int):
    rng = np.random.default_rng(seed)
    n, start = 260, 200
    t = np.arange(n)
    jumpy = TimeSeries(id="jumpy", values=100.0 + 15.0 * (-1.0) ** t + rng.normal(0, 1.0, n))
    calm = TimeSeries(id="calm", values=100.0 + rng.normal(0, 0.5, n))
    evidence = _mae_and_naive_mrae(Dataset((jumpy, calm)), {
        "jumpy_model": _rolling_one_step_frame(jumpy, start, 0.5),
        "calm_model": _rolling_one_step_frame(calm, start, 0.3)})
    mae_a, mae_b, mrae_a, mrae_b = evidence.values()
    return (mae_a > mae_b) and (mrae_a < mrae_b), evidence


@_scenario(
    "relative-errors-shrink-on-trends", "trends",
    "On a strongly trended series the fixed-origin benchmark errors grow with the horizon, "
    "deflating relative errors below 1 for a model identical to one on a flat series.",
)
def _mrae_trend(seed: int):
    trended = generate(DgpSpec(kind="linear-trend", length=120, seed=seed,
                               level=100.0, trend_slope=5.0, noise_sd=1.0,
                               series_id="trended"))
    flat = generate(DgpSpec(kind="linear-trend", length=120, seed=seed + 1,
                            level=100.0, trend_slope=0.0, noise_sd=1.0, series_id="flat"))
    evidence = _mae_and_naive_mrae(Dataset((trended, flat)), {
        s.id: _shifted_frame(s, origin=100, h=20, shift=-2.0) for s in (trended, flat)})
    mae_t, mae_f, mrae_t, mrae_f = evidence.values()
    return (abs(mae_t - mae_f) < 1e-9) and (mrae_t < 1.0 < mrae_f), evidence


@_scenario(
    "log-errors-vanish-on-exponential-trends", "trends",
    "With an exponential trend, a twice-as-large absolute miss late in the horizon produces "
    "a smaller log error than a small early miss, inverting the absolute-error ordering.",
)
def _log_exp_trend(seed: int):
    series = generate(DgpSpec(kind="exponential-trend", length=100, seed=seed,
                              trend_scale=100.0, trend_rate=0.05, noise_sd=0.0))
    origin, h = 80, 20
    actual = series.values[origin: origin + h]
    late = actual.copy()
    late[-1] -= 1000.0  # big absolute miss at a high level
    early = actual.copy()
    early[0] -= 500.0  # half the miss at a much lower level
    frame = _single_series_frame(series.id, origin, actual,
                                 {"late-big-miss": late, "early-small-miss": early})
    mae_late = evaluate("MAE", frame, model="late-big-miss").value
    mae_early = evaluate("MAE", frame, model="early-small-miss").value
    rmsle_late = evaluate("RMSLE", frame, model="late-big-miss").value
    rmsle_early = evaluate("RMSLE", frame, model="early-small-miss").value
    return (mae_late > mae_early) and (rmsle_late < rmsle_early), {
        "mae_late_big_miss": mae_late, "mae_early_small_miss": mae_early,
        "rmsle_late_big_miss": rmsle_late, "rmsle_early_small_miss": rmsle_early}


@_scenario(
    "wape-inflates-after-horizon-break", "structural-breaks",
    "A level drop inside the horizon shrinks the per-series scale, so the same miss at the "
    "same point counts for more than on a series without the break.",
)
def _wape_break(seed: int):
    rng = np.random.default_rng(seed)
    h = 20
    base = 100.0 + rng.normal(0, 0.5, h)
    with_break = base.copy()
    with_break[10:] -= 80.0  # regime drop inside the horizon
    miss_at = 4
    f_break = with_break.copy()
    f_break[miss_at] -= 10.0
    f_flat = base.copy()
    f_flat[miss_at] -= 10.0

    frame_a = _single_series_frame("break", 100, with_break, {"model": f_break})
    frame_b = _single_series_frame("flat", 100, base, {"model": f_flat})
    wape_a = evaluate("WAPE", frame_a).value
    wape_b = evaluate("WAPE", frame_b).value
    return wape_a > wape_b, {"wape_with_break": wape_a, "wape_without_break": wape_b,
                             "identical_error_at_step": miss_at + 1}


@_scenario(
    "in-sample-scale-break-skews-smae", "structural-breaks",
    "With identical test-region actuals and forecasts, in-sample mean scaling reports a "
    "higher error for the series whose training region contains a level shift.",
)
def _smae_break(seed: int):
    rng = np.random.default_rng(seed)
    train_break = np.concatenate([100.0 + rng.normal(0, 1, 50), 20.0 + rng.normal(0, 1, 50)])
    train_flat = 100.0 + rng.normal(0, 1, 100)
    actual = 20.0 + rng.normal(0, 1, 10)
    forecasts = actual + 5.0

    frame_a = _single_series_frame("break-in-sample", 100, actual, {"model": forecasts})
    frame_b = _single_series_frame("flat-in-sample", 100, actual, {"model": forecasts})
    smae_a = evaluate("sMAE", frame_a, train={"break-in-sample": train_break}).value
    smae_b = evaluate("sMAE", frame_b, train={"flat-in-sample": train_flat}).value
    return smae_a > smae_b, {"smae_break_in_training": smae_a, "smae_flat_training": smae_b,
                             "train_mean_break": float(train_break.mean()),
                             "train_mean_flat": float(train_flat.mean())}


@_scenario(
    "break-at-origin-breaks-mase", "structural-breaks",
    "A level shift at the forecast origin keeps the in-sample benchmark scale tiny, so the "
    "scaled error exceeds 1 even though the model clearly beats the benchmark out of sample.",
)
def _mase_break(seed: int):
    rng = np.random.default_rng(seed)
    train = 100.0 + rng.normal(0, 0.3, 100)
    actual = 20.0 + rng.normal(0, 1.0, 10)
    model = actual + 1.0
    naive = np.full(10, train[-1])

    frame = _single_series_frame("s", 100, actual, {"model": model})
    mase = evaluate("MASE", frame, train={"s": train}).value
    model_oos_mae = float(np.abs(actual - model).mean())
    naive_oos_mae = float(np.abs(actual - naive).mean())
    return (mase > 1.0) and (model_oos_mae < naive_oos_mae), {
        "mase": mase, "model_oos_mae": model_oos_mae, "naive_oos_mae": naive_oos_mae}


@_scenario(
    "corr-ignores-constant-bias", "bias",
    "A forecast shifted by a constant correlates perfectly with the actuals, so a "
    "correlation score prefers a heavily biased model over a nearly unbiased one.",
)
def _corr_bias(seed: int):
    rng = np.random.default_rng(seed)
    series = generate(DgpSpec(kind="random-walk", length=50, seed=seed, level=50.0))
    origin, h = 30, 20
    actual = series.values[origin: origin + h]
    biased = actual + 10.0
    noisy = actual + rng.normal(0, 2.0, h)
    frame = _single_series_frame(series.id, origin, actual, {"biased": biased, "noisy": noisy})
    corr_biased = evaluate("CORR", frame, model="biased").value
    corr_noisy = evaluate("CORR", frame, model="noisy").value
    me_biased = evaluate("ME", frame, model="biased").value
    mae_biased = evaluate("MAE", frame, model="biased").value
    mae_noisy = evaluate("MAE", frame, model="noisy").value
    return (abs(corr_biased - 1.0) < 1e-12 and abs(me_biased + 10.0) < 1e-12
            and corr_biased > corr_noisy and mae_biased > mae_noisy), {
        "corr_biased": corr_biased, "corr_noisy": corr_noisy,
        "me_biased": me_biased, "mae_biased": mae_biased, "mae_noisy": mae_noisy}


@_scenario(
    "geometric-mean-collapses-on-one-perfect-hit", "aggregation",
    "A single zero error sends a geometric-mean measure to exactly zero, crowning a model "
    "that is far worse everywhere else.",
)
def _gm_zero(seed: int):
    rng = np.random.default_rng(seed)
    actual = 50.0 + rng.normal(0, 5.0, 10)
    lucky = actual + 50.0
    lucky[0] = actual[0]  # one exact hit, terrible elsewhere
    steady = actual + 1.0
    frame = _single_series_frame("s", 10, actual, {"lucky": lucky, "steady": steady})
    gmae_lucky = evaluate("GMAE", frame, model="lucky")
    gmae_steady = evaluate("GMAE", frame, model="steady")
    mae_lucky = evaluate("MAE", frame, model="lucky").value
    mae_steady = evaluate("MAE", frame, model="steady").value
    return (gmae_lucky.value == 0.0
            and "geometric-mean-zero-term" in gmae_lucky.flags
            and gmae_lucky.value < gmae_steady.value
            and mae_lucky > mae_steady), {
        "gmae_lucky": gmae_lucky.value, "gmae_steady": gmae_steady.value,
        "mae_lucky": mae_lucky, "mae_steady": mae_steady}


@_scenario(
    "absolute-errors-prefer-all-zero-forecasts-on-intermittent", "intermittency",
    "On a mostly-zero demand series, absolute errors reward forecasting constant zeros, "
    "while squared errors prefer the mean demand rate.",
)
def _intermittent(seed: int):
    n, origin = 4000, 1000
    series = generate(DgpSpec(kind="intermittent", length=n, seed=seed,
                              zero_probability=0.8, demand_rate=2.0))
    actual = series.values[origin:]
    h = actual.size
    train_mean = float(series.values[:origin].mean())
    frame = _single_series_frame(series.id, origin, actual,
                                 {"all-zeros": np.zeros(h), "mean-rate": np.full(h, train_mean)})
    mae_zero = evaluate("MAE", frame, model="all-zeros").value
    mae_mean = evaluate("MAE", frame, model="mean-rate").value
    rmse_zero = evaluate("RMSE", frame, model="all-zeros").value
    rmse_mean = evaluate("RMSE", frame, model="mean-rate").value
    return (mae_zero < mae_mean) and (rmse_mean < rmse_zero), {
        "mae_all_zeros": mae_zero, "mae_mean_rate": mae_mean,
        "rmse_all_zeros": rmse_zero, "rmse_mean_rate": rmse_mean,
        "zero_fraction": float((actual == 0).mean())}


@_scenario(
    "outlier-at-origin-shrinks-relative-errors", "outliers",
    "A low outlier at the forecast origin wrecks the benchmark's holdout errors, so the "
    "model's relative errors collapse although its own errors are unchanged.",
)
def _outlier_origin(seed: int):
    clean = generate(DgpSpec(kind="heteroscedastic", length=120, seed=seed,
                             level=100.0, noise_sd=2.0, series_id="clean"))
    origin = 100
    spiked, log = inject_outliers(
        clean, OutlierInjection(indices=(origin,), magnitude=10.0, mode="multiply",
                                direction="low"), seed=seed)
    spiked = TimeSeries(id="spiked", values=spiked.values)
    evidence = _mae_and_naive_mrae(Dataset((clean, spiked)), {
        label: _shifted_frame(s, origin, h=20, shift=3.0)
        for label, s in (("clean", clean), ("with_outlier", spiked))})
    mae_clean, mae_spiked, mrae_clean, mrae_spiked = evidence.values()
    evidence["outlier"] = {"index": log[0][0], "old": log[0][1], "new": log[0][2]}
    return (abs(mae_clean - mae_spiked) < 1e-9) and (mrae_spiked < mrae_clean), evidence


@_scenario(
    "percentage-errors-distort-heteroscedastic-extremes", "heteroscedasticity",
    "When late-series variance widens the range, identical misses at the high and low "
    "extremes get opposite percentage-error weight.",
)
def _heteroscedastic(seed: int):
    series = generate(DgpSpec(kind="heteroscedastic", length=200, seed=seed,
                              level=50.0, noise_sd=1.0, sigma_end_factor=15.0))
    passed, evidence = _peak_trough_miss(series, origin=100, h=100, miss=4.0)
    del evidence["mae_peak_miss"], evidence["mae_trough_miss"]
    return passed, evidence


def list_scenarios() -> list[Scenario]:
    """Stable catalogue of registered scenarios."""
    return list(_CATALOGUE.values())


def run_scenario(name: str, seed: int = DEFAULT_SEED) -> ScenarioResult:
    try:
        scenario = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(_CATALOGUE)
        raise ValidationError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return scenario.run(seed)


def run_all(seed: int = DEFAULT_SEED) -> list[ScenarioResult]:
    return [scenario.run(seed) for scenario in _CATALOGUE.values()]
