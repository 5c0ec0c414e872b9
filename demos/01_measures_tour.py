"""
A tour of the error measures
============================

Build one aligned evaluation frame, then walk through the measure families:
scale-dependent errors, percentage errors, aggregate-scaled errors,
benchmark-relative errors, in-sample-scaled errors, transformations, and the
undefined-value policies that govern zero denominators.
"""

import numpy as np

from forevalkit import (
    Dataset,
    EvaluationFrame,
    benchmark_frame,
    evaluate,
    generate,
    DgpSpec,
)

# --- one synthetic series, one holdout window ---------------------------

series = generate(DgpSpec(kind="seasonal", length=48, seed=7, level=100.0,
                          amplitude=30.0, period=12, noise_sd=2.0, series_id="sales"))
origin, h = 36, 12
actual = series.values[origin:origin + h]

rng = np.random.default_rng(1)
frame = EvaluationFrame(
    ["sales"] * h, [origin] * h, range(1, h + 1), actual,
    {"close": actual + rng.normal(0, 2.0, h),
     "biased": actual + 8.0},
)

# --- scale-dependent measures keep the series' units --------------------

for model in frame.models:
    mae = evaluate("MAE", frame, model=model).value
    rmse = evaluate("RMSE", frame, model=model).value
    me = evaluate("ME", frame, model=model).value
    print(f"{model:>7}: MAE={mae:6.3f}  RMSE={rmse:6.3f}  ME={me:+6.3f}")

# the mean error keeps its sign: the biased model shows ME = -8 because the
# forecast sits above the actuals

# --- percentage measures re-scale by the actual value per step ----------

print("\nMAPE close :", round(evaluate("MAPE", frame, model="close").value, 3))
print("sMAPE close:", round(evaluate("sMAPE", frame, model="close").value, 3))

# --- benchmark-relative measures need a benchmark column ----------------

# the naive benchmark forecasts every (series, origin, step) key of the frame
naive = benchmark_frame(Dataset((series,)), frame, kind="naive")
print("\nMRAE vs naive, close :", round(evaluate("MRAE", frame, model="close",
                                                 benchmark=naive).value, 3))
print("RelMAE vs naive, close:", round(evaluate("RelMAE", frame, model="close",
                                                benchmark=naive).value, 3))

# --- in-sample-scaled measures take the train values explicitly ---------

train = {"sales": series.values[:origin]}
print("\nMASE close :", round(evaluate("MASE", frame, model="close", train=train).value, 3))
print("RMSSE close:", round(evaluate("RMSSE", frame, model="close", train=train).value, 3))

# --- undefined terms are governed by an explicit policy -----------------

with_zero = EvaluationFrame(
    ["z"] * 3, [10] * 3, [1, 2, 3], [0.0, 5.0, 10.0],
    {"m": np.array([1.0, 5.0, 9.0])},
)
r = evaluate("MAPE", with_zero)  # default: propagate
print("\nMAPE with a zero actual, propagate ->", r.value, "| undefined terms:", r.n_undefined)
r = evaluate("MAPE", with_zero, policy="skip")
print("MAPE with a zero actual, skip      ->", round(r.value, 3),
      "| used:", r.n_used, "dropped:", r.n_undefined)
