"""
Backtesting with temporal and randomised splits
===============================================

Fixed-origin and rolling-origin splits index into the raw series and keep
the temporal order; k-fold and blocked splits index into an embedded lag
matrix. Every fold can be screened with the leakage guard.
"""

import numpy as np

from forevalkit import (
    DgpSpec,
    Forecaster,
    SplitSpec,
    TimeSeries,
    blocked_splits,
    embed,
    generate,
    kfold_splits,
    leakage_check,
    splits_for_series,
)

series = generate(DgpSpec(kind="random-walk", length=100, seed=11, series_id="load"))

# --- a single holdout at the end -----------------------------------------

fixed = SplitSpec(scheme="fixed-origin", initial_train=80, horizon=20)
fold = splits_for_series(len(series), fixed)[0]
print("fixed origin: train", fold.train_size, "test", fold.test_size)

# --- rolling origin: the origin advances, the horizon stays fixed --------

spec = SplitSpec(scheme="rolling-origin", initial_train=80, horizon=5, stride=5)
folds = splits_for_series(len(series), spec)
print("rolling origins:", [f.origin for f in folds])

# an expanding window grows with the origin; a rolling window keeps the
# train length constant by dropping the oldest points
rolling = SplitSpec(scheme="rolling-origin", initial_train=80, horizon=5,
                    stride=5, window="rolling", window_length=80)
print("rolling-window train sizes:",
      [f.train_size for f in splits_for_series(len(series), rolling)])

# --- score the naive benchmark on every fold -----------------------------

for fold in folds:
    check = leakage_check(fold, "rolling-origin")
    assert check.passed, check.violations
    forecast = Forecaster("naive").forecast_origins(series, [fold.origin], fold.test_size)[0]
    actual = series.values[fold.test_indices - 1]
    mae = float(np.abs(actual - forecast).mean())
    print(f"origin {fold.origin}: naive MAE over h={fold.test_size} -> {mae:.3f}")

# --- randomised splits operate on the embedded matrix --------------------

mat = embed(series, p=5)
print("\nembedded matrix:", mat.n_rows, "rows of order", mat.order)

kf = kfold_splits(mat, k=5, seed=3)
print("k-fold test sizes:", [f.test_size for f in kf])
print("k-fold leakage rule:", leakage_check(kf[0], "kfold").passed,
      "(future rows in train are permitted for pure autoregressions)")

bl = blocked_splits(mat, k=5, gap=5)
print("blocked test blocks:",
      [(int(f.test_indices[0]), int(f.test_indices[-1])) for f in bl],
      "with 5 guard rows dropped around each block")
