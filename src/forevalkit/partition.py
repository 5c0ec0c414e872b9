"""Temporal and randomised data-partitioning schemes with leakage guards.

Temporal schemes (fixed origin, rolling origin) index into a series of
length n, as a ``SplitSpec`` declares them; randomised schemes
(``kfold_splits``, ``blocked_splits``) index into the rows of an embedded
matrix. All indices are 1-based. Folds expose indices only, as read-only
arrays; rolling-origin folds are views of one positions array. The retrain
policy for models is the caller's concern, and scaling factors for scaled
measures must be computed from a fold's train indices only.

``leakage_checks`` screens many folds at once (a series' rolling origins,
say) with whole-array operations and returns one report per fold;
``leakage_check`` is its one-fold case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .core import (
    DataValidationError,
    EmbeddedMatrix,
    InsufficientHistoryError,
    ValidationError,
    check_fields,
    json_object,
)

__all__ = [
    "SplitSpec",
    "Fold",
    "LeakageReport",
    "LeakageError",
    "fixed_origin_split",
    "rolling_origin_splits",
    "kfold_splits",
    "blocked_splits",
    "leakage_check",
    "leakage_checks",
    "splits_for_series",
]

_TEMPORAL = ("fixed-origin", "rolling-origin")
_SCHEMES = (*_TEMPORAL, "kfold", "blocked")
_WINDOWS = ("expanding", "rolling")


@dataclass(frozen=True)
class SplitSpec:
    """Declarative description of a temporal partitioning scheme.

    ``stride`` lets rolling-origin evaluation skip origins. A
    ``window_length`` together with ``window="expanding"`` selects the hybrid
    setup that expands until the window is full and then rolls. Each field
    must hold a value of its declared type.
    """

    scheme: str
    initial_train: int | None = None
    horizon: int = 1
    stride: int = 1
    window: str = "expanding"
    window_length: int | None = None

    def __post_init__(self):
        check_fields(self, "split spec")
        if self.scheme not in _TEMPORAL:
            raise ValidationError(f"split spec scheme must be one of {_TEMPORAL}, got {self.scheme!r}; k-fold "
                                  "and blocked splits index an embedded matrix: use kfold_splits or "
                                  "blocked_splits on embed(series, p)")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.window not in _WINDOWS:
            raise ValidationError(f"window must be one of {_WINDOWS}")
        if self.window == "rolling" and (self.window_length is None or self.window_length < 1):
            raise ValidationError("rolling window requires window_length >= 1")
        if self.initial_train is None or self.initial_train < 1:
            raise ValidationError(f"{self.scheme} requires initial_train >= 1")

    def to_json(self) -> str:
        return json.dumps({k: v for k, v in asdict(self).items() if v is not None}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        data = json_object(text, "split spec")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"bad split spec: {exc}") from None


@dataclass(frozen=True)
class Fold:
    """One train/test partition. ``origin`` is set for temporal schemes only.
    The indices are read-only int64 arrays; an int64 array is kept, not copied."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    origin: int | None = None

    def __post_init__(self):
        train = np.asarray(self.train_indices, dtype=np.int64)
        test = np.asarray(self.test_indices, dtype=np.int64)
        train.setflags(write=False)
        test.setflags(write=False)
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)

    @property
    def train_size(self) -> int:
        return self.train_indices.size

    @property
    def test_size(self) -> int:
        return self.test_indices.size


def fixed_origin_split(series_length: int, train: int, h: int) -> Fold:
    """Single holdout at the end of the series: train 1..T, test T+1..T+h."""
    if train < 1:
        raise ValidationError("train length must be >= 1")
    if h < 1:
        raise ValidationError("horizon must be >= 1")
    if train + h > series_length:
        raise InsufficientHistoryError(
            f"train {train} + horizon {h} exceeds series length {series_length}"
        )
    return Fold(
        train_indices=np.arange(1, train + 1),
        test_indices=np.arange(train + 1, train + h + 1),
        origin=train,
    )


def rolling_origin_splits(series_length: int, spec: SplitSpec) -> list[Fold]:
    """Folds with the origin rolling forward by ``stride`` while a full horizon fits.

    Fold j has origin initial_train + (j-1)*stride and test origin+1..origin+h.
    Expanding windows train on 1..origin; rolling windows keep the last
    window_length points; an expanding window with window_length set expands
    first and then rolls. Partial tails (origins where the horizon no longer
    fits) are dropped. Every fold's indices are read-only views of one
    positions array 1..series_length.
    """
    if spec.scheme != "rolling-origin":
        raise ValidationError(f"expected a rolling-origin spec, got {spec.scheme!r}")
    t0, h = spec.initial_train, spec.horizon
    if t0 + h > series_length:
        raise InsufficientHistoryError(
            f"initial_train {t0} + horizon {h} exceeds series length {series_length}"
        )
    if spec.window == "rolling" and spec.window_length > t0:
        raise ValidationError("rolling window_length cannot exceed initial_train")
    positions = np.arange(1, series_length + 1, dtype=np.int64)
    positions.setflags(write=False)
    folds = []
    for origin in range(t0, series_length - h + 1, spec.stride):
        if spec.window == "rolling":
            start = origin - spec.window_length + 1
        elif spec.window_length is not None:  # hybrid: expand, then roll
            start = max(1, origin - spec.window_length + 1)
        else:
            start = 1
        folds.append(Fold(positions[start - 1:origin], positions[origin:origin + h], origin))
    return folds


def kfold_splits(matrix: EmbeddedMatrix, k: int, seed: int) -> list[Fold]:
    """Shuffled k-fold partition of embedded-matrix rows.

    The shuffle is deterministic in ``seed``; test sets are near-equal sized,
    pairwise disjoint and jointly cover every row. k equal to the row count
    gives leave-one-out.
    """
    n = matrix.n_rows
    if k < 2:
        raise ValidationError("kfold requires k >= 2")
    if k > n:
        raise ValidationError(f"k {k} exceeds row count {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n) + 1  # 1-based row indices
    folds = []
    for chunk in np.array_split(perm, k):
        test = np.sort(chunk)
        mask = np.ones(n + 1, dtype=bool)
        mask[0] = False
        mask[test] = False
        folds.append(Fold(train_indices=np.flatnonzero(mask), test_indices=test, origin=None))
    return folds


def blocked_splits(matrix: EmbeddedMatrix, k: int, gap: int = 0) -> list[Fold]:
    """Contiguous, unshuffled test blocks in original row order.

    ``gap`` rows adjacent to each side of the test block are discarded from
    the train set (non-dependent variant); blocks touching a series end trim
    only on the inward side.
    """
    n = matrix.n_rows
    if k < 1:
        raise ValidationError("blocked requires k >= 1")
    if gap < 0:
        raise ValidationError("gap must be >= 0")
    if k > n:
        raise ValidationError(f"k {k} exceeds row count {n}")
    bounds = np.linspace(0, n, k + 1).astype(int)
    folds = []
    for i in range(k):
        lo, hi = bounds[i] + 1, bounds[i + 1]  # 1-based inclusive block
        if hi < lo:
            raise ValidationError(f"blocked split geometry infeasible for k={k}, n={n}")
        test = np.arange(lo, hi + 1)
        cut_lo = max(1, lo - gap)
        cut_hi = min(n, hi + gap)
        train = np.concatenate([np.arange(1, cut_lo), np.arange(cut_hi + 1, n + 1)])
        if k > 1 and train.size == 0:
            raise ValidationError(
                f"blocked split geometry infeasible: gap {gap} leaves no training rows "
                f"for the block at {lo}..{hi}"
            )
        folds.append(Fold(train_indices=train, test_indices=test, origin=None))
    return folds


@dataclass(frozen=True)
class LeakageReport:
    passed: bool
    violations: tuple[str, ...]


_PASSED = LeakageReport(passed=True, violations=())


class LeakageError(DataValidationError):
    """A fold's train and test indices leak into each other."""


def _per_fold(reduce: np.ufunc, values: np.ndarray, starts: np.ndarray,
              sizes: np.ndarray) -> np.ndarray:
    """``reduce`` over each fold's segment of ``values``; 0 for an empty segment."""
    out = np.zeros(sizes.size, dtype=np.int64)
    full = sizes > 0
    if full.any():
        out[full] = reduce.reduceat(values, starts[full])
    return out


def leakage_checks(folds, scheme: str) -> list[LeakageReport]:
    """Diagnose train/test leakage for each fold under its scheme's rules.

    Every scheme fails on a non-empty train/test intersection. Temporal
    schemes additionally fail if any train index reaches past the start of
    the test region; randomised schemes permit future rows in train by
    design (valid for pure autoregressive setups). All folds are checked
    together, with whole-array operations over their concatenated indices;
    the reports come back in fold order. Each fold's train and test index
    ranges come first, and only folds whose closed ranges meet are searched
    index by index for an overlap (none of a rolling-origin split's folds).
    """
    if scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}")
    folds = list(folds)
    no_index = np.empty(0, dtype=np.int64)
    train = np.concatenate([no_index, *(f.train_indices for f in folds)])
    test = np.concatenate([no_index, *(f.test_indices for f in folds)])
    train_sizes = np.array([f.train_size for f in folds], dtype=np.int64)
    test_sizes = np.array([f.test_size for f in folds], dtype=np.int64)
    train_starts = np.cumsum(train_sizes) - train_sizes
    test_starts = np.cumsum(test_sizes) - test_sizes
    t_min, t_max = (_per_fold(r, train, train_starts, train_sizes) for r in (np.minimum, np.maximum))
    s_min, s_max = (_per_fold(r, test, test_starts, test_sizes) for r in (np.minimum, np.maximum))
    both = (train_sizes > 0) & (test_sizes > 0)

    # overlap: train (fold, index) codes found among the test ones, in the
    # folds whose closed train and test ranges meet
    meet = both & (t_min <= s_max) & (s_min <= t_max)
    shared = np.zeros(train.size, dtype=bool)
    overlapping = np.zeros(len(folds), dtype=bool)
    if meet.any():
        met = np.flatnonzero(meet)
        lo = min(t_min[met].min(), s_min[met].min())
        span = max(t_max[met].max(), s_max[met].max()) - lo + 1
        in_train, in_test = np.repeat(meet, train_sizes), np.repeat(meet, test_sizes)
        train_fold, test_fold = np.repeat(met, train_sizes[met]), np.repeat(met, test_sizes[met])
        found = np.isin(train_fold * span + (train[in_train] - lo), test_fold * span + (test[in_test] - lo))
        shared[in_train] = found
        overlapping[train_fold[found]] = True

    # temporal order: max(train) against min(test)
    late = both & (t_max >= s_min) if scheme in _TEMPORAL else np.zeros(len(folds), dtype=bool)

    reports = [_PASSED] * len(folds)
    for i in np.flatnonzero(overlapping | late).tolist():
        violations = []
        if overlapping[i]:
            fold_rows = slice(train_starts[i], train_starts[i] + train_sizes[i])
            at = np.unique(train[fold_rows][shared[fold_rows]])
            violations.append(f"train/test overlap at indices {at.tolist()}")
        if late[i]:
            violations.append(
                f"temporal order violated: max(train)={t_max[i]} >= min(test)={s_min[i]}"
            )
        reports[i] = LeakageReport(passed=False, violations=tuple(violations))
    return reports


def leakage_check(fold: Fold, scheme: str) -> LeakageReport:
    """Diagnose train/test leakage for one fold; see ``leakage_checks``."""
    return leakage_checks([fold], scheme)[0]


def splits_for_series(series_length: int, spec: SplitSpec) -> list[Fold]:
    """Apply a split spec to one series (fixed or rolling origin)."""
    if spec.scheme == "fixed-origin":
        return [fixed_origin_split(series_length, spec.initial_train, spec.horizon)]
    return rolling_origin_splits(series_length, spec)
