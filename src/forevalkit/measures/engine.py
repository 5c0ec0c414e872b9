"""Evaluation engine for all registered error measures.

``evaluate`` computes one measure for one model over an evaluation frame.
It handles the undefined-value policy, per-series scale factors computed
strictly from supplied train values, benchmark alignment, and weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import EvaluationFrame, ValidationError
from .registry import UndefinedPolicy, spec_for

__all__ = ["MeasureResult", "UndefinedValueError", "WeightVector", "evaluate"]

_GM_ZERO_FLAG = "geometric-mean-zero-term"
_ZERO_SCALE_FLAG = "zero-scale"
_WINSORISED_FLAG = "winsorised-denominator"
_UNDEFINED_FLAG = "undefined-terms"


class UndefinedValueError(ValidationError):
    """Raised when undefined terms occur under the ``error`` policy."""


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights attached to series ids or horizon steps."""

    axis: str  # "series" | "step"
    weights: dict

    def __post_init__(self):
        if self.axis not in ("series", "step"):
            raise ValidationError("weight axis must be 'series' or 'step'")
        vals = list(self.weights.values())
        if not vals:
            raise ValidationError("weight vector is empty")
        if any(w < 0 for w in vals):
            raise ValidationError("weights must be non-negative")
        if sum(vals) <= 0:
            raise ValidationError("weights must not all be zero")

    def per_row(self, frame: EvaluationFrame) -> np.ndarray:
        if self.axis == "series":
            index = frame.series_index
            keys, codes = index.series, index.codes
        else:
            keys, codes = np.unique(frame.steps, return_inverse=True)
            keys = keys.tolist()
        try:
            return np.array([self.weights[k] for k in keys], dtype=float)[codes]
        except KeyError as exc:
            raise ValidationError(f"no weight for {self.axis} {exc.args[0]!r}") from None


@dataclass(frozen=True)
class MeasureResult:
    """Computed measure value plus undefined-term diagnostics."""

    name: str
    model: str | None
    value: float
    n_used: int
    n_undefined: int
    per_series: dict | None = None
    flags: tuple[str, ...] = ()

    @property
    def defined(self) -> bool:
        return self.value == self.value  # not NaN


def _resolve_policy(policy) -> str:
    try:
        return UndefinedPolicy.parse(policy)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _dedupe(flags: list[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(flags))


class _Groups:
    """A frame's rows as one group (pooled) or as one group per series.

    ``reduce`` stacks the groups of equal size into a 2-D array, each row
    one group's values in frame order, and reduces along the rows. That
    sums a group exactly as ``ndarray.sum`` sums it alone, so a per-series
    value equals the measure on that series' sub-frame to the last bit.
    (``np.add.reduceat`` adds sequentially and differs in the last bits,
    which matters where terms cancel.)
    """

    def __init__(self, index=None):
        self.index = index  # SeriesIndex, or None for one group of all rows

    @property
    def n_groups(self) -> int:
        return 1 if self.index is None else len(self.index.series)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.index.starts)

    def reduce(self, x: np.ndarray, reducer, mask=None) -> np.ndarray:
        """``reducer`` over each group's rows (those in ``mask``); NaN for a group with none."""
        if self.index is None:
            values = x if mask is None else x[mask]
            return reducer(values[None, :]) if values.size else np.full(1, np.nan)
        order = self.index.order
        if mask is None:
            rows, sizes = order, self.sizes
        else:
            rows = order[mask[order]]
            sizes = np.bincount(self.index.codes[rows], minlength=self.n_groups)
        values = x[rows]
        out = np.full(self.n_groups, np.nan)
        if sizes.min() == sizes.max():  # already stacked: one row per group
            if sizes[0]:
                out[:] = reducer(values.reshape(self.n_groups, -1))
            return out
        starts = np.cumsum(sizes) - sizes
        by_size = np.argsort(sizes, kind="stable")
        for groups in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            size = sizes[groups[0]]
            if size:
                out[groups] = reducer(values[starts[groups, None] + np.arange(size)])
        return out

    def sum(self, x: np.ndarray) -> np.ndarray:
        return self.reduce(x, _row_sum)

    def mean(self, x: np.ndarray) -> np.ndarray:
        return self.reduce(x, _row_mean)

    def count(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(self.index.codes[mask], minlength=self.n_groups)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Per-group values broadcast back to the rows."""
        return values[0] if self.index is None else values[self.index.codes]

    def as_dict(self, values: np.ndarray) -> dict:
        return dict(zip(self.index.series, values.tolist()))


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


_SUMMARISERS = {
    "mean": _row_mean,
    "median": lambda a: np.median(a, axis=1),
    "geometric-mean": _row_geometric_mean,
}


def _summarise(groups: _Groups, terms, defined, op: str, skip: bool, sqrt_after: bool) -> np.ndarray:
    """Per group: ``op`` over its defined terms (all terms when ``defined`` is None).

    NaN for a group with no defined term, and, unless ``skip``, for a group
    with an undefined one. A zero term makes a geometric mean 0.
    """
    try:
        reducer = _SUMMARISERS[op]
    except KeyError:
        raise ValidationError(f"unknown summariser {op!r}") from None
    values = groups.reduce(terms, reducer, defined)
    if not skip and defined is not None:
        values[groups.count(~defined) > 0] = np.nan
    return np.sqrt(values) if sqrt_after else values


def _finish(
    name: str,
    model: str | None,
    terms: np.ndarray,
    defined: np.ndarray,
    op: str,
    policy: str,
    flags: list[str],
    sqrt_after: bool = False,
    series: _Groups | None = None,
    per_series: dict | None = None,
) -> MeasureResult:
    """Aggregate terms under a policy and assemble the result.

    With row-level ``series`` groups, the same terms are also summarised per
    series; within a series the ``error`` policy counts as ``skip``.
    """
    total = terms.size
    n_undef = int(total - np.count_nonzero(defined))
    if n_undef:
        flags.append(_UNDEFINED_FLAG)
        if policy == UndefinedPolicy.ERROR:
            raise UndefinedValueError(
                f"{name}: {n_undef} of {total} terms are undefined"
            )
    skip = policy != UndefinedPolicy.PROPAGATE
    value = float("nan")
    if total > n_undef and (skip or not n_undef):
        used = defined if n_undef else None
        value = float(_summarise(_Groups(), terms, used, op, True, sqrt_after)[0])
        if op == "geometric-mean" and not np.all(terms if used is None else terms[used]):
            flags.append(_GM_ZERO_FLAG)
    if series is not None:
        per_series = series.as_dict(_summarise(series, terms, defined, op, skip, sqrt_after))
    return MeasureResult(name, model, value, total - n_undef, n_undef, per_series, _dedupe(flags))


def _series_ratio(num: np.ndarray, den: np.ndarray, flags: list[str]):
    """Per-series ratio and where it is defined (a non-zero denominator)."""
    defined = den != 0
    if not defined.all():
        flags.append(_ZERO_SCALE_FLAG)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, defined


def _pooled_ratio(name, model, ratio, n_rows, policy, flags, series: _Groups | None) -> MeasureResult:
    """A ratio of sums over all rows, and per series the same ratio over its rows.

    ``ratio(groups)`` returns (value, denominator) per group. A zero pooled
    denominator leaves every term undefined; a zero per-series one leaves
    that series' value undefined.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        value, den = ratio(_Groups())
        if den[0] == 0:
            flags.append(_ZERO_SCALE_FLAG)
            return _finish(name, model, np.zeros(n_rows), np.zeros(n_rows, dtype=bool), "mean",
                           policy, flags, series=series)
        per_series = None
        if series is not None:
            values, dens = ratio(series)
            per_series = series.as_dict(np.where(dens != 0, values, np.nan))
    return MeasureResult(name, model, float(value[0]), n_rows, 0, per_series, _dedupe(flags))


def _train_scale(name: str, train, sid: str, kind: str, constants: dict) -> float:
    """In-sample scale for one series, from its train values only.

    ``kind`` is ``mean`` (mean of the train values), ``naive-mae`` (mean
    absolute one-step benchmark error in-sample) or ``naive-mse`` (mean
    squared version). The benchmark differences are lag-1 by default, lag-m
    when a seasonal period is configured, and pooled over lags 1..h in the
    multi-step scale mode.
    """
    if train is None or sid not in train:
        raise ValidationError(f"{name}: no train values supplied for series {sid!r}")
    values = np.asarray(train[sid], dtype=float)
    if kind == "mean":
        if values.size < 1:
            raise ValidationError(f"{name}: empty train values for series {sid!r}")
        return float(values.mean())
    m = constants.get("seasonal_period") or 1
    if constants.get("scale_mode", "one-step") == "multi-step":
        h = constants.get("multistep_h")
        if not h or h < 1:
            raise ValidationError(f"{name}: multi-step scale mode needs multistep_h >= 1")
        lags = range(1, h + 1)
    else:
        lags = (m,)
    diffs = []
    for lag in lags:
        if values.size < lag + 1:
            raise ValidationError(
                f"{name}: series {sid!r} train length {values.size} too short for lag {lag} scaling"
            )
        diffs.append(values[lag:] - values[:-lag])
    d = np.concatenate(diffs)
    if kind == "naive-mae":
        return float(np.abs(d).mean())
    if kind == "naive-mse":
        return float((d * d).mean())
    raise ValidationError(f"unknown scale kind {kind!r}")


def _resolve_benchmark(frame: EvaluationFrame, benchmark, model: str | None) -> np.ndarray:
    """Benchmark forecast column aligned to the frame's keys."""
    if benchmark is None:
        raise ValidationError("this measure needs a benchmark (model name or benchmark frame)")
    if isinstance(benchmark, EvaluationFrame):
        return frame.align_benchmark(benchmark)
    if isinstance(benchmark, str):
        if benchmark == model:
            raise ValidationError("benchmark must differ from the evaluated model")
        return frame.model_column(benchmark)
    raise ValidationError("benchmark must be a model name or an EvaluationFrame")


def _resolve_weights(frame: EvaluationFrame, weights) -> np.ndarray:
    if weights is None:
        return np.ones(frame.n_rows)
    if isinstance(weights, WeightVector):
        return weights.per_row(frame)
    w = np.asarray(weights, dtype=float)
    if w.shape != (frame.n_rows,):
        raise ValidationError("per-row weights must match the number of frame rows")
    if (w < 0).any() or w.sum() <= 0:
        raise ValidationError("weights must be non-negative and not all zero")
    return w


def _rate_terms(frame: EvaluationFrame, yhat: np.ndarray) -> np.ndarray:
    """Rate-based base error: forecast minus the running mean of the actuals.

    The running mean is taken over the evaluation window of each
    (series, origin) pair, in horizon-step order. The running sums advance
    one step position at a time across all windows, adding in the order
    ``np.cumsum`` adds within one window.
    """
    n = frame.n_rows
    codes = frame.series_index.codes
    rows = np.lexsort((frame.steps, frame.origins, codes))
    row_codes, row_origins = codes[rows], frame.origins[rows]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (row_codes[1:] != row_codes[:-1]) | (row_origins[1:] != row_origins[:-1])
    position = np.arange(n) - np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    sums = frame.actuals[rows]
    by_position = np.argsort(position, kind="stable")
    bounds = np.cumsum(np.bincount(position))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_position[lo:hi]
        sums[at] += sums[at - 1]
    c = np.empty(n)
    c[rows] = yhat[rows] - sums / (position + 1)
    return c


def _pearson(y: np.ndarray, f: np.ndarray) -> float:
    dy = y - y.mean()
    df = f - f.mean()
    den = math.sqrt(float(dy @ dy) * float(df @ df))
    return float(dy @ df) / den


def evaluate(
    name: str,
    frame: EvaluationFrame,
    *,
    model: str | None = None,
    benchmark=None,
    train: dict | None = None,
    weights=None,
    policy: str = UndefinedPolicy.PROPAGATE,
    constants: dict | None = None,
    series_summary: str = "mean",
    breakdown: bool = False,
) -> MeasureResult:
    """Evaluate one measure for one model on an evaluation frame.

    Parameters
    ----------
    name : registered measure name (see ``measure_names()``).
    frame : aligned evaluation data.
    model : model to evaluate; optional when the frame has exactly one.
    benchmark : model name in the frame, or a single-model frame, for
        benchmark-relative measures.
    train : mapping series_id -> in-sample values, for measures whose scale
        is computed from the training region only.
    weights : WeightVector or per-row array, for weighted measures.
    policy : undefined-value policy (propagate | skip | error).
    constants : overrides for the measure's constants (epsilon, clamp, ...).
    series_summary : operator combining per-series values of per-series
        measures (mean | median | geometric-mean).
    breakdown : additionally give the measure per series, in first-appearance
        order, from the same terms as the pooled value. Each equals the
        measure on that series' rows alone, where ``error`` counts as
        ``skip``. Measures with one value per series always give it.
    """
    spec = spec_for(name)
    policy = _resolve_policy(policy)
    consts = dict(spec.constants)
    if constants:
        unknown = set(constants) - set(consts)
        if unknown:
            allowed = sorted(consts) if consts else "none"
            raise ValidationError(
                f"{name}: unknown constants {sorted(unknown)}; allowed: {allowed}"
            )
        consts.update(constants)

    model_name = model if model is not None else (frame.models[0] if len(frame.models) == 1 else None)
    y = frame.actuals
    yhat = frame.model_column(model)
    e = y - yhat
    series = _Groups(frame.series_index) if breakdown else None
    return _dispatch(
        spec, frame, y, yhat, e, model_name, benchmark, train, weights,
        policy, consts, series_summary, series,
    )


def _dispatch(spec, frame, y, yhat, e, model_name, benchmark, train, weights,
              policy, consts, series_summary, series) -> MeasureResult:
    name = spec.name
    flags: list[str] = []

    def finish(terms, defined, op, sqrt_after=False):
        return _finish(name, model_name, terms, defined, op, policy, flags, sqrt_after, series)

    def ratio(fn):
        return _pooled_ratio(name, model_name, fn, e.size, policy, flags, series)

    def series_values(values, defined):
        per_series = groups.as_dict(np.where(defined, values, np.nan))
        return _finish(name, model_name, values, defined, series_summary, policy, flags,
                       per_series=per_series)

    groups = series
    if groups is None and spec.term_level == "series":
        groups = _Groups(frame.series_index)

    # ---- pooled step-level term measures ---------------------------------
    if name in ("ME", "MSE", "RMSE", "ErrorStd", "MAE", "MdAE", "RMdSE", "GMAE", "GRMSE"):
        defined = np.ones(e.size, dtype=bool)
        if name == "ME":
            return finish(e, defined, "mean")
        if name in ("MSE",):
            return finish(e * e, defined, "mean")
        if name in ("RMSE", "ErrorStd"):
            return finish(e * e, defined, "mean", sqrt_after=True)
        if name == "MAE":
            return finish(np.abs(e), defined, "mean")
        if name == "MdAE":
            return finish(np.abs(e), defined, "median")
        if name == "RMdSE":
            return finish(e * e, defined, "median", sqrt_after=True)
        if name == "GMAE":
            return finish(np.abs(e), defined, "geometric-mean")
        if name == "GRMSE":
            return finish(e * e, defined, "geometric-mean", sqrt_after=True)

    if name in ("MAPE", "MdAPE", "RMSPE", "RMdSPE"):
        defined = y != 0
        p = np.zeros_like(e)
        np.divide(100.0 * e, y, out=p, where=defined)
        terms = p * p if spec.square_or_abs == "squared" else np.abs(p)
        op = "median" if name in ("MdAPE", "RMdSPE") else "mean"
        return finish(terms, defined, op, sqrt_after=name in ("RMSPE", "RMdSPE"))

    if name in ("sMAPE", "sMdAPE"):
        den = np.abs(y) + np.abs(yhat)
        defined = den != 0
        terms = np.zeros_like(e)
        np.divide(200.0 * np.abs(e), den, out=terms, where=defined)
        # |y - f| <= |y| + |f| bounds every term by 200; clip the one-ulp
        # rounding spill that occurs when y and f have opposite signs
        np.minimum(terms, 200.0, out=terms)
        op = "median" if name == "sMdAPE" else "mean"
        return finish(terms, defined, op)

    if name == "msMAPE":
        eps, thr = consts["epsilon"], consts["threshold"]
        den = np.maximum(np.abs(y) + np.abs(yhat) + eps, thr + eps)
        if (np.abs(y) + np.abs(yhat) <= thr).any():
            flags.append(_WINSORISED_FLAG)
        terms = 200.0 * np.abs(e) / den
        return finish(terms, np.ones(e.size, dtype=bool), "mean")

    if name == "MAAPE":
        defined = ~((y == 0) & (e == 0))
        terms = np.zeros_like(e)
        nonzero_y = y != 0
        np.divide(np.abs(e), np.abs(y), out=terms, where=nonzero_y)
        terms = np.arctan(terms)
        terms[(y == 0) & (e != 0)] = math.pi / 2.0
        return finish(terms, defined, "mean")

    # ---- per-series ratio measures ----------------------------------------
    if name in ("WAPE", "sWAPE", "WRMSPE", "RTAE"):
        if name == "RTAE":
            num, raw_den = groups.mean(np.abs(e)), groups.mean(np.abs(y))
            den = np.maximum(consts["clamp"], raw_den)
            if (raw_den < consts["clamp"]).any():
                flags.append(_WINSORISED_FLAG)
        else:
            num = groups.sum(e * e if name == "WRMSPE" else np.abs(e))
            den = groups.sum(np.abs(y) + np.abs(yhat) if name == "sWAPE" else np.abs(y))
        values, defined = _series_ratio(num, den, flags)
        return series_values(np.sqrt(values) if name == "WRMSPE" else values, defined)

    if name in ("sME", "sMSE", "sMAE"):
        scale = _row_scales(name, train, frame, "mean", consts, flags)
        defined = scale != 0
        if name == "sME":
            terms = _over(e, scale, defined)
        elif name == "sMSE":
            terms = _over(e, scale, defined) ** 2
        else:
            terms = _over(np.abs(e), scale, defined)
        return finish(terms, defined, "mean")

    if name in ("ND", "NRMSE"):
        if name == "ND":
            return ratio(lambda g: (g.sum(np.abs(e)) / g.sum(np.abs(y)), g.sum(np.abs(y))))
        return ratio(lambda g: (np.sqrt(g.mean(e * e)) / g.mean(np.abs(y)), g.mean(np.abs(y))))

    # ---- benchmark-relative -------------------------------------------------
    if name in ("MRAE", "MdRAE", "RMRSE", "GMRAE", "RGRMSE"):
        e_b = y - _resolve_benchmark(frame, benchmark, model_name)
        defined = e_b != 0
        r = np.zeros_like(e)
        np.divide(e, e_b, out=r, where=defined)
        terms = r * r if spec.square_or_abs == "squared" else np.abs(r)
        op = {"MRAE": "mean", "MdRAE": "median", "RMRSE": "mean",
              "GMRAE": "geometric-mean", "RGRMSE": "geometric-mean"}[name]
        return finish(terms, defined, op, sqrt_after=name in ("RMRSE", "RGRMSE"))

    if name in ("RelMAE", "RelMSE", "RelRMSE"):
        e_b = y - _resolve_benchmark(frame, benchmark, model_name)
        if spec.square_or_abs == "squared":
            num, den = groups.mean(e ** 2), groups.mean(e_b ** 2)
        else:
            num, den = groups.mean(np.abs(e)), groups.mean(np.abs(e_b))
        values, defined = _series_ratio(num, den, flags)
        return series_values(np.sqrt(values) if name == "RelRMSE" else values, defined)

    if name == "RSE":
        def rse(g):
            den = g.sum((y - g.expand(g.mean(y))) ** 2)
            return np.sqrt(g.sum(e * e)) / np.sqrt(den), den
        return ratio(rse)

    if name == "AvgRelMAE":
        e_b = y - _resolve_benchmark(frame, benchmark, model_name)
        ratios, defined = _series_ratio(groups.mean(np.abs(e)), groups.mean(np.abs(e_b)), flags)
        per_series = groups.as_dict(np.where(defined, ratios, np.nan))
        total = ratios.size
        n_undef = int(total - defined.sum())
        if n_undef:
            flags.append(_UNDEFINED_FLAG)
            if policy == UndefinedPolicy.ERROR:
                raise UndefinedValueError(f"{name}: {n_undef} of {total} series ratios are undefined")
            if policy == UndefinedPolicy.PROPAGATE:
                return MeasureResult(name, model_name, float("nan"), total - n_undef,
                                     n_undef, per_series, _dedupe(flags))
        rr, hh = ratios[defined], groups.sizes[defined].astype(float)
        if rr.size == 0:
            return MeasureResult(name, model_name, float("nan"), 0, n_undef, per_series, _dedupe(flags))
        if (rr == 0).any():
            flags.append(_GM_ZERO_FLAG)
            value = 0.0
        else:
            value = float(np.exp((hh * np.log(rr)).sum() / hh.sum()))
        return MeasureResult(name, model_name, value, total - n_undef, n_undef,
                             per_series, _dedupe(flags))

    if name in ("MASE", "MdASE", "RMSSE"):
        kind = "naive-mse" if name == "RMSSE" else "naive-mae"
        scale = _row_scales(name, train, frame, kind, consts, flags)
        defined = scale != 0
        terms = _over(e ** 2 if name == "RMSSE" else np.abs(e), scale, defined)
        return finish(terms, defined, "median" if name == "MdASE" else "mean",
                      sqrt_after=name == "RMSSE")

    # ---- transformations -------------------------------------------------
    if name in ("RMSLE", "NWRMSLE"):
        if (y < 0).any() or (yhat < 0).any():
            raise ValidationError(f"{name}: negative actuals or forecasts are outside the measure's domain")
        l = np.log1p(y) - np.log1p(yhat)
        if name == "RMSLE":
            return finish(l * l, np.ones(l.size, dtype=bool), "mean", sqrt_after=True)
        w = _resolve_weights(frame, weights)
        return ratio(lambda g: (np.sqrt(g.sum(w * l * l) / g.sum(w)), g.sum(w)))

    # ---- other -------------------------------------------------------------
    if name in ("MSR", "MAR"):
        c = _rate_terms(frame, yhat)
        terms = c * c if name == "MSR" else np.abs(c)
        return finish(terms, np.ones(c.size, dtype=bool), "mean")

    if name == "WMAE":
        w = _resolve_weights(frame, weights)
        return ratio(lambda g: (g.sum(w * np.abs(e)) / g.sum(w), g.sum(w)))

    if name == "CORR":
        index = groups.index
        values = np.zeros(len(index.series))
        defined = np.zeros(len(index.series), dtype=bool)
        for j, rows in enumerate(np.split(index.order, index.starts[1:-1])):
            ys, fs = y[rows], yhat[rows]
            if rows.size >= 2 and np.ptp(ys) != 0 and np.ptp(fs) != 0:
                values[j], defined[j] = _pearson(ys, fs), True
        if not defined.all():
            flags.append("zero-variance")
        return series_values(values, defined)

    raise ValidationError(f"measure {name!r} is registered but not implemented")  # pragma: no cover


def _row_scales(name: str, train, frame: EvaluationFrame, kind: str, constants: dict,
                flags: list[str]) -> np.ndarray:
    """Each row's in-sample scale: that of its series, from its train values."""
    index = frame.series_index
    scales = np.array([_train_scale(name, train, sid, kind, constants) for sid in index.series])
    if (scales == 0).any():
        flags.append(_ZERO_SCALE_FLAG)
    return scales[index.codes]


def _over(num: np.ndarray, scale: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """``num / scale`` where defined, 0 elsewhere."""
    return np.divide(num, scale, out=np.zeros_like(num), where=defined)
