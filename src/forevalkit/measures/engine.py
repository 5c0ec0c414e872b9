"""Evaluation engine for all registered error measures.

``evaluate`` computes one measure for one model over an evaluation frame.
The measure's registry entry names its term function in one of three
tables: step terms, summarised under the undefined-value policy; per-series
values; and pooled ratios of sums. The engine handles the policy, per-series
scale factors computed strictly from supplied train values, benchmark
alignment, and weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def _count_undefined(x: _Inputs, n_undef: int, total: int, policy: str, what: str) -> None:
    """Flag undefined terms; under the ``error`` policy, raise."""
    if n_undef:
        x.flags.append(_UNDEFINED_FLAG)
        if policy == UndefinedPolicy.ERROR:
            raise UndefinedValueError(f"{x.name}: {n_undef} of {total} {what} are undefined")


def _finish(x: _Inputs, terms, defined, op: str, policy: str, sqrt_after: bool = False,
            series: _Groups | None = None, per_series: dict | None = None) -> MeasureResult:
    """Aggregate terms (all defined when ``defined`` is None) under a policy.

    With row-level ``series`` groups, the same terms are also summarised per
    series; within a series the ``error`` policy counts as ``skip``.
    """
    total = terms.size
    n_undef = 0 if defined is None else int(total - np.count_nonzero(defined))
    _count_undefined(x, n_undef, total, policy, "terms")
    skip = policy != UndefinedPolicy.PROPAGATE
    value = float("nan")
    if total > n_undef and (skip or not n_undef):
        used = defined if n_undef else None
        value = float(_summarise(_Groups(), terms, used, op, True, sqrt_after)[0])
        if op == "geometric-mean" and not np.all(terms if used is None else terms[used]):
            x.flags.append(_GM_ZERO_FLAG)
    if series is not None:
        per_series = series.as_dict(_summarise(series, terms, defined, op, skip, sqrt_after))
    return x.result(value, total - n_undef, n_undef, per_series)


def _pooled_ratio(x: _Inputs, ratio, policy: str, series: _Groups | None) -> MeasureResult:
    """A ratio of sums over all rows, and per series the same ratio over its rows.

    ``ratio(x, groups)`` returns (value, denominator) per group. A zero pooled
    denominator leaves every term undefined; a zero per-series one leaves
    that series' value undefined.
    """
    n_rows = x.e.size
    with np.errstate(divide="ignore", invalid="ignore"):
        value, den = ratio(x, _Groups())
        if den[0] == 0:
            x.flags.append(_ZERO_SCALE_FLAG)
            return _finish(x, np.zeros(n_rows), np.zeros(n_rows, dtype=bool), "mean", policy,
                           series=series)
        per_series = None
        if series is not None:
            values, dens = ratio(x, series)
            per_series = series.as_dict(np.where(dens != 0, values, np.nan))
    return x.result(float(value[0]), n_rows, 0, per_series)


def _weighted_geometric_mean(x: _Inputs, ratios, defined, policy: str) -> MeasureResult:
    """AvgRelMAE: the geometric mean of per-series ratios, each weighted by its length."""
    total = ratios.size
    n_undef = int(total - defined.sum())
    _count_undefined(x, n_undef, total, policy, "series ratios")
    value = float("nan")
    if defined.any() and not (n_undef and policy == UndefinedPolicy.PROPAGATE):
        rr, hh = ratios[defined], x.groups.sizes[defined].astype(float)
        if (rr == 0).any():
            x.flags.append(_GM_ZERO_FLAG)
            value = 0.0
        else:
            value = float(np.exp((hh * np.log(rr)).sum() / hh.sum()))
    return x.result(value, total - n_undef, n_undef,
                    x.groups.as_dict(np.where(defined, ratios, np.nan)))


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
    return float(np.abs(d).mean()) if kind == "naive-mae" else float((d * d).mean())


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


def _pearson(y: np.ndarray, f: np.ndarray) -> float:
    dy = y - y.mean()
    df = f - f.mean()
    den = math.sqrt(float(dy @ dy) * float(df @ df))
    return float(dy @ df) / den


class _Inputs:
    """One call's actuals ``y``, forecasts ``f`` and errors ``e = y - f``.

    Benchmark errors ``e_b``, in-sample scales, weights ``w`` and per-series
    ``groups`` are resolved on first use, from the inputs the measure
    declares; undeclared ones are never seen. Term functions add ``flags``.
    """

    def __init__(self, spec, frame: EvaluationFrame, model, benchmark, train, weights, consts):
        self.name, self.frame, self.consts = spec.name, frame, consts
        self.model = model if model is not None else (frame.models[0] if len(frame.models) == 1 else None)
        self.y = frame.actuals
        self.f = frame.model_column(model)
        self.e = self.y - self.f
        self.flags: list[str] = []
        self._benchmark = benchmark if spec.needs_benchmark else None
        self._train = train if spec.needs_train else None
        self._weights = weights if spec.needs_weights else None

    @cached_property
    def groups(self) -> _Groups:
        return _Groups(self.frame.series_index)

    @cached_property
    def e_b(self) -> np.ndarray:
        return self.y - _resolve_benchmark(self.frame, self._benchmark, self.model)

    @cached_property
    def w(self) -> np.ndarray:
        return _resolve_weights(self.frame, self._weights)

    def scales(self, kind: str) -> np.ndarray:
        """Each row's in-sample scale: that of its series, from its train values."""
        index = self.frame.series_index
        scales = np.array([_train_scale(self.name, self._train, sid, kind, self.consts)
                           for sid in index.series])
        if (scales == 0).any():
            self.flags.append(_ZERO_SCALE_FLAG)
        return scales[index.codes]

    def result(self, value: float, n_used: int, n_undef: int, per_series) -> MeasureResult:
        return MeasureResult(self.name, self.model, value, n_used, n_undef, per_series,
                             tuple(dict.fromkeys(self.flags)))


# ---- step terms: (terms, defined); defined is None when all terms are ------

def _raw(x: _Inputs):
    return x.e, None


def _percentage(x: _Inputs):
    defined = x.y != 0
    return np.divide(100.0 * x.e, x.y, out=np.zeros_like(x.e), where=defined), defined


def _relative(x: _Inputs):
    defined = x.e_b != 0
    return np.divide(x.e, x.e_b, out=np.zeros_like(x.e), where=defined), defined


def _log(x: _Inputs):
    if (x.y < 0).any() or (x.f < 0).any():
        raise ValidationError(f"{x.name}: negative actuals or forecasts are outside the measure's domain")
    return np.log1p(x.y) - np.log1p(x.f), None


def _rate(x: _Inputs):
    """Rate-based base error: forecast minus the running mean of the actuals.

    The running mean is taken over the evaluation window of each
    (series, origin) pair, in horizon-step order. The running sums advance
    one step position at a time across all windows, adding in the order
    ``np.cumsum`` adds within one window.
    """
    frame, n = x.frame, x.frame.n_rows
    rows, keys = frame.key_order, frame.sorted_keys
    starts = np.ones(n, dtype=bool)
    starts[1:] = ((keys["series"][1:] != keys["series"][:-1])
                  | (keys["origin"][1:] != keys["origin"][:-1]))
    position = np.arange(n) - np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    sums = frame.actuals[rows]
    by_position = np.argsort(position, kind="stable")
    bounds = np.cumsum(np.bincount(position))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_position[lo:hi]
        sums[at] += sums[at - 1]
    c = np.empty(n)
    c[rows] = x.f[rows] - sums / (position + 1)
    return c, None


def _symmetric(x: _Inputs):
    den = np.abs(x.y) + np.abs(x.f)
    defined = den != 0
    terms = np.divide(200.0 * np.abs(x.e), den, out=np.zeros_like(x.e), where=defined)
    # |y - f| <= |y| + |f| bounds every term by 200; clip the one-ulp
    # rounding spill that occurs when y and f have opposite signs
    return np.minimum(terms, 200.0, out=terms), defined


def _modified_symmetric(x: _Inputs):
    eps, thr = x.consts["epsilon"], x.consts["threshold"]
    if not eps + thr > 0:  # otherwise y = f = 0 divides 0 by 0
        raise ValidationError(f"{x.name}: epsilon + threshold must be > 0, got epsilon={eps}, threshold={thr}")
    den = np.maximum(np.abs(x.y) + np.abs(x.f) + eps, thr + eps)
    if (np.abs(x.y) + np.abs(x.f) <= thr).any():
        x.flags.append(_WINSORISED_FLAG)
    return 200.0 * np.abs(x.e) / den, None


def _arctan(x: _Inputs):
    y, e = x.y, x.e
    terms = np.arctan(np.divide(np.abs(e), np.abs(y), out=np.zeros_like(e), where=y != 0))
    terms[(y == 0) & (e != 0)] = math.pi / 2.0
    return terms, ~((y == 0) & (e == 0))


def _map(op, base):
    """``base``'s terms with ``op`` applied to each."""
    def terms(x: _Inputs):
        t, defined = base(x)
        return op(t), defined
    return terms


def _in_sample(kind: str, base):
    """``base``'s terms over each row's in-sample scale of ``kind``; undefined where it is 0."""
    def terms(x: _Inputs):
        scale = x.scales(kind)
        defined = scale != 0
        num = base(x)[0]
        return np.divide(num, scale, out=np.zeros_like(num), where=defined), defined
    return terms


_STEP_TERMS = {
    "e": _raw,
    "e2": _map(np.square, _raw),
    "|e|": _map(np.abs, _raw),
    "p2": _map(np.square, _percentage),
    "|p|": _map(np.abs, _percentage),
    "symmetric": _symmetric,
    "modified-symmetric": _modified_symmetric,
    "arctan": _arctan,
    "e/mean": _in_sample("mean", _raw),
    "(e/mean)2": _map(np.square, _in_sample("mean", _raw)),
    "|e|/mean": _in_sample("mean", _map(np.abs, _raw)),
    "r2": _map(np.square, _relative),
    "|r|": _map(np.abs, _relative),
    "|q|": _in_sample("naive-mae", _map(np.abs, _raw)),
    "q2": _in_sample("naive-mse", _map(np.square, _raw)),
    "l2": _map(np.square, _log),
    "c2": _map(np.square, _rate),
    "|c|": _map(np.abs, _rate),
}


# ---- per-series values: (values, defined), one per series -------------------

def _ratio_of(fn):
    """Per-series ``num / den`` of ``fn(x, groups)``, defined where ``den`` is not 0."""
    def values(x: _Inputs):
        num, den = fn(x, x.groups)
        defined = den != 0
        if not defined.all():
            x.flags.append(_ZERO_SCALE_FLAG)
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den, defined
    return values


def _rtae(x: _Inputs, g: _Groups):
    clamp = x.consts["clamp"]
    num, raw_den = g.mean(np.abs(x.e)), g.mean(np.abs(x.y))
    if (raw_den < clamp).any():
        x.flags.append(_WINSORISED_FLAG)
    return num, np.maximum(clamp, raw_den)


def _correlations(x: _Inputs):
    index = x.groups.index
    values = np.zeros(len(index.series))
    defined = np.zeros(len(index.series), dtype=bool)
    for j, rows in enumerate(np.split(index.order, index.starts[1:-1])):
        ys, fs = x.y[rows], x.f[rows]
        if rows.size >= 2 and np.ptp(ys) != 0 and np.ptp(fs) != 0:
            values[j], defined[j] = _pearson(ys, fs), True
    if not defined.all():
        x.flags.append("zero-variance")
    return values, defined


_SERIES_VALUES = {
    "series:wape": _ratio_of(lambda x, g: (g.sum(np.abs(x.e)), g.sum(np.abs(x.y)))),
    "series:swape": _ratio_of(lambda x, g: (g.sum(np.abs(x.e)), g.sum(np.abs(x.y) + np.abs(x.f)))),
    "series:wrmspe": _ratio_of(lambda x, g: (g.sum(x.e * x.e), g.sum(np.abs(x.y)))),
    "series:rtae": _ratio_of(_rtae),
    "series:relmae": _ratio_of(lambda x, g: (g.mean(np.abs(x.e)), g.mean(np.abs(x.e_b)))),
    "series:relmse": _ratio_of(lambda x, g: (g.mean(x.e ** 2), g.mean(x.e_b ** 2))),
    "series:corr": _correlations,
}


# ---- pooled ratios: (value, denominator) per group of rows -------------------

def _rse(x: _Inputs, g: _Groups):
    den = g.sum((x.y - g.expand(g.mean(x.y))) ** 2)
    return np.sqrt(g.sum(x.e * x.e)) / np.sqrt(den), den


def _nwrmsle(x: _Inputs, g: _Groups):
    l, w = _log(x)[0], x.w
    return np.sqrt(g.sum(w * l * l) / g.sum(w)), g.sum(w)


_POOLED_RATIOS = {
    "pooled:nd": lambda x, g: (g.sum(np.abs(x.e)) / g.sum(np.abs(x.y)), g.sum(np.abs(x.y))),
    "pooled:nrmse": lambda x, g: (np.sqrt(g.mean(x.e * x.e)) / g.mean(np.abs(x.y)), g.mean(np.abs(x.y))),
    "pooled:rse": _rse,
    "pooled:nwrmsle": _nwrmsle,
    "pooled:wmae": lambda x, g: (g.sum(x.w * np.abs(x.e)) / g.sum(x.w), g.sum(x.w)),
}


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
    benchmark : a model of the frame (by its name), or a single-model frame,
        for benchmark-relative measures.
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
    x = _Inputs(spec, frame, model, benchmark, train, weights, consts)
    series = x.groups if breakdown else None

    if spec.terms in _STEP_TERMS:
        terms, defined = _STEP_TERMS[spec.terms](x)
        return _finish(x, terms, defined, spec.summary, policy, spec.sqrt_after, series)
    if spec.terms in _POOLED_RATIOS:
        return _pooled_ratio(x, _POOLED_RATIOS[spec.terms], policy, series)
    values, defined = _SERIES_VALUES[spec.terms](x)
    if spec.sqrt_after:
        values = np.sqrt(values)
    if spec.summary == "weighted-geometric-mean":
        return _weighted_geometric_mean(x, values, defined, policy)
    per_series = x.groups.as_dict(np.where(defined, values, np.nan))
    return _finish(x, values, defined, series_summary, policy, per_series=per_series)
