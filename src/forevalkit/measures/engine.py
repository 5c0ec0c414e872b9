"""Evaluation engine for all registered error measures.

``evaluate`` computes one measure for one model over an evaluation frame.
The measure's registry entry names its term function in one of two
tables: step terms, summarised under the undefined-value policy; and
ratios, a numerator and a denominator per series or (``ratio-of-sums``)
over all rows. Every quotient is undefined where its denominator is 0
(``_divide``). AvgRelMAE's per-series ratios are expanded to their rows and
summarised like row terms. The engine handles the policy,
per-series scale factors computed strictly from supplied train values,
benchmark alignment, and weighting. Summaries are ``core.Groups`` reductions: the
pooled value is the one-group case, and every result also carries the
measure per series from the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core import (_SUMMARISERS, Dataset, EvaluationFrame, Groups, TimeSeries, ValidationError, _reduce_runs,
                    _row_mean, check_type)
from .registry import CONSTANTS, UndefinedPolicy, spec_for

__all__ = ["MeasureResult", "UndefinedValueError", "WeightVector", "evaluate"]

_GM_ZERO_FLAG = "geometric-mean-zero-term"
_ZERO_SCALE_FLAG = "zero-scale"
_ZERO_VARIANCE_FLAG = "zero-variance"
_WINSORISED_FLAG = "winsorised-denominator"
_UNDEFINED_FLAG = "undefined-terms"


class UndefinedValueError(ValidationError):
    """Raised when undefined terms occur under the ``error`` policy."""


@dataclass(frozen=True)
class WeightVector:
    """Finite non-negative weights, not all zero, attached to series ids or horizon steps."""

    axis: str  # "series" | "step"
    weights: dict

    def __post_init__(self):
        if self.axis not in ("series", "step"):
            raise ValidationError("weight axis must be 'series' or 'step'")
        vals = list(self.weights.values())
        if not vals:
            raise ValidationError("weight vector is empty")
        if not all(np.ndim(w) == 0 and 0 <= w < math.inf for w in vals):  # not NaN, not an array
            raise ValidationError("each weight must be one finite non-negative number")
        if sum(vals) <= 0:
            raise ValidationError("weights must not all be zero")

    def of(self, labels) -> np.ndarray:
        """The weights of ``labels`` (series ids or steps), in order; each must have one."""
        try:
            return np.array([self.weights[k] for k in labels], dtype=float)
        except KeyError as exc:
            raise ValidationError(f"no weight for {self.axis} {exc.args[0]!r}") from None

    def per_row(self, frame: EvaluationFrame) -> np.ndarray:
        groups = frame.series_index if self.axis == "series" else Groups.of(frame.steps.tolist())
        return groups.expand(self.of(groups.labels))


@dataclass(frozen=True)
class MeasureResult:
    """Computed measure value, its value per series (series id -> value, NaN
    where undefined) and undefined-term diagnostics."""

    name: str
    model: str | None
    value: float
    n_used: int
    n_undefined: int
    per_series: dict
    flags: tuple[str, ...] = ()

    @property
    def defined(self) -> bool:
        return self.value == self.value  # not NaN


def _summarise(groups: Groups, terms, defined, op: str, skip: bool, sqrt_after: bool) -> np.ndarray:
    """Per group: ``op`` over its defined terms (all terms when ``defined`` is None).

    NaN for a group with no defined term, and, unless ``skip``, for a group
    with an undefined one. A zero term makes a geometric mean 0.
    """
    values = groups.reduce(terms, _SUMMARISERS[op], defined)
    if not skip and defined is not None:
        values[groups.count(~defined) > 0] = np.nan
    return np.sqrt(values) if sqrt_after else values


def _finish(x: _Inputs, terms, defined, op: str, policy: str, sqrt_after: bool = False,
            per_series: dict | None = None) -> MeasureResult:
    """Aggregate terms (all defined when ``defined`` is None) under a policy:
    undefined terms are flagged, and under the ``error`` policy raise.

    Row terms are also summarised per series, where the ``error`` policy
    counts as ``skip``; terms that are one value per series come with their
    ``per_series`` values.
    """
    total = terms.size
    n_undef = 0 if defined is None else int(total - np.count_nonzero(defined))
    if n_undef:
        x.flags.append(_UNDEFINED_FLAG)
        if policy == UndefinedPolicy.ERROR:
            raise UndefinedValueError(f"{x.name}: {n_undef} of {total} terms are undefined")
    skip = policy != UndefinedPolicy.PROPAGATE
    value = float(_summarise(Groups.pooled(total), terms, defined, op, skip, sqrt_after)[0])
    if op == "geometric-mean" and value == value and not np.all(terms if defined is None else terms[defined]):
        x.flags.append(_GM_ZERO_FLAG)
    if per_series is None:
        per_series = x.groups.as_dict(_summarise(x.groups, terms, defined, op, skip, sqrt_after))
    return x.result(value, total - n_undef, n_undef, per_series)


def _divide(num: np.ndarray, den: np.ndarray):
    """``num / den`` and where it is defined: where ``den`` is not 0 (elsewhere it reads 0)."""
    defined = den != 0
    return np.divide(num, den, out=np.zeros_like(num), where=defined), defined


def _ratios(x: _Inputs, fn, groups: Groups):
    """Per group, ``num / den`` of ``fn(x, groups)`` and whether ``den`` is not 0.
    A zero ``den`` leaves that group's ratio undefined and is flagged ``zero-scale``
    (``zero-variance`` for a correlation)."""
    ratios, defined = _divide(*fn(x, groups))
    if not defined.all():
        x.flags.append(_ZERO_VARIANCE_FLAG if fn is _correlation else _ZERO_SCALE_FLAG)
    return ratios, defined


def _pooled_ratio(x: _Inputs, fn, policy: str, sqrt_after: bool) -> MeasureResult:
    """A ratio of sums over all rows, and per series the same ratio over its rows.

    A zero pooled denominator leaves every row undefined; a series' zero
    denominator leaves only its per-series value undefined (NaN).
    """
    n_rows = x.e.size
    (value,), (defined,) = _ratios(x, fn, Groups.pooled(n_rows))
    if not defined:
        return _finish(x, np.zeros(n_rows), np.zeros(n_rows, dtype=bool), "mean", policy)
    values, defined = _ratios(x, fn, x.groups)
    if sqrt_after:
        value, values = np.sqrt(value), np.sqrt(values)
    return x.result(float(value), n_rows, 0, x.groups.as_dict(np.where(defined, values, np.nan)))


def _train_values(name: str, train, labels: tuple):
    """The train values of series ``labels``, stacked: ``(values, starts, lengths)``,
    series j at ``values[starts[j]:starts[j] + lengths[j]]`` and of length -1 where
    ``train`` supplies none. A ``Dataset`` already is such arrays; a mapping's
    values for ``labels`` become one, so each must be a non-empty 1-d sequence of
    finite values."""
    if not isinstance(train, Dataset):
        supplied = [sid for sid in labels if sid in (train or {})]
        if not supplied:
            raise ValidationError(f"{name}: no train values supplied for series {labels[0]!r}")
        try:
            train = Dataset(TimeSeries(sid, train[sid]) for sid in supplied)
        except ValidationError as exc:
            raise ValidationError(f"{name}: train values of {exc}") from None
    at = train.locate(labels)
    return train.values, train.offsets[at], np.where(at < 0, -1, train.lengths[at])


def _train_scale(name: str, train, labels: tuple, kind: str, constants: dict) -> np.ndarray:
    """In-sample scale of each series of ``labels``, from its train values only.

    ``kind`` is ``mean`` (mean of the train values), ``naive-mae`` (mean
    absolute one-step benchmark error in-sample) or ``naive-mse`` (mean
    squared version). The benchmark differences are lag-1 by default, lag-m
    when a seasonal period is configured, and pooled over lags 1..h in the
    multi-step scale mode. Series with equal train lengths are reduced as one
    stack, each row bit-equal to reducing its series alone; the first series
    without train values, or too short for a lag, is reported before any lag
    is taken.
    """
    values, starts, lengths = _train_values(name, train, labels)
    if kind == "mean":
        lags = ()
    elif constants["scale_mode"] == "multi-step":
        lags = range(1, constants["multistep_h"] + 1)  # no tuple: multistep_h may exceed any train length
    else:
        m = constants["seasonal_period"]
        lags = (1 if m is None else m,)
    short = lengths < (lags[-1] if lags else 0) + 1
    if short.any():
        j = int(short.argmax())
        sid, n = labels[j], int(lengths[j])
        if n < 0:
            raise ValidationError(f"{name}: no train values supplied for series {sid!r}")
        lag = next(lag for lag in lags if n < lag + 1)
        raise ValidationError(f"{name}: series {sid!r} train length {n} too short for lag {lag} scaling")

    def scale(v):
        if kind == "mean":
            return _row_mean(v)
        d = np.concatenate([v[:, lag:] - v[:, :-lag] for lag in lags], axis=1)
        return _row_mean(np.abs(d)) if kind == "naive-mae" else _row_mean(d * d)

    return _reduce_runs(values, starts, lengths, scale)


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
    if not ((w >= 0) & (w < np.inf)).all() or w.sum() <= 0:
        raise ValidationError("weights must be finite, non-negative and not all zero")
    return w


class _Inputs:
    """One call's actuals ``y``, forecasts ``f`` and errors ``e = y - f``.

    Benchmark errors ``e_b``, in-sample scales and weights ``w`` are
    resolved on first use, from the inputs the measure declares; undeclared
    ones are never seen. ``groups`` are the frame's series. Term functions
    add ``flags``.
    """

    def __init__(self, spec, frame: EvaluationFrame, model, benchmark, train, weights, consts):
        self.name, self.frame, self.consts = spec.name, frame, consts
        self.model = model if model is not None else (frame.models[0] if len(frame.models) == 1 else None)
        self.y = frame.actuals
        self.f = frame.model_column(model)
        self.e = self.y - self.f
        self.flags: list[str] = []
        self.groups = frame.series_index
        self._benchmark = benchmark if spec.needs_benchmark else None
        self._train = train if spec.needs_train else None
        self._weights = weights if spec.needs_weights else None

    @cached_property
    def e_b(self) -> np.ndarray:
        return self.y - _resolve_benchmark(self.frame, self._benchmark, self.model)

    @cached_property
    def w(self) -> np.ndarray:
        return _resolve_weights(self.frame, self._weights)

    def scales(self, kind: str) -> np.ndarray:
        """Each row's in-sample scale: that of its series, from its train values."""
        scales = _train_scale(self.name, self._train, self.groups.labels, kind, self.consts)
        if (scales == 0).any():
            self.flags.append(_ZERO_SCALE_FLAG)
        return self.groups.expand(scales)

    def result(self, value: float, n_used: int, n_undef: int, per_series) -> MeasureResult:
        return MeasureResult(self.name, self.model, value, n_used, n_undef, per_series,
                             tuple(dict.fromkeys(self.flags)))


# ---- step terms: (terms, defined); defined is None when all terms are ------

def _raw(x: _Inputs):
    return x.e, None


def _percentage(x: _Inputs):
    return _divide(100.0 * x.e, x.y)


def _relative(x: _Inputs):
    return _divide(x.e, x.e_b)


def _log(x: _Inputs):
    if (x.y < 0).any() or (x.f < 0).any():
        raise ValidationError(f"{x.name}: negative actuals or forecasts are outside the measure's domain")
    return np.log1p(x.y) - np.log1p(x.f), None


def _rate(x: _Inputs):
    """Rate-based base error: forecast minus the running mean of the actuals.

    The running mean is taken over the evaluation window of each
    (series, origin) pair, in horizon-step order; windows of one length are
    summed together, one window per row of a stack.
    """
    c = np.empty(x.e.size)
    for _, rows in x.frame.windows.stacks():
        c[rows] = x.f[rows] - np.cumsum(x.y[rows], axis=1) / np.arange(1, rows.shape[1] + 1)
    return c, None


def _symmetric(x: _Inputs):
    terms, defined = _divide(200.0 * np.abs(x.e), np.abs(x.y) + np.abs(x.f))
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
    terms = np.arctan(_divide(np.abs(e), np.abs(y))[0])
    terms[(y == 0) & (e != 0)] = math.pi / 2.0
    return terms, ~((y == 0) & (e == 0))


def _map(op, base):
    """``base``'s terms with ``op`` applied to each; a square past the float range is inf."""
    def terms(x: _Inputs):
        t, defined = base(x)
        with np.errstate(over="ignore"):
            return op(t), defined
    return terms


def _in_sample(kind: str, base):
    """``base``'s terms over each row's in-sample scale of ``kind``; undefined where it is 0."""
    def terms(x: _Inputs):
        scale = x.scales(kind)
        return _divide(base(x)[0], scale)
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


# ---- ratios: (numerator, denominator) per group of rows ----------------------

def _rtae(x: _Inputs, g: Groups):
    clamp = x.consts["clamp"]
    num, raw_den = g.mean(np.abs(x.e)), g.mean(np.abs(x.y))
    if (raw_den < clamp).any():
        x.flags.append(_WINSORISED_FLAG)
    return num, np.maximum(clamp, raw_den)


def _rse(x: _Inputs, g: Groups):
    return np.sqrt(g.sum(x.e * x.e)), np.sqrt(g.sum((x.y - g.expand(g.mean(x.y))) ** 2))


def _nwrmsle(x: _Inputs, g: Groups):
    l, w = _log(x)[0], x.w
    return g.sum(w * l * l), g.sum(w)


def _correlation(x: _Inputs, g: Groups):
    """Pearson's r: the co-deviation sum over the root of the product of the
    squared-deviation sums; that root is 0 for a group whose actuals or
    forecasts are constant, one-row groups included."""
    dy, df = x.y - g.expand(g.mean(x.y)), x.f - g.expand(g.mean(x.f))
    den = np.sqrt(g.sum(dy * dy) * g.sum(df * df))
    for v in (x.y, x.f):
        den[g.reduce(v, lambda a: np.ptp(a, axis=1)) == 0] = 0.0
    return g.sum(dy * df), den


_RATIOS = {
    "ratio:wape": lambda x, g: (g.sum(np.abs(x.e)), g.sum(np.abs(x.y))),
    "ratio:swape": lambda x, g: (g.sum(np.abs(x.e)), g.sum(np.abs(x.y) + np.abs(x.f))),
    "ratio:wrmspe": lambda x, g: (g.sum(x.e * x.e), g.sum(np.abs(x.y))),
    "ratio:rtae": _rtae,
    "ratio:relmae": lambda x, g: (g.mean(np.abs(x.e)), g.mean(np.abs(x.e_b))),
    "ratio:relmse": lambda x, g: (g.mean(x.e ** 2), g.mean(x.e_b ** 2)),
    "ratio:nrmse": lambda x, g: (np.sqrt(g.mean(x.e * x.e)), g.mean(np.abs(x.y))),
    "ratio:rse": _rse,
    "ratio:nwrmsle": _nwrmsle,
    "ratio:wmae": lambda x, g: (g.sum(x.w * np.abs(x.e)), g.sum(x.w)),
    "ratio:corr": _correlation,
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
    series_summary: str | None = None,
) -> MeasureResult:
    """Evaluate one measure for one model on an evaluation frame.

    Parameters
    ----------
    name : registered measure name (see ``measure_names()``).
    frame : aligned evaluation data.
    model : model to evaluate; optional when the frame has exactly one.
    benchmark : a model of the frame (by its name), or a single-model frame,
        for benchmark-relative measures.
    train : a ``Dataset`` whose series are the in-sample values
        (``Dataset.prefixes``), or a mapping series_id -> in-sample values, of
        which the frame's series are made such a dataset (so each must be
        non-empty, 1-d and finite), for measures whose scale is computed from
        the training region only.
    weights : WeightVector or per-row array, for weighted measures.
    policy : undefined-value policy (propagate | skip | error).
    constants : overrides for the measure's constants (epsilon, clamp, ...).
    series_summary : operator combining per-series values of per-series
        measures (mean | median | geometric-mean); None gives the mean. Only
        a measure whose registry ``summary`` is ``series`` reads it.

    The result's ``per_series`` holds the measure per series, in first-appearance
    order, from the same terms as the pooled value; each equals the measure on
    that series' rows alone, where ``error`` counts as ``skip``. For ND, NRMSE,
    RSE, NWRMSLE and WMAE, ``n_used`` and ``n_undefined`` count the pooled
    ratio's rows: a series whose own denominator is 0 is NaN in ``per_series``
    and sets ``zero-scale``, but is not counted as undefined. AvgRelMAE counts
    rows too, each series' rows as defined or undefined with its ratio.
    """
    spec = spec_for(name)
    policy = UndefinedPolicy.parse(policy)
    if constants is not None and not isinstance(constants, dict):
        raise ValidationError(f"{name}: constants must map names to values, got {constants!r}")
    if series_summary is not None:
        if not isinstance(series_summary, str) or series_summary not in _SUMMARISERS:
            raise ValidationError(f"{name}: series_summary must be one of {', '.join(_SUMMARISERS)}; "
                                  f"got {series_summary!r}")
        if spec.summary != "series":
            raise ValidationError(f"{name}: series_summary is read only by per-series measures; "
                                  f"{name} is summarised by {spec.summary!r}")
    consts = dict(spec.constants)
    if constants:
        unknown = set(constants) - set(consts)
        if unknown:
            allowed = sorted(consts) if consts else "none"
            raise ValidationError(
                f"{name}: unknown constants {sorted(unknown)}; allowed: {allowed}"
            )
        consts.update(constants)
    for key, value in consts.items():
        hint, ok, domain = CONSTANTS[key]
        check_type(f"{name} constant {key}", value, hint)
        if not ok(value):
            raise ValidationError(f"{name} constant {key} must be {domain}, got {value!r}")
    if consts.get("scale_mode") == "multi-step":
        if consts["multistep_h"] is None:
            raise ValidationError(f"{name}: multi-step scale mode needs multistep_h >= 1")
        if consts["seasonal_period"] is not None:
            raise ValidationError(f"{name}: seasonal_period is not read in the multi-step scale mode, "
                                  "which pools lags 1..multistep_h")
    elif consts.get("multistep_h") is not None:
        raise ValidationError(f"{name}: multistep_h is read only in the multi-step scale mode; "
                              "set scale_mode 'multi-step'")
    x = _Inputs(spec, frame, model, benchmark, train, weights, consts)

    if spec.terms in _STEP_TERMS:
        terms, defined = _STEP_TERMS[spec.terms](x)
        return _finish(x, terms, defined, spec.summary, policy, spec.sqrt_after)
    if spec.summary == "ratio-of-sums":
        return _pooled_ratio(x, _RATIOS[spec.terms], policy, spec.sqrt_after)
    values, defined = _ratios(x, _RATIOS[spec.terms], x.groups)
    if spec.sqrt_after:
        values = np.sqrt(values)
    per_series = x.groups.as_dict(np.where(defined, values, np.nan))
    if spec.summary == "weighted-geometric-mean":  # each row carries its series' ratio
        values, defined, series_summary = x.groups.expand(values), x.groups.expand(defined), "geometric-mean"
    return _finish(x, values, defined, series_summary or "mean", policy, per_series=per_series)
