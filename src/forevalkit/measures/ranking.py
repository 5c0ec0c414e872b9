"""Summarising operators, model ranking, and count-based scores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core import _SUMMARISERS, ValidationError

if TYPE_CHECKING:  # for annotations only, so ranking and compare never run the engine
    from .engine import WeightVector

__all__ = [
    "summarize",
    "RankTable",
    "rank_models",
    "average_ranks",
    "percentage_better",
    "critical_event_percentage",
]

_OPS = tuple(_SUMMARISERS)


def _apply(values: np.ndarray, op: str, weights: np.ndarray | None = None) -> float:
    if op not in _OPS:
        raise ValidationError(f"unknown operator {op!r}; expected one of {_OPS}")
    if op == "geometric-mean" and (values < 0).any():
        raise ValidationError("geometric mean is undefined over negative values")
    if weights is None:
        return float(_SUMMARISERS[op](values[None, :])[0])
    if not weights.sum() > 0:
        raise ValidationError("the weights of the summarised values total zero")
    if op == "mean":
        return float((weights * values).sum() / weights.sum())
    if op == "median":
        order = np.argsort(values)
        cum = np.cumsum(weights[order])
        return float(values[order][np.searchsorted(cum, cum[-1] / 2.0)])
    if (values == 0).any():
        return 0.0
    return float(np.exp((weights * np.log(values)).sum() / weights.sum()))


def _step_weights(weights: WeightVector | None, n: int) -> np.ndarray | None:
    """Weights of horizon steps 1..n; None unless ``weights`` are step weights."""
    return None if weights is None or weights.axis != "step" else weights.of(range(1, n + 1))


def summarize(
    values: dict,
    order: str = "horizon-then-series",
    op_horizon: str = "mean",
    op_series: str = "mean",
    weights: WeightVector | None = None,
) -> float:
    """Summarise per-(series, step) values in a declared order; a helper outside
    the registry and the CLI.

    ``values`` maps series_id -> per-step value sequence. ``order`` is one of
    ``horizon-then-series`` (summarise each series over its horizon first),
    ``series-then-horizon`` (summarise across series per step first; requires
    equal horizon lengths) or ``pooled`` (one flat pass over all values).
    Weights apply at their declared axis. The weighted median is the lower
    weighted median: the first sorted value whose cumulative weight reaches
    half the total. Weights totalling zero over the values summarised are rejected.
    """
    if not values:
        raise ValidationError("no values to summarise")
    arrays = {sid: np.asarray(v, dtype=float) for sid, v in values.items()}
    if any(a.size == 0 for a in arrays.values()):
        raise ValidationError("empty per-series value sequence")

    series_w = weights.of(arrays) if weights is not None and weights.axis == "series" else None

    if order == "pooled":
        sizes = [a.size for a in arrays.values()]
        w = None
        if series_w is not None:
            w = np.repeat(series_w, sizes)
        elif weights is not None:
            w = np.concatenate([_step_weights(weights, n) for n in sizes])
        return _apply(np.concatenate(list(arrays.values())), op_horizon, w)

    if order == "horizon-then-series":
        per_series = [_apply(a, op_horizon, _step_weights(weights, a.size)) for a in arrays.values()]
        return _apply(np.asarray(per_series), op_series, series_w)

    if order == "series-then-horizon":
        lengths = {a.size for a in arrays.values()}
        if len(lengths) != 1:
            raise ValidationError("series-then-horizon needs equal horizon lengths")
        mat = np.vstack(list(arrays.values()))  # series x steps
        per_step = np.array([_apply(mat[:, j], op_series, series_w) for j in range(mat.shape[1])])
        return _apply(per_step, op_horizon, _step_weights(weights, per_step.size))

    raise ValidationError(
        f"unknown aggregation order {order!r}; expected horizon-then-series, series-then-horizon or pooled"
    )


@dataclass(frozen=True)
class RankTable:
    """Per-series model ranks (1 = best) with average-rank tie handling."""

    models: tuple[str, ...]
    ranks: np.ndarray  # shape (n_series, n_models)

    def __post_init__(self):
        self.ranks.setflags(write=False)

    @property
    def n_series(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_models(self) -> int:
        return self.ranks.shape[1]

    @property
    def mean_ranks(self) -> dict:
        means = self.ranks.mean(axis=0)
        return {m: float(v) for m, v in zip(self.models, means)}


def average_ranks(values) -> np.ndarray:
    """1-based ranks along the last axis; tied values share their average rank.

    Equals scipy's ``rankdata(values, method="average", axis=-1)`` for
    finite input: each run of equal sorted values gets (first + last) / 2 of
    its positions, which is exact in floating point.
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    positions = np.arange(1, n + 1)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, positions, n + 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0, axis=-1)
    return ranks


def rank_models(per_series_scores: dict, ascending: bool = True) -> RankTable:
    """Rank models per series from aligned score collections.

    ``per_series_scores`` maps model -> score sequence over the same series
    in the same order. ``ascending=True`` means lower scores are better
    (rank 1); pass ``False`` for goodness scores. Ties get average ranks.
    """
    if len(per_series_scores) < 2:
        raise ValidationError("ranking needs at least two models")
    models = tuple(per_series_scores)
    arrays = [np.asarray(per_series_scores[m], dtype=float) for m in models]
    n = arrays[0].size
    if n == 0:
        raise ValidationError("ranking needs at least one series")
    if any(a.size != n for a in arrays):
        raise ValidationError("all models must be scored on the same series")
    mat = np.column_stack(arrays)
    if np.isnan(mat).any():
        raise ValidationError("cannot rank undefined (NaN) scores")
    ranks = average_ranks(mat if ascending else -mat)
    return RankTable(models=models, ranks=ranks)


def percentage_better(values, benchmark_values) -> float:
    """Share (in percent) of aligned items where the measure beats the benchmark's;
    a helper outside the registry and the CLI."""
    v = np.asarray(values, dtype=float)
    b = np.asarray(benchmark_values, dtype=float)
    if v.size == 0 or v.shape != b.shape:
        raise ValidationError("percentage-better needs non-empty aligned value collections")
    return float(100.0 * (v < b).mean())


def critical_event_percentage(values, margin: float) -> float:
    """Share (in percent) of items whose error exceeds the margin; a helper outside the registry and the CLI."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("critical-event percentage needs a non-empty value collection")
    return float(100.0 * (v > margin).mean())
