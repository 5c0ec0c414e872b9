"""Model ranking: per-series ranks of aligned scores, ties sharing their average rank."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError

__all__ = ["RankTable", "rank_models", "average_ranks"]


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

