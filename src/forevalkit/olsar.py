"""Minimal least-squares autoregression.

This exists to drive the pitfall scenarios and the partitioning validation
harness (they need a fit-and-predict counterpart to the trivial benchmarks);
it is deliberately bare and is not a forecasting-model offering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InsufficientHistoryError, TimeSeries, embed

__all__ = ["ArFit", "fit_ar", "one_step_predictions", "recursive_forecast"]


@dataclass(frozen=True)
class ArFit:
    """OLS coefficients for y_t ~ intercept + sum_j coef_j * y_{t-j}."""

    order: int
    intercept: float
    coefficients: np.ndarray  # coef_1 (lag 1) .. coef_p (lag p)


def _lags(values, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of lags 1..p (the embedded matrix's columns reversed) and the targets."""
    m = embed(TimeSeries("ar", values), p)
    return np.ascontiguousarray(m.predictors[:, ::-1]), m.targets


def fit_ar(values, p: int, intercept: bool = True) -> ArFit:
    """Fit an order-p autoregression on levels by ordinary least squares."""
    X, y = _lags(values, p)
    if intercept:
        X = np.column_stack([np.ones(y.size), X])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    if intercept:
        return ArFit(order=p, intercept=float(beta[0]), coefficients=beta[1:].copy())
    return ArFit(order=p, intercept=0.0, coefficients=beta.copy())


def one_step_predictions(fit: ArFit, values) -> np.ndarray:
    """One-step-ahead predictions for positions p+1..n using true lags."""
    return fit.intercept + _lags(values, fit.order)[0] @ fit.coefficients


def recursive_forecast(fit: ArFit, history, h: int) -> np.ndarray:
    """h-step forecast feeding predictions back in as lags."""
    buf = list(np.asarray(history, dtype=float)[-fit.order:])
    if len(buf) < fit.order:
        raise InsufficientHistoryError(f"need {fit.order} history values, got {len(buf)}")
    out = np.empty(h)
    for i in range(h):
        lags = np.array(buf[-fit.order:][::-1])
        nxt = fit.intercept + float(fit.coefficients @ lags)
        out[i] = nxt
        buf.append(nxt)
    return out
