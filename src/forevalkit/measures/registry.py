"""Registry of point-forecast error measures: one entry is the one description
of a measure, and the engine reads every field.

``terms`` keys an engine table of term functions. A plain key gives one term
per row, in Hyndman & Koehler's notation (e = y - f; p = 100 e / y; r = e /
e_b against a benchmark; q = e over the in-sample naive error; l = log1p(y) -
log1p(f); c = f minus the running mean of the actuals), which ``summary``
(mean, median or geometric-mean) combines. A ``ratio:`` key is a numerator
over a denominator, each summed or averaged over all rows if ``summary`` is
``ratio-of-sums`` (WAPE and ND share ``ratio:wape``), else over each series
(CORR's ``ratio:corr`` too: the co-deviation sum over the root of the
squared-deviation sums). That one value per series is combined by the call's
``series_summary`` (``summary`` is ``series``), or for AvgRelMAE's
``weighted-geometric-mean`` by the geometric mean over rows, each row carrying
its series' value, which weights each series by its number of forecasts.
Every measure counts rows: a ratio's rows are undefined where their series'
denominator is 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..checks import ValidationError

__all__ = ["MeasureSpec", "REGISTRY", "measure_names", "spec_for", "UndefinedPolicy"]


class UndefinedPolicy:
    """How undefined base-error terms (zero denominators) are handled.

    * ``propagate`` (default): the result value is undefined (NaN) and the
      diagnostics say how many terms were undefined. Silently dropping
      zero-denominator terms estimates neither the mean nor the median, so
      dropping must be asked for explicitly.
    * ``skip``: undefined terms are dropped and counted.
    * ``error``: undefined terms raise.
    """

    PROPAGATE = "propagate"
    SKIP = "skip"
    ERROR = "error"

    @classmethod
    def parse(cls, value) -> str:
        if not isinstance(value, str) or value not in (cls.PROPAGATE, cls.SKIP, cls.ERROR):
            raise ValidationError(
                f"unknown undefined-value policy {value!r}; expected propagate, skip or error")
        return value


@dataclass(frozen=True)
class MeasureSpec:
    """One error measure. ``sqrt_after`` takes the square root after the
    summary, or of each series' value or ratio of sums; the engine hands a measure only the
    extra inputs its ``needs_*`` declare; ``constants`` are call defaults, each
    with its type and domain in ``CONSTANTS``.
    """

    name: str
    terms: str
    summary: str = "mean"
    sqrt_after: bool = False
    needs_train: bool = False
    needs_benchmark: bool = False
    needs_weights: bool = False
    higher_is_better: bool = False
    constants: dict = field(default_factory=dict)


def _naive_scale() -> dict:
    return {"seasonal_period": None, "scale_mode": "one-step", "multistep_h": None}


def _finite(x) -> bool:
    return abs(x) <= sys.float_info.max  # False for NaN; no overflow for a large int


# every constant a measure takes: its type (a ``checks.check_type`` hint), the test
# of its domain, and that domain described
CONSTANTS = {
    "seasonal_period": (int | None, lambda v: v is None or v >= 1, "at least 1"),
    "scale_mode": (str, lambda v: v in ("one-step", "multi-step"), "'one-step' or 'multi-step'"),
    "multistep_h": (int | None, lambda v: v is None or v >= 1, "at least 1"),
    "epsilon": (float, _finite, "finite"),
    "threshold": (float, _finite, "finite"),
    "clamp": (float, _finite, "finite"),
}


_SPECS = [
    # --- scale-dependent -------------------------------------------------
    MeasureSpec("ME", "e"),
    MeasureSpec("ErrorStd", "e2", sqrt_after=True),
    MeasureSpec("MSE", "e2"),
    MeasureSpec("RMSE", "e2", sqrt_after=True),
    MeasureSpec("MAE", "|e|"),
    MeasureSpec("MdAE", "|e|", "median"),
    MeasureSpec("RMdSE", "e2", "median", sqrt_after=True),
    MeasureSpec("GMAE", "|e|", "geometric-mean"),
    MeasureSpec("GRMSE", "e2", "geometric-mean", sqrt_after=True),
    # --- percentage, per-step scaling ------------------------------------
    MeasureSpec("MAPE", "|p|"),
    MeasureSpec("MdAPE", "|p|", "median"),
    MeasureSpec("RMSPE", "p2", sqrt_after=True),
    MeasureSpec("RMdSPE", "p2", "median", sqrt_after=True),
    MeasureSpec("sMAPE", "symmetric"),
    MeasureSpec("sMdAPE", "symmetric", "median"),
    MeasureSpec("msMAPE", "modified-symmetric", constants={"epsilon": 0.1, "threshold": 0.5}),
    MeasureSpec("MAAPE", "arctan"),
    # --- aggregate actual-value scaling ----------------------------------
    MeasureSpec("WAPE", "ratio:wape", "series"),
    MeasureSpec("sWAPE", "ratio:swape", "series"),
    MeasureSpec("WRMSPE", "ratio:wrmspe", "series", sqrt_after=True),
    MeasureSpec("RTAE", "ratio:rtae", "series", constants={"clamp": 1.0}),
    MeasureSpec("sME", "e/mean", needs_train=True),
    MeasureSpec("sMSE", "(e/mean)2", needs_train=True),
    MeasureSpec("sMAE", "|e|/mean", needs_train=True),
    MeasureSpec("ND", "ratio:wape", "ratio-of-sums"),
    MeasureSpec("NRMSE", "ratio:nrmse", "ratio-of-sums"),
    # --- relative errors (benchmark per step) -----------------------------
    MeasureSpec("MRAE", "|r|", needs_benchmark=True),
    MeasureSpec("MdRAE", "|r|", "median", needs_benchmark=True),
    MeasureSpec("RMRSE", "r2", sqrt_after=True, needs_benchmark=True),
    MeasureSpec("GMRAE", "|r|", "geometric-mean", needs_benchmark=True),
    MeasureSpec("RGRMSE", "r2", "geometric-mean", sqrt_after=True, needs_benchmark=True),
    # --- relative measures (benchmark per series) --------------------------
    MeasureSpec("RelMAE", "ratio:relmae", "series", needs_benchmark=True),
    MeasureSpec("RelMSE", "ratio:relmse", "series", needs_benchmark=True),
    MeasureSpec("RelRMSE", "ratio:relmse", "series", sqrt_after=True, needs_benchmark=True),
    MeasureSpec("RSE", "ratio:rse", "ratio-of-sums"),
    MeasureSpec("AvgRelMAE", "ratio:relmae", "weighted-geometric-mean", needs_benchmark=True),
    # --- scaled errors (in-sample benchmark scaling) -----------------------
    MeasureSpec("MASE", "|q|", needs_train=True, constants=_naive_scale()),
    MeasureSpec("MdASE", "|q|", "median", needs_train=True, constants=_naive_scale()),
    MeasureSpec("RMSSE", "q2", sqrt_after=True, needs_train=True, constants=_naive_scale()),
    # --- transformations ---------------------------------------------------
    MeasureSpec("RMSLE", "l2", sqrt_after=True),
    MeasureSpec("NWRMSLE", "ratio:nwrmsle", "ratio-of-sums", sqrt_after=True, needs_weights=True),
    # --- other ---------------------------------------------------------------
    MeasureSpec("MSR", "c2"),
    MeasureSpec("MAR", "|c|"),
    MeasureSpec("WMAE", "ratio:wmae", "ratio-of-sums", needs_weights=True),
    MeasureSpec("CORR", "ratio:corr", "series", higher_is_better=True),
]

REGISTRY: dict[str, MeasureSpec] = {s.name: s for s in _SPECS}
if len(REGISTRY) != len(_SPECS):
    raise AssertionError("duplicate measure name in registry")
if not {k for s in _SPECS for k in s.constants} <= set(CONSTANTS):
    raise AssertionError("a measure constant without a declared type and domain")


def measure_names() -> list[str]:
    return list(REGISTRY)


def spec_for(name: str) -> MeasureSpec:
    try:
        return REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValidationError(
            f"unknown measure {name!r}; known: {', '.join(REGISTRY)}"
        ) from None
