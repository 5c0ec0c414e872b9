"""Rule engine for measure selection and partitioning advice.

The measure rules live in a versioned JSON asset transcribed from the
selection checklist: one row per measure (or measure group) with a verdict
of ok / caution / avoid per series characteristic. Characteristics are
declared by the user, never estimated; a convenience zero-fraction hint for
intermittency exists but is explicitly heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .core import ValidationError, check_fields, from_fields, json_object
from .measures.registry import REGISTRY

if TYPE_CHECKING:  # for an annotation only, so advise never runs stats
    from .stats import TestResult

__all__ = [
    "CharacteristicProfile",
    "RuleTable",
    "Recommendation",
    "PartitioningAdvice",
    "load_rule_table",
    "recommend_measures",
    "recommend_partitioning",
    "intermittency_hint",
]

_VERDICTS = ("ok", "caution", "avoid")
_RANK = {"ok": 0, "caution": 1, "avoid": 2}

# Mechanism notes keyed by characteristic, used to build auditable reason
# strings for caution/avoid verdicts.
_MECHANISMS = {
    "stationary_count_data": "benchmark-scaled measures need the benchmark to be competitive even on well-behaved series",
    "seasonality": "per-step percentage scaling under-weights errors at uncaptured seasonal peaks",
    "trend": "scales aggregated over several time steps stop matching the per-step level on trended series",
    "unit_roots": "stochastic trends shift the level, so aggregated or per-step actual-value scales become unrepresentative",
    "heteroscedasticity": "high-variance stretches distort per-step scales and damp transformed errors",
    "break_in_horizon": "a regime change inside the horizon makes one scale wrong for part of the test window",
    "break_in_training": "a level shift in the training region corrupts scales computed in-sample",
    "break_at_origin": "a shift at the origin makes in-sample scales unrepresentative of the horizon",
    "intermittency": "zero or near-zero actuals break per-step denominators, and absolute errors reward all-zero forecasts",
    "outliers": "single extreme points dominate squared or per-step scaled errors",
    "outliers_capture": "robust measures damp exactly the extreme points that need to be captured",
}


@dataclass(frozen=True)
class CharacteristicProfile:
    """Declared characteristics of the data plus evaluation preferences.

    ``structural_breaks`` is a set drawn from {"in_horizon", "in_training",
    "at_origin"}. ``outlier_preference`` chooses between robustness against
    outliers (the checklist's default reading) and capturing them, which
    flips the outlier column's polarity. Each field must hold a value of its
    declared type: the flags ``true`` or ``false``, ``structural_breaks`` a list.
    """

    stationary_count_data: bool = False
    seasonality: bool = False
    trend: str = "none"  # none | linear | exponential
    unit_roots: bool = False
    heteroscedasticity: bool = False
    structural_breaks: frozenset[str] = frozenset()
    intermittency: bool = False
    outliers: bool = False
    outlier_preference: str = "robust"  # robust | capture
    need_cross_series_comparability: bool = False
    need_benchmark_interpretability: bool = False
    scale_meaningful: bool = True

    def __post_init__(self):
        check_fields(self, "profile")
        if self.trend not in ("none", "linear", "exponential"):
            raise ValidationError("trend must be none, linear or exponential")
        breaks = frozenset(self.structural_breaks)
        bad = breaks - {"in_horizon", "in_training", "at_origin"}
        if bad:
            raise ValidationError(f"unknown structural break locations {sorted(bad)}")
        object.__setattr__(self, "structural_breaks", breaks)
        if self.outlier_preference not in ("robust", "capture"):
            raise ValidationError("outlier_preference must be 'robust' or 'capture'")

    def active_characteristics(self) -> list[str]:
        active = []
        if self.stationary_count_data:
            active.append("stationary_count_data")
        if self.seasonality:
            active.append("seasonality")
        if self.trend != "none":
            active.append("trend")
        if self.unit_roots:
            active.append("unit_roots")
        if self.heteroscedasticity:
            active.append("heteroscedasticity")
        for loc, col in (("in_horizon", "break_in_horizon"),
                         ("in_training", "break_in_training"),
                         ("at_origin", "break_at_origin")):
            if loc in self.structural_breaks:
                active.append(col)
        if self.intermittency:
            active.append("intermittency")
        if self.outliers:
            active.append("outliers")
        return active

    @classmethod
    def from_json(cls, text: str) -> "CharacteristicProfile":
        return from_fields(cls, json_object(text, "profile"), "profile")


@dataclass(frozen=True)
class RuleTable:
    """Per-measure, per-characteristic verdicts plus scaling classes."""

    version: int
    characteristics: tuple[str, ...]
    verdicts: dict  # row name -> {characteristic: verdict}
    scaling: dict  # row name -> scaling class
    members: dict  # row name -> tuple of member measure names
    notes: tuple[str, ...] = ()

    def row_names(self) -> list[str]:
        return list(self.verdicts)

    def expanded(self) -> dict:
        """Verdicts per concrete measure, group rows expanded to members."""
        out = {}
        for row, verdict in self.verdicts.items():
            for member in self.members[row]:
                out[member] = dict(verdict)
        return out

    def scaling_of(self, measure: str) -> str:
        for row, members in self.members.items():
            if measure in members:
                return self.scaling[row]
        raise KeyError(measure)


@dataclass(frozen=True)
class _TableFile:
    """The rule table as the JSON asset writes it; each row has the fields of ``_Row``."""

    version: int
    characteristics: tuple[str, ...]
    rows: tuple[dict, ...]
    description: str = ""
    transcription_notes: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, "rule table")


@dataclass(frozen=True)
class _Row:
    """A rule-table row: a measure (or group) name, one verdict per
    characteristic column, its scaling class and a group's member measures."""

    measure: str
    verdicts: tuple[str, ...]
    scaling: str = "none"
    members: tuple[str, ...] | None = None


def load_rule_table(source=None) -> RuleTable:
    """Load and validate the packaged rule table (or one from ``source``).

    The table and each of its rows are read as JSON objects with the fields
    of ``_TableFile`` and ``_Row``: a missing, unknown or mistyped field is a
    ``ValidationError`` naming it (and the row). Every member measure must
    exist in the measure registry and every row must carry a verdict for
    every characteristic column.
    """
    if source is None:
        text = resources.files("forevalkit").joinpath("assets/rule_table.json").read_text("utf-8")
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    table = from_fields(_TableFile, json_object(text, "rule table"), "rule table")
    characteristics = tuple(table.characteristics)

    verdicts, scaling, members = {}, {}, {}
    for i, fields in enumerate(table.rows):
        row = from_fields(_Row, fields, f"rule table row {i}")
        check_fields(row, f"rule table row {i}")
        name = row.measure
        if len(row.verdicts) != len(characteristics):
            raise ValidationError(
                f"row {name!r}: expected {len(characteristics)} verdicts, got {len(row.verdicts)}"
            )
        for v in row.verdicts:
            if v not in _VERDICTS:
                raise ValidationError(f"row {name!r}: unknown verdict {v!r}")
        mnames = (name,) if row.members is None else tuple(row.members)
        for m in mnames:
            if m not in REGISTRY:
                raise ValidationError(f"row {name!r}: unknown measure {m!r}")
        verdicts[name] = dict(zip(characteristics, row.verdicts))
        scaling[name] = row.scaling
        members[name] = mnames
    return RuleTable(
        version=table.version,
        characteristics=characteristics,
        verdicts=verdicts,
        scaling=scaling,
        members=members,
        notes=tuple(table.transcription_notes),
    )


@dataclass(frozen=True)
class Recommendation:
    """Three disjoint measure lists with reasons for every demotion."""

    recommended: tuple[str, ...]
    cautioned: dict  # measure -> reason
    contraindicated: dict  # measure -> reason
    partitioning_advice: "PartitioningAdvice | None" = None

    def to_dict(self) -> dict:
        return {
            "recommended": list(self.recommended),
            "cautioned": dict(self.cautioned),
            "contraindicated": dict(self.contraindicated),
            "partitioning_advice": (
                None if self.partitioning_advice is None else self.partitioning_advice.to_dict()
            ),
        }

    def to_text(self) -> str:
        lines = ["Recommended:"]
        lines += [f"  {m}" for m in self.recommended] or ["  (none)"]
        lines.append("Use with caution:")
        lines += [f"  {m}: {r}" for m, r in self.cautioned.items()] or ["  (none)"]
        lines.append("Contraindicated:")
        lines += [f"  {m}: {r}" for m, r in self.contraindicated.items()] or ["  (none)"]
        if self.partitioning_advice is not None:
            lines.append(f"Partitioning: {self.partitioning_advice.scheme} -- "
                         f"{self.partitioning_advice.rationale}")
            for check in self.partitioning_advice.checks:
                lines.append(f"  check: {check}")
        return "\n".join(lines) + "\n"


def _reason(characteristic: str, verdict: str, capture: bool = False) -> str:
    key = "outliers_capture" if (characteristic == "outliers" and capture) else characteristic
    return f"{characteristic} -> {verdict}: {_MECHANISMS[key]}"


def recommend_measures(profile: CharacteristicProfile, table: RuleTable | None = None) -> Recommendation:
    """Classify every registered measure for a declared profile.

    A measure is recommended iff every active characteristic maps to ok,
    cautioned if the worst active verdict is caution, contraindicated
    otherwise. Preferring to capture outliers flips the outlier column's
    polarity (ok <-> avoid). Preference flags can demote but never promote.
    """
    table = table or load_rule_table()
    per_measure = table.expanded()
    capture = profile.outlier_preference == "capture"
    active = profile.active_characteristics()

    recommended, cautioned, contraindicated = [], {}, {}
    for measure, verdict_row in per_measure.items():
        worst = "ok"
        reason = ""
        for characteristic in active:
            v = verdict_row[characteristic]
            if characteristic == "outliers" and capture and v in ("ok", "avoid"):
                v = "avoid" if v == "ok" else "ok"
            if _RANK[v] > _RANK[worst]:
                worst = v
                reason = _reason(characteristic, v, capture)
        if worst == "ok":
            scaling = table.scaling_of(measure)
            if profile.need_cross_series_comparability and scaling == "none":
                worst = "caution"
                reason = "cross-series comparability requested: unscaled errors are dominated by high-scale series"
            elif not profile.scale_meaningful and scaling == "none":
                worst = "caution"
                reason = "scale declared not meaningful: unscaled or transformed errors keep the arbitrary scale"
            elif profile.need_benchmark_interpretability and not scaling.startswith("benchmark"):
                worst = "caution"
                reason = "benchmark interpretability requested: this measure makes no benchmark comparison"
        if worst == "ok":
            recommended.append(measure)
        elif worst == "caution":
            cautioned[measure] = reason
        else:
            contraindicated[measure] = reason
    return Recommendation(
        recommended=tuple(recommended),
        cautioned=cautioned,
        contraindicated=contraindicated,
    )


@dataclass(frozen=True)
class PartitioningAdvice:
    scheme: str  # rolling-origin | kfold | improve-model-first
    rationale: str
    checks: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "rationale": self.rationale, "checks": list(self.checks)}


_LJUNG_BOX_CHECK = (
    "run a Ljung-Box test on out-of-sample residuals; randomised splitting is "
    "only valid when no autocorrelation remains"
)


def _check_model_class(model_class) -> None:
    if model_class not in ("pure-AR", "stateful", "unknown"):
        raise ValidationError("model_class must be pure-AR, stateful or unknown")


def recommend_partitioning(
    series_lengths,
    model_class: str = "unknown",
    residual_check: TestResult | None = None,
) -> PartitioningAdvice:
    """Choose a partitioning scheme from data volume and model class.

    Long series (every length at least 100) always get rolling-origin
    evaluation. Short series with a pure autoregressive model can use
    randomised k-fold splits, but only once a residual autocorrelation check
    passes; a failed check means the model underfits and should be improved
    before any splitting strategy is trusted. Short series with stateful or
    unknown models fall back to rolling-origin with an expanding window.
    """
    lengths = np.atleast_1d(np.asarray(series_lengths, dtype=float))
    if lengths.size == 0:
        raise ValidationError("series lengths must not be empty")
    if (lengths <= 0).any():
        raise ValidationError("series lengths must be positive")
    _check_model_class(model_class)

    if lengths.min() >= 100:
        return PartitioningAdvice(
            scheme="rolling-origin",
            rationale="enough data: rolling-origin evaluation is the procedure of choice",
        )
    if model_class == "pure-AR":
        if residual_check is None:
            return PartitioningAdvice(
                scheme="kfold",
                rationale="short series with a pure autoregressive setup: randomised "
                          "k-fold splitting is data-efficient and valid if the model does not underfit",
                checks=(_LJUNG_BOX_CHECK,),
            )
        if residual_check.reject:
            return PartitioningAdvice(
                scheme="improve-model-first",
                rationale="residual autocorrelation detected: the model underfits and "
                          "randomised splits would underestimate the generalisation error; "
                          "improve the model before validating",
            )
        return PartitioningAdvice(
            scheme="kfold",
            rationale="short series, pure autoregressive model, no residual autocorrelation: "
                      "randomised k-fold splitting is valid and data-efficient",
        )
    return PartitioningAdvice(
        scheme="rolling-origin",
        rationale="short series with a stateful or unknown model: temporal order matters, "
                  "use rolling-origin evaluation with an expanding window",
        checks=("use an expanding window so early folds keep as much data as possible",),
    )


def intermittency_hint(values) -> bool:
    """Heuristic intermittency hint: more than half of the values are zero.

    Convenience only; characteristics are declared by the user, not detected.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("empty series")
    return bool((v == 0).mean() > 0.5)
