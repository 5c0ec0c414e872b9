"""Seeded data-generating processes for the evaluation pitfall scenarios.

Every generator is a pure function of its spec (including the seed), so the
same spec always produces byte-identical output. Parallel streams derive
their seeds with ``derive_seed``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import TimeSeries, ValidationError, check_fields, from_fields, json_object

__all__ = ["DgpSpec", "OutlierInjection", "generate", "inject_outliers", "derive_seed"]

_KINDS = (
    "random-walk",
    "ar",
    "linear-trend",
    "exponential-trend",
    "seasonal",
    "heteroscedastic",
    "structural-break",
    "intermittent",
    "composite",
)

_ADDITIVE = ("linear-trend", "seasonal", "heteroscedastic", "structural-break", "composite")

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Deterministic per-stream seed from a master seed.

    Bijective 64-bit mixing of master + stream counter, so distinct stream
    ids under one master never collide.
    """
    z = (int(master_seed) + (int(stream_id) + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one synthetic data-generating process.

    The additive kinds (``linear-trend``, ``seasonal``, ``heteroscedastic``,
    ``structural-break`` and ``composite``) layer level, linear trend,
    seasonal component, level shift and (optionally ramped) noise; each
    kind reads every one of those fields. Each field must hold
    a value of its declared type; ``ar_coefficients`` may be given as a list.
    """

    kind: str
    length: int
    seed: int
    noise_sd: float = 1.0
    noise: str = "gaussian"  # or "student-t" for fat tails
    t_df: float = 5.0
    level: float = 0.0
    ar_coefficients: tuple[float, ...] = ()
    ar_intercept: float = 0.0
    allow_unit_root: bool = False
    trend_slope: float = 0.0
    trend_rate: float = 0.0
    trend_scale: float = 1.0
    period: int = 12
    amplitude: float = 0.0
    sigma_end_factor: float = 1.0
    break_index: int | None = None
    break_shift: float = 0.0
    zero_probability: float = 0.0
    demand_rate: float = 3.0
    series_id: str | None = None

    def __post_init__(self):
        check_fields(self, "DGP spec")
        object.__setattr__(self, "ar_coefficients", tuple(self.ar_coefficients))
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown DGP kind {self.kind!r}; expected one of {_KINDS}")
        if self.length < 1:
            raise ValidationError("length must be >= 1")
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be >= 0")
        if not 0.0 <= self.zero_probability <= 1.0:
            raise ValidationError("zero_probability must lie in [0, 1]")
        if self.noise not in ("gaussian", "student-t"):
            raise ValidationError("noise must be 'gaussian' or 'student-t'")
        if self.kind == "ar":
            coefs = np.asarray(self.ar_coefficients, dtype=float)
            if coefs.size == 0 or not np.isfinite(coefs).all():
                raise ValidationError("ar kind needs finite coefficients")
            if _companion_radius(coefs) >= 1.0 - 1e-12 and not self.allow_unit_root:
                raise ValidationError(
                    "unstable autoregression (spectral radius >= 1); "
                    "set allow_unit_root=True to generate it deliberately"
                )
        if self.kind in _ADDITIVE and self.period < 2 and self.amplitude != 0.0:
            raise ValidationError("seasonal component needs period >= 2")
        if self.kind == "structural-break" and self.break_index is None:
            raise ValidationError("structural-break kind needs break_index")
        if self.break_index is not None and not 1 <= self.break_index <= self.length:
            raise ValidationError("break_index must lie within the series")

    def to_json(self) -> str:
        return json.dumps({k: v for k, v in asdict(self).items() if v is not None}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DgpSpec":
        return from_fields(cls, json_object(text, "DGP spec"), "DGP spec")


def _companion_radius(coefs: np.ndarray) -> float:
    p = coefs.size
    companion = np.zeros((p, p))
    companion[0] = coefs
    companion[1:, :-1] = np.eye(p - 1)
    return float(np.abs(np.linalg.eigvals(companion)).max())


def _noise(rng: np.random.Generator, spec: DgpSpec, n: int) -> np.ndarray:
    if spec.noise_sd == 0:
        return np.zeros(n)
    if spec.noise == "student-t":
        if spec.t_df <= 2:
            raise ValidationError("student-t noise needs t_df > 2 for a finite variance")
        raw = rng.standard_t(spec.t_df, size=n)
        return raw * spec.noise_sd / np.sqrt(spec.t_df / (spec.t_df - 2.0))
    return rng.normal(0.0, spec.noise_sd, size=n)


def generate(spec: DgpSpec) -> TimeSeries:
    """Generate one series from a DGP spec, deterministically in the seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    t = np.arange(1, n + 1, dtype=float)
    kind = spec.kind

    if kind == "random-walk":
        values = spec.level + np.cumsum(_noise(rng, spec, n))
    elif kind == "ar":
        coefs = np.asarray(spec.ar_coefficients, dtype=float)
        p = coefs.size
        burn = 0 if spec.allow_unit_root else 10 * p + 100
        eps = _noise(rng, spec, n + burn)
        buf = np.zeros(n + burn + p)
        for i in range(n + burn):
            window = buf[i:i + p][::-1]  # most recent value first
            buf[i + p] = spec.ar_intercept + float(coefs @ window) + eps[i]
        values = spec.level + buf[p + burn:]
    elif kind == "exponential-trend":
        values = spec.level + spec.trend_scale * np.exp(spec.trend_rate * t) + _noise(rng, spec, n)
    elif kind == "intermittent":
        occur = rng.random(n) >= spec.zero_probability
        demand = rng.poisson(spec.demand_rate, size=n) + 1.0
        values = np.where(occur, demand, 0.0)
    else:  # additive
        ramp = np.linspace(1.0, spec.sigma_end_factor, n)
        seasonal = spec.amplitude * np.sin(2.0 * np.pi * t / spec.period) if spec.amplitude else 0.0
        shift = np.where(t >= spec.break_index, spec.break_shift, 0.0) if spec.break_index else 0.0
        values = spec.level + spec.trend_slope * t + seasonal + shift + _noise(rng, spec, n) * ramp

    sid = spec.series_id or f"{kind}-{spec.seed}"
    return TimeSeries(id=sid, values=values)


@dataclass(frozen=True)
class OutlierInjection:
    """Where and how to corrupt a series with outliers.

    Either explicit 1-based ``indices`` (a list or tuple of integers) or a
    ``rate`` of randomly chosen positions. ``mode`` is ``multiply`` or
    ``add``; ``direction`` chooses pushing values up, down, or a random mix.
    """

    indices: tuple[int, ...] | None = None
    rate: float | None = None
    magnitude: float = 10.0
    mode: str = "multiply"
    direction: str = "high"

    def __post_init__(self):
        check_fields(self, "outlier injection")
        if (self.indices is None) == (self.rate is None):
            raise ValidationError("give exactly one of indices or rate")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValidationError("rate must lie in [0, 1]")
        if self.mode not in ("multiply", "add"):
            raise ValidationError("mode must be 'multiply' or 'add'")
        if self.direction not in ("high", "low", "both"):
            raise ValidationError("direction must be 'high', 'low' or 'both'")
        if not np.isfinite(self.magnitude):
            raise ValidationError("magnitude must be finite")
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


def inject_outliers(
    series: TimeSeries, spec: OutlierInjection, seed: int = 0
) -> tuple[TimeSeries, list[tuple[int, float, float]]]:
    """Return a corrupted copy of the series plus a log of (index, old, new).

    The original series is untouched; an empty injection returns an
    identical copy and an empty log.
    """
    rng = np.random.default_rng(seed)
    n = len(series)
    if spec.indices is not None:
        indices = list(spec.indices)
        for i in indices:
            if not 1 <= i <= n:
                raise ValidationError(f"outlier index {i} outside series of length {n}")
    else:
        mask = rng.random(n) < spec.rate
        indices = (np.flatnonzero(mask) + 1).tolist()

    values = series.values.copy()
    log: list[tuple[int, float, float]] = []
    for i in indices:
        old = float(values[i - 1])
        if spec.direction == "high":
            up = True
        elif spec.direction == "low":
            up = False
        else:
            up = bool(rng.random() < 0.5)
        if spec.mode == "multiply":
            factor = spec.magnitude if up else 1.0 / spec.magnitude
            new = old * factor
        else:
            new = old + (spec.magnitude if up else -spec.magnitude)
        values[i - 1] = new
        log.append((i, old, float(new)))
    return (
        TimeSeries(id=series.id, values=values, timestamps=series.timestamps),
        log,
    )
