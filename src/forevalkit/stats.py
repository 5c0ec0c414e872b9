"""Significance-testing pipeline for forecast comparisons.

Residual diagnostics (Ljung-Box), pairwise comparisons (Diebold-Mariano,
Wilcoxon), multi-model rank tests (Friedman) and post-hoc procedures
(Nemenyi critical distance, Holm, Hochberg, Bonferroni-Dunn), plus
critical-difference diagram layout and rendering as SVG and text art.

scipy is needed only for p-values: the chi-square, t and normal tails are
the ``scipy.special`` ufuncs that scipy's distribution objects call for
them, imported on first use, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError
from .measures.ranking import RankTable, average_ranks

__all__ = [
    "TestResult",
    "PostHocResult",
    "ljung_box",
    "diebold_mariano",
    "wilcoxon_rank_sum",
    "friedman",
    "nemenyi_cd",
    "p_adjust",
    "CdLayout",
    "cd_diagram_data",
    "render_cd_text",
    "render_cd_svg",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test; ``reject`` means p_value < alpha."""

    name: str
    statistic: float
    p_value: float
    alpha: float
    reject: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PostHocResult:
    """Pairwise decisions after a multi-model test.

    ``groups`` are the maximal sets of models with no significant internal
    difference; for the critical-distance method they are maximal windows of
    mean ranks spanning at most the critical distance.
    """

    method: str
    pairwise: dict
    alpha: float
    mean_ranks: dict | None = None
    critical_distance: float | None = None
    groups: tuple = ()


def _chi2_sf(x: float, df: int) -> float:
    from scipy.special import chdtrc

    return float(chdtrc(df, x))


def _t_sf(x: float, df: int) -> float:
    from scipy.special import stdtr

    return float(stdtr(df, -x))


def _norm_sf(x: float) -> float:
    from scipy.special import ndtr

    return float(ndtr(-x))


def _as_clean_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float).ravel()
    if a.size == 0:
        raise ValidationError(f"{name}: empty input")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: input contains non-finite values")
    return a


def _lagged_sum(x: np.ndarray, k: int) -> float:
    """sum_t x[t] x[t - k], added pairwise by numpy. ``x[k:] @ x[:-k]`` calls
    BLAS ``ddot``, whose thread wake-ups cost milliseconds a call on a
    multithreaded BLAS."""
    return float((x[k:] * x[:x.size - k]).sum())


def ljung_box(residuals, lags: int, fitted_params: int = 0, alpha: float = 0.05) -> TestResult:
    """Portmanteau test for residual autocorrelation up to ``lags``.

    Q = n(n+2) * sum_k rho_k^2 / (n-k); the p-value comes from a chi-square
    with max(lags - fitted_params, 1) degrees of freedom. ``fitted_params``
    is the number of parameters the residual-producing model estimated; it
    defaults to 0, which is the right choice for residuals of an unknown
    external model.
    """
    r = _as_clean_array(residuals, "ljung_box")
    n = r.size
    if lags < 1:
        raise ValidationError("ljung_box: lags must be >= 1")
    if n <= lags:
        raise ValidationError(f"ljung_box: need more than {lags} residuals, got {n}")
    centred = r - r.mean()
    denom = _lagged_sum(centred, 0)
    if denom == 0:
        raise ValidationError("ljung_box: constant residuals have undefined autocorrelation")
    q = 0.0
    rho = []
    for k in range(1, lags + 1):
        rho_k = _lagged_sum(centred, k) / denom
        rho.append(rho_k)
        q += rho_k * rho_k / (n - k)
    q *= n * (n + 2.0)
    df = max(lags - fitted_params, 1)
    p = _chi2_sf(q, df)
    return TestResult(
        name="ljung-box", statistic=float(q), p_value=p, alpha=alpha, reject=p < alpha,
        details={"lags": lags, "df": df, "autocorrelations": rho},
    )


def diebold_mariano(
    loss_a,
    loss_b,
    horizon: int = 1,
    harvey_correction: bool = True,
    alpha: float = 0.05,
) -> TestResult:
    """Equal-predictive-accuracy test on two aligned loss sequences.

    The statistic is the mean loss differential over its long-run variance
    estimated with a rectangular lag window of length horizon - 1. With the
    small-sample correction the statistic is rescaled by
    sqrt((n + 1 - 2h + h(h - 1)/n) / n) and referred to a t distribution with
    n - 1 degrees of freedom; otherwise to the normal. A negative statistic
    favours the first model. Zero differential variance is reported as a tie
    rather than a statistic.

    ``horizon`` must be below the number of losses n: the correction factor
    is 0 at h = n and h = n + 1 and grows again beyond, which would make the
    statistic spurious.
    """
    a = _as_clean_array(loss_a, "diebold_mariano")
    b = _as_clean_array(loss_b, "diebold_mariano")
    if a.size != b.size:
        raise ValidationError("diebold_mariano: loss sequences must have equal length")
    n = a.size
    if n < 4:
        raise ValidationError("diebold_mariano: need at least 4 aligned losses")
    if horizon < 1:
        raise ValidationError("diebold_mariano: horizon must be >= 1")
    if horizon >= n:
        raise ValidationError(
            f"diebold_mariano: horizon {horizon} must be below the {n} aligned losses")
    d = a - b
    dbar = d.mean()
    dc = d - dbar
    gamma0 = _lagged_sum(dc, 0) / n
    if gamma0 == 0:
        return TestResult(
            name="diebold-mariano", statistic=float("nan"), p_value=1.0, alpha=alpha,
            reject=False, details={"tie": True, "n": n},
        )
    v = gamma0
    for k in range(1, horizon):
        v += 2.0 * _lagged_sum(dc, k) / n
    details: dict = {"n": n, "horizon": horizon, "mean_differential": float(dbar)}
    if v <= 0:
        # The rectangular window can produce a non-positive estimate; fall
        # back to the lag-0 variance and record it.
        v = gamma0
        details["variance_fallback"] = True
    stat = dbar / math.sqrt(v / n)
    if harvey_correction:
        adj = (n + 1 - 2 * horizon + horizon * (horizon - 1) / n) / n
        stat *= math.sqrt(max(adj, 0.0))
        p = 2.0 * _t_sf(abs(stat), n - 1)
        details["correction"] = "harvey-leybourne-newbold"
    else:
        p = 2.0 * _norm_sf(abs(stat))
    return TestResult(
        name="diebold-mariano", statistic=float(stat), p_value=p, alpha=alpha,
        reject=p < alpha, details=details,
    )


def wilcoxon_rank_sum(errors_a, errors_b, alpha: float = 0.05, paired: bool = False) -> TestResult:
    """Rank-based two-sample comparison with tie-corrected normal approximation.

    The default is the two-sample rank-sum test. ``paired=True`` switches to
    the signed-rank test on the differences of aligned samples (zero
    differences are dropped), which suits paired forecast comparisons; the
    switch is explicit, never silent.
    """
    a = _as_clean_array(errors_a, "wilcoxon")
    b = _as_clean_array(errors_b, "wilcoxon")
    if paired:
        if a.size != b.size:
            raise ValidationError("wilcoxon (paired): samples must have equal length")
        d = a - b
        d = d[d != 0]
        if d.size == 0:
            return TestResult("wilcoxon-signed-rank", float("nan"), 1.0, alpha, False,
                              details={"tie": True})
        n = d.size
        ranks = average_ranks(np.abs(d))
        w_plus = float(ranks[d > 0].sum())
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        counts = counts.astype(float)  # int64 cubes wrap from 2**21 tied values
        tie_term = float((counts ** 3 - counts).sum())
        # at most n**3 - n, all values tied, so var >= 3n(n+1)**2/48 > 0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
        z = (w_plus - mean) / math.sqrt(var)
        p = 2.0 * _norm_sf(abs(z))
        return TestResult("wilcoxon-signed-rank", float(z), p, alpha, p < alpha,
                          details={"n_nonzero": n, "w_plus": w_plus})
    n1, n2 = a.size, b.size
    combined = np.concatenate([a, b])
    if np.ptp(combined) == 0:
        return TestResult("wilcoxon-rank-sum", float("nan"), 1.0, alpha, False,
                          details={"tie": True})
    ranks = average_ranks(combined)
    w = float(ranks[:n1].sum())
    n = n1 + n2
    mean = n1 * (n + 1) / 2.0
    _, counts = np.unique(combined, return_counts=True)
    counts = counts.astype(float)
    tie_term = float((counts ** 3 - counts).sum())
    # with two distinct values or more, tie_term <= (n - 1)**3 - (n - 1), so var >= n1 n2 / 4 > 0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    z = (w - mean) / math.sqrt(var)
    p = 2.0 * _norm_sf(abs(z))
    return TestResult("wilcoxon-rank-sum", float(z), p, alpha, p < alpha,
                      details={"n_a": n1, "n_b": n2, "rank_sum": w})


def friedman(rank_table: RankTable, alpha: float = 0.05) -> TestResult:
    """Rank test for differences among several models scored on the same series.

    Uses the classic chi-square form on the rank sums with k - 1 degrees of
    freedom. No tie correction is applied, so a fully tied table yields a
    statistic of exactly 0 (p = 1); with continuous scores ties are null sets.
    """
    n, k = rank_table.n_series, rank_table.n_models
    if n < 2:
        raise ValidationError("friedman: need at least 2 series")
    if k < 2:
        raise ValidationError("friedman: need at least 2 models")
    rank_sums = rank_table.ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float((rank_sums ** 2).sum()) - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    p = _chi2_sf(stat, k - 1)
    return TestResult("friedman", float(stat), p, alpha, p < alpha,
                      details={"n_series": n, "n_models": k, "df": k - 1})


# Quantiles of the range of k iid standard normals (the infinite-df
# studentized range), frozen at 12 decimals. Divided by sqrt(2) they give
# the critical-distance multipliers.
_STUDENTIZED_RANGE_Q = {
    0.01: {2: 3.642772735437, 3: 4.120303206460, 4: 4.402800861449, 5: 4.602821042202,
           6: 4.757047249408, 7: 4.882166194996, 8: 4.987182689089, 9: 5.077505681094,
           10: 5.156634960090, 11: 5.226962883422, 12: 5.290195579134, 13: 5.347591540208,
           14: 5.400104988244, 15: 5.448476211870, 16: 5.493290770074, 17: 5.535019591450,
           18: 5.574046908258, 19: 5.610690193975, 20: 5.645214697986},
    0.05: {2: 2.771807648699, 3: 3.314493155398, 4: 3.633159574903, 5: 3.857655510379,
           6: 4.030092053181, 7: 4.169554155007, 8: 4.286309409349, 9: 4.386509115495,
           10: 4.474124221726, 11: 4.551863584066, 12: 4.621655471869, 13: 4.684919847313,
           14: 4.742731707685, 15: 4.795923860431, 16: 4.845154183957, 17: 4.890951125577,
           18: 4.933745358127, 19: 4.973892348748, 20: 5.011688794118},
    0.10: {2: 2.326174307353, 3: 2.902380213428, 4: 3.240446220927, 5: 3.478280550703,
           6: 3.660720941721, 7: 3.808098257026, 8: 3.931349100469, 9: 4.037023130238,
           10: 4.129346398237, 11: 4.211200246543, 12: 4.284634603694, 13: 4.351158198633,
           14: 4.411912622168, 15: 4.467781815934, 16: 4.519463704841, 17: 4.567518636278,
           18: 4.612403071817, 19: 4.654493598657, 20: 4.694104409491},
}


def studentized_range_quantile(alpha: float, k: int) -> float:
    """Shipped upper quantile of the infinite-df studentized range."""
    table = None
    for key, values in _STUDENTIZED_RANGE_Q.items():
        if abs(alpha - key) < 1e-12:
            table = values
    if table is None:
        raise ValidationError(
            f"no quantile table for alpha={alpha}; shipped levels are 0.01, 0.05, 0.10"
        )
    if k not in table:
        raise ValidationError(f"quantile table covers 2 <= k <= 20 models, got k={k}")
    return table[k]


def _rank_groups(mean_ranks: dict, cd: float) -> tuple:
    """Maximal sets of models whose mean ranks span at most the critical distance."""
    names = sorted(mean_ranks, key=mean_ranks.get)
    ranks = [mean_ranks[m] for m in names]
    groups, last = [], -1
    for i in range(len(names)):
        j = i
        while j + 1 < len(names) and ranks[j + 1] - ranks[i] <= cd:
            j += 1
        if j > last:  # window ends never decrease, so this one lies in no earlier window
            groups.append(frozenset(names[i:j + 1]))
            last = j
    return tuple(groups)


def nemenyi_cd(rank_table: RankTable, alpha: float = 0.05,
               friedman_result: TestResult | None = None) -> PostHocResult:
    """Critical-distance post-hoc comparison over mean ranks.

    CD = q_alpha / sqrt(2) * sqrt(k(k+1) / (6N)); a pair differs
    significantly when its mean-rank difference exceeds CD. Running this
    without a prior rejection of the all-equal hypothesis is flagged in the
    result, not forbidden.
    """
    n, k = rank_table.n_series, rank_table.n_models
    q = studentized_range_quantile(alpha, k) / math.sqrt(2.0)
    cd = q * math.sqrt(k * (k + 1) / (6.0 * n))
    mean_ranks = rank_table.mean_ranks
    pairwise = {}
    models = rank_table.models
    for i in range(k):
        for j in range(i + 1, k):
            diff = abs(mean_ranks[models[i]] - mean_ranks[models[j]])
            pairwise[(models[i], models[j])] = bool(diff > cd)
    groups = _rank_groups(mean_ranks, cd)
    result = PostHocResult(
        method="nemenyi", pairwise=pairwise, alpha=alpha,
        mean_ranks=mean_ranks, critical_distance=float(cd), groups=groups,
    )
    if friedman_result is not None and not friedman_result.reject:
        import warnings

        warnings.warn(
            "post-hoc comparison requested although the rank test did not reject",
            stacklevel=2,
        )
    return result


def _maximal_cliques(nodes: list, edges: set) -> list:
    """Bron-Kerbosch maximal cliques of the non-significance graph (k <= 20)."""
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    cliques = []

    def extend(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v]))
        for v in list(p - adj[pivot]):
            extend(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    extend(set(), set(nodes), set())
    return cliques


def p_adjust(pairwise_p: dict, method: str, alpha: float = 0.05) -> PostHocResult:
    """Adjust pairwise p-values for multiple testing.

    ``holm`` is the step-down procedure, ``hochberg`` the step-up one and
    ``bonferroni-dunn`` the single-step correction. Adjusted p-values are
    monotone in the raw ordering and clipped at 1.
    """
    if not pairwise_p:
        raise ValidationError("p_adjust: empty p-value collection")
    keys = list(pairwise_p)
    raw = np.array([pairwise_p[k] for k in keys], dtype=float)
    if np.isnan(raw).any() or (raw < 0).any() or (raw > 1).any():
        raise ValidationError("p_adjust: p-values must lie in [0, 1]")
    m = raw.size
    order = np.argsort(raw, kind="stable")
    adjusted = np.empty(m)
    if method == "holm":
        running = 0.0
        for pos, idx in enumerate(order):
            running = max(running, (m - pos) * raw[idx])
            adjusted[idx] = min(running, 1.0)
    elif method == "hochberg":
        running = 1.0
        for pos in range(m - 1, -1, -1):
            idx = order[pos]
            running = min(running, (m - pos) * raw[idx])
            adjusted[idx] = min(running, 1.0)
    elif method == "bonferroni-dunn":
        adjusted = np.minimum(m * raw, 1.0)
    else:
        raise ValidationError(
            f"unknown adjustment method {method!r}; expected holm, hochberg or bonferroni-dunn"
        )
    pairwise = {k: float(v) for k, v in zip(keys, adjusted)}

    models = sorted({name for pair in keys for name in pair}, key=str)
    non_sig = {pair for pair, p in pairwise.items() if p >= alpha}
    groups = tuple(sorted(
        (c for c in _maximal_cliques(models, non_sig) if len(c) > 1),
        key=lambda c: sorted(map(str, c)),
    ))
    return PostHocResult(method=method, pairwise=pairwise, alpha=alpha, groups=groups)


@dataclass(frozen=True)
class CdLayout:
    """Renderable critical-difference diagram data."""

    axis_min: float
    axis_max: float
    positions: dict  # model -> mean rank
    bars: tuple  # (low rank, high rank, members) per non-singleton group
    critical_distance: float | None


def cd_diagram_data(posthoc: PostHocResult) -> CdLayout:
    """Deterministic diagram layout; bars exactly cover the non-singleton groups."""
    if posthoc.mean_ranks is None:
        raise ValidationError("cd_diagram_data needs a post-hoc result with mean ranks")
    ranks = posthoc.mean_ranks
    bars = []
    for group in posthoc.groups:
        if len(group) < 2:
            continue
        members = tuple(sorted(group, key=lambda m: (ranks[m], str(m))))
        bars.append((min(ranks[m] for m in members), max(ranks[m] for m in members), members))
    bars.sort(key=lambda b: (b[0], b[1]))
    return CdLayout(
        axis_min=math.floor(min(ranks.values())),
        axis_max=math.ceil(max(ranks.values())),
        positions={m: float(r) for m, r in sorted(ranks.items(), key=lambda kv: (kv[1], str(kv[0])))},
        bars=tuple(bars),
        critical_distance=posthoc.critical_distance,
    )


def render_cd_text(layout: CdLayout) -> str:
    """Monospace critical-difference diagram, 60 columns wide (stable across runs, CI-diffable)."""
    width = 60
    lo, hi = layout.axis_min, layout.axis_max
    span = max(hi - lo, 1e-12)

    def col(rank: float) -> int:
        return int(round((rank - lo) / span * (width - 1)))

    lines = []
    if layout.critical_distance is not None:
        lines.append(f"CD = {layout.critical_distance:.4f}")
    axis = ["-"] * width
    labels = [" "] * width
    for tick in range(int(lo), int(hi) + 1):
        c = col(tick)
        axis[c] = "+"
        for i, ch in enumerate(str(tick)):
            if c + i < width:
                labels[c + i] = ch
    lines.append("".join(labels))
    lines.append("".join(axis))
    for model, rank in layout.positions.items():
        c = col(rank)
        lines.append(" " * c + f"| {model} ({rank:.3f})")
    for lo_r, hi_r, members in layout.bars:
        a, b = col(lo_r), col(hi_r)
        bar = " " * a + "=" * max(b - a + 1, 1)
        lines.append(bar + "  {" + ", ".join(str(m) for m in members) + "}")
    return "\n".join(lines) + "\n"


def render_cd_svg(layout: CdLayout) -> str:
    """Self-contained SVG critical-difference diagram, 640 pixels wide."""
    width = 640
    lo, hi = layout.axis_min, layout.axis_max
    span = max(hi - lo, 1e-12)
    margin = 40.0
    inner = width - 2 * margin
    axis_y = 40.0
    row_h = 22.0

    def x(rank: float) -> float:
        return margin + (rank - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{int(axis_y + row_h * (len(layout.positions) + len(layout.bars) + 2))}" '
        f'font-family="monospace" font-size="12">',
        f'<line x1="{x(lo):.1f}" y1="{axis_y:.1f}" x2="{x(hi):.1f}" y2="{axis_y:.1f}" stroke="black"/>',
    ]
    for tick in range(int(lo), int(hi) + 1):
        parts.append(
            f'<line x1="{x(tick):.1f}" y1="{axis_y - 4:.1f}" x2="{x(tick):.1f}" y2="{axis_y + 4:.1f}" stroke="black"/>'
            f'<text x="{x(tick):.1f}" y="{axis_y - 8:.1f}" text-anchor="middle">{tick}</text>'
        )
    if layout.critical_distance is not None:
        parts.append(
            f'<text x="{margin:.1f}" y="16" text-anchor="start">CD = {layout.critical_distance:.4f}</text>'
        )
    y = axis_y + row_h
    for model, rank in layout.positions.items():
        parts.append(
            f'<line x1="{x(rank):.1f}" y1="{axis_y:.1f}" x2="{x(rank):.1f}" y2="{y:.1f}" stroke="gray"/>'
            f'<circle cx="{x(rank):.1f}" cy="{y:.1f}" r="3"/>'
            f'<text x="{x(rank) + 6:.1f}" y="{y + 4:.1f}">{model} ({rank:.3f})</text>'
        )
        y += row_h
    for lo_r, hi_r, _members in layout.bars:
        parts.append(
            f'<line x1="{x(lo_r):.1f}" y1="{y:.1f}" x2="{x(hi_r):.1f}" y2="{y:.1f}" '
            f'stroke="black" stroke-width="5"/>'
        )
        y += row_h
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
