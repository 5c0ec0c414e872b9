import math
import subprocess
from fractions import Fraction
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from forevalkit import (
    ValidationError,
    cd_diagram_data,
    diebold_mariano,
    friedman,
    ljung_box,
    nemenyi_cd,
    p_adjust,
    rank_models,
    render_cd_svg,
    render_cd_text,
    wilcoxon_rank_sum,
)
from forevalkit.measures.ranking import RankTable, average_ranks
from forevalkit import stats
from forevalkit.stats import (
    PostHocResult, _chi2_sf, _lagged_sum, _norm_sf, _t_sf, studentized_range_quantile,
)


class TestLjungBox:
    def test_alternating_rejects(self):
        r = ljung_box([1.0, -1.0] * 20, lags=1)
        assert r.reject and r.statistic > 30

    def test_white_noise_usually_accepts(self, rng):
        rejections = sum(
            ljung_box(rng.normal(0, 1, 400), lags=10).reject for _ in range(200)
        )
        assert rejections < 30  # near the nominal 5% level

    def test_underfit_ar_residuals_reject(self, rng):
        # an order-1 fit on strongly order-2 data leaves autocorrelation behind
        from forevalkit import DgpSpec, generate
        from forevalkit.olsar import fit_ar, one_step_predictions

        s = generate(DgpSpec(kind="ar", length=600, seed=11, ar_coefficients=(0.0, 0.8)))
        fit = fit_ar(s.values[:300], 1)
        preds = one_step_predictions(fit, s.values)
        resid = s.values[300:] - preds[299:]
        assert ljung_box(resid, lags=10, fitted_params=1).reject

    def test_df_floor(self):
        r = ljung_box(np.sin(np.arange(50.0)), lags=2, fitted_params=5)
        assert r.details["df"] == 1

    def test_constant_residuals_error(self):
        with pytest.raises(ValidationError):
            ljung_box([2.0] * 30, lags=3)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            ljung_box([1.0, 2.0], lags=5)


class TestDieboldMariano:
    def test_identical_losses_tie(self):
        r = diebold_mariano([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert r.details.get("tie") and r.p_value == 1.0 and not r.reject

    def test_dominated_model_rejected_with_sign(self, rng):
        # model A's losses are systematically smaller
        base = rng.normal(0, 1, 300) ** 2
        r = diebold_mariano(base, base + 0.8 + rng.normal(0, 0.1, 300))
        assert r.reject and r.statistic < 0

    def test_h1_reduces_to_variance_only(self, rng):
        a = rng.normal(0, 1, 50) ** 2
        b = rng.normal(0, 1, 50) ** 2
        r1 = diebold_mariano(a, b, horizon=1, harvey_correction=False)
        d = a - b
        dc = d - d.mean()
        v = float(dc @ dc) / 50
        expect = d.mean() / math.sqrt(v / 50)
        assert r1.statistic == pytest.approx(expect, rel=1e-12)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError):
            diebold_mariano([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("horizon", [6, 7, 50])
    def test_horizon_at_or_above_n_rejected(self, rng, horizon):
        # the small-sample factor (n + 1 - 2h + h(h - 1)/n)/n is 0 at h = n, n + 1
        # and grows again beyond, so the statistic would be spurious
        a, b = rng.normal(0, 1, (2, 6)) ** 2
        with pytest.raises(ValidationError, match=f"horizon {horizon} must be below the 6 aligned"):
            diebold_mariano(a, b, horizon=horizon)
        diebold_mariano(a, b, horizon=5)

    def test_non_positive_window_variance_falls_back_to_lag_0(self):
        # differentials 2, 0, 2, ...: lag-0 variance 1, lag-1 autocovariance -7/8,
        # so the horizon-2 window gives 1 - 2 * 7/8 < 0 and the lag-0 variance is used
        r = diebold_mariano([3.0, 1.0] * 4, [1.0] * 8, horizon=2, harvey_correction=False)
        assert r.details["variance_fallback"] is True
        assert r.statistic == pytest.approx(math.sqrt(8), rel=1e-12)

    def test_harvey_correction_shrinks_statistic(self, rng):
        a = rng.normal(0, 1, 60) ** 2
        b = rng.normal(0, 1, 60) ** 2 + 0.5
        plain = diebold_mariano(a, b, horizon=4, harvey_correction=False)
        corrected = diebold_mariano(a, b, horizon=4, harvey_correction=True)
        assert abs(corrected.statistic) < abs(plain.statistic)


class TestLaggedSum:
    """The autocovariance sums of both tests, taken without BLAS."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 12000])
    def test_matches_blas_dot(self, rng, n):
        x = rng.normal(0, 1, n) ** 3
        x -= x.mean()
        for k in range(min(n, 13)):
            # relative to the sum of the products' magnitudes, which bounds
            # the rounding of either summation order
            scale = float(np.abs(x[k:]) @ np.abs(x[:n - k]))
            assert abs(_lagged_sum(x, k) - float(x[k:] @ x[:n - k])) <= 1e-12 * scale

    def test_decisions_match_blas_dot(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, 300) ** 2
        noise = rng.normal(0, 1, 12000)
        calls = [
            lambda: ljung_box([1.0, -1.0] * 20, lags=1),
            lambda: ljung_box(np.sin(np.arange(50.0)), lags=2, fitted_params=5),
            lambda: ljung_box(np.cumsum(noise)[:400] * 0.01 + noise[:400], lags=10),
            lambda: ljung_box(noise, lags=12),
            lambda: diebold_mariano(a, a + 0.8 + rng.normal(0, 0.1, 300)),
            lambda: diebold_mariano(a[:60], rng.normal(0, 1, 60) ** 2 + 0.5, horizon=4),
            lambda: diebold_mariano(noise ** 2, (noise + 0.01) ** 2, horizon=12),
            lambda: diebold_mariano(noise ** 2, noise[::-1] ** 2, horizon=12,
                                    harvey_correction=False),
        ]
        state = rng.bit_generator.state
        got = [call() for call in calls]
        monkeypatch.setattr(stats, "_lagged_sum", lambda x, k: float(x[k:] @ x[:x.size - k]))
        rng.bit_generator.state = state
        for call, new in zip(calls, got):
            old = call()
            assert new.reject == old.reject
            assert new.p_value == pytest.approx(old.p_value, rel=1e-12)


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_rank_sum([1, 1, 1], [1, 1, 1]).p_value == 1.0

    def test_shifted_distributions_power(self, rng):
        rejections = sum(
            wilcoxon_rank_sum(rng.normal(0, 1, 50), rng.normal(1.0, 1, 50)).reject
            for _ in range(100)
        )
        assert rejections > 90

    def test_monotone_transform_invariance(self, rng):
        a = rng.uniform(0, 1, 20)
        b = rng.uniform(0, 1, 20)
        r1 = wilcoxon_rank_sum(a, b)
        r2 = wilcoxon_rank_sum(np.exp(3 * a), np.exp(3 * b))
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)

    def test_paired_variant(self, rng):
        a = rng.normal(0, 1, 40)
        r = wilcoxon_rank_sum(a, a + 1.0, paired=True)
        assert r.name == "wilcoxon-signed-rank" and r.reject

    def test_paired_all_zero_diffs_tie(self):
        a = [1.0, 2.0, 3.0]
        assert wilcoxon_rank_sum(a, a, paired=True).p_value == 1.0

    @pytest.mark.parametrize("paired", [True, False])
    def test_tie_correction_past_two_to_the_21_tied_values(self, paired):
        # the cube of a tie count passes int64 from 2**21 tied values; with n ones
        # against n zeros, the signed-rank z is sqrt(n), and the rank-sum z is
        # (n**2 / 2) / sqrt(n**2 / 12 * (2n + 1 - (n**2 - 1) / (2n - 1)))
        n = 2 ** 21 + 10
        r = wilcoxon_rank_sum(np.ones(n), np.zeros(n), paired=paired)
        if paired:
            expect = math.sqrt(n)
        else:
            var = Fraction(n * n, 12) * (2 * n + 1 - Fraction(n * n - 1, 2 * n - 1))
            expect = n * n / 2 / math.sqrt(var)
        assert r.statistic == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: ljung_box([], lags=1), "ljung_box: empty input"),
    (lambda: diebold_mariano([1.0, np.nan, 3.0, 4.0], [1.0] * 4), "diebold_mariano: input contains non-finite"),
    (lambda: ljung_box(np.arange(10.0), lags=0), "ljung_box: lags must be >= 1"),
    (lambda: diebold_mariano([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]), "diebold_mariano: need at least 4 aligned"),
    (lambda: diebold_mariano([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 5.0], horizon=0),
     "diebold_mariano: horizon must be >= 1"),
    (lambda: wilcoxon_rank_sum([1.0, 2.0], [1.0], paired=True), r"wilcoxon \(paired\): samples must have equal"),
    (lambda: friedman(RankTable(("A",), np.ones((3, 1)))), "friedman: need at least 2 models"),
    (lambda: p_adjust({("A", "B"): 0.5}, "bonferroni"), "unknown adjustment method 'bonferroni'"),
    (lambda: cd_diagram_data(PostHocResult("holm", {("A", "B"): 0.5}, 0.05)),
     "cd_diagram_data needs a post-hoc result with mean ranks"),
])
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestFriedman:
    def test_all_tied_zero_statistic(self):
        t = rank_models({m: [1.0, 2.0, 3.0] for m in "ABC"})
        r = friedman(t)
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_dominant_model_rejected(self, rng):
        scores = {
            "best": rng.normal(0, 0.1, 50),
            "mid": rng.normal(3, 0.1, 50),
            "worst": rng.normal(6, 0.1, 50),
        }
        r = friedman(rank_models(scores), alpha=0.01)
        assert r.reject

    def test_label_permutation_invariance(self, rng):
        scores = {m: rng.uniform(0, 1, 20) for m in "ABCD"}
        r1 = friedman(rank_models(scores))
        shuffled = {m: scores[m] for m in "DCBA"}
        r2 = friedman(rank_models(shuffled))
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)

    def test_per_series_monotone_transform_invariance(self, rng):
        # a different strictly increasing map per series leaves ranks, and
        # therefore the statistic, untouched
        n = 15
        scores = {m: rng.uniform(0, 1, n) for m in "ABCD"}
        r1 = friedman(rank_models(scores))
        offsets = rng.uniform(1, 5, n)
        powers = rng.uniform(1, 3, n)
        transformed = {m: (v + offsets) ** powers for m, v in scores.items()}
        r2 = friedman(rank_models(transformed))
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)

    def test_minimums(self):
        with pytest.raises(ValidationError):
            friedman(rank_models({"A": [1.0], "B": [2.0]}))


class TestNemenyi:
    def test_cd_formula(self, rng):
        t = rank_models({m: rng.uniform(0, 1, 10) for m in "ABC"})
        r = nemenyi_cd(t, alpha=0.05)
        q = studentized_range_quantile(0.05, 3) / math.sqrt(2)
        assert r.critical_distance == pytest.approx(q * math.sqrt(12 / 60), rel=1e-12)

    def test_cd_quarter_n_halves(self, rng):
        t1 = rank_models({m: rng.uniform(0, 1, 25) for m in "ABCDE"})
        t2 = rank_models({m: rng.uniform(0, 1, 100) for m in "ABCDE"})
        cd1 = nemenyi_cd(t1).critical_distance
        cd2 = nemenyi_cd(t2).critical_distance
        assert cd2 == cd1 / 2  # exact: only the N under the root changes

    def test_k_out_of_table(self, rng):
        t = rank_models({f"m{i}": rng.uniform(0, 1, 5) for i in range(25)})
        with pytest.raises(ValidationError, match="k <= 20"):
            nemenyi_cd(t)

    def test_alpha_out_of_table(self, rng):
        t = rank_models({m: rng.uniform(0, 1, 5) for m in "ABC"})
        with pytest.raises(ValidationError, match="alpha"):
            nemenyi_cd(t, alpha=0.2)

    def test_groups_reflexive_symmetric(self, rng):
        t = rank_models({m: rng.uniform(0, 1, 8) for m in "ABCDEF"})
        r = nemenyi_cd(t)
        for (a, b), significant in r.pairwise.items():
            assert r.pairwise.get((a, b)) == significant
            joined = any(a in g and b in g for g in r.groups)
            if joined:
                assert not significant  # grouped pairs are never significant

    def test_warns_without_prior_rejection(self, rng):
        t = rank_models({m: rng.uniform(0, 1, 3) for m in "AB"})
        not_rejected = friedman(t)
        assert not not_rejected.reject
        with pytest.warns(UserWarning, match="did not reject"):
            nemenyi_cd(t, friedman_result=not_rejected)

    def test_constructed_topology(self):
        # three interchangeable good models, three interchangeable bad ones:
        # two bars, every cross-tier pair significant
        local = np.random.default_rng(99)
        n = 30
        scores = {m: local.uniform(0, 1, n) for m in "ABC"}
        scores.update({m: 10.0 + local.uniform(0, 1, n) for m in "DEF"})
        r = nemenyi_cd(rank_models(scores), alpha=0.05)
        top = frozenset({"A", "B", "C"})
        bottom = frozenset({"D", "E", "F"})
        assert top in r.groups and bottom in r.groups
        assert r.pairwise[("A", "D")] and r.pairwise[("C", "F")]
        assert not r.pairwise[("A", "B")]


class TestPAdjust:
    def test_single_comparison_identity(self):
        for method in ("holm", "hochberg", "bonferroni-dunn"):
            r = p_adjust({("A", "B"): 0.04}, method)
            assert r.pairwise[("A", "B")] == pytest.approx(0.04)

    def test_bonferroni_dunn_multiplies(self):
        p = {("A", "B"): 0.01, ("A", "C"): 0.01, ("A", "D"): 0.01, ("B", "C"): 0.01}
        r = p_adjust(p, "bonferroni-dunn")
        assert all(v == pytest.approx(0.04) for v in r.pairwise.values())

    def test_holm_dominates_bonferroni(self, rng):
        for _ in range(30):
            keys = [("A", "B"), ("A", "C"), ("B", "C"), ("A", "D")]
            p = {k: float(rng.uniform(0, 1)) for k in keys}
            holm = p_adjust(p, "holm").pairwise
            bonf = p_adjust(p, "bonferroni-dunn").pairwise
            for k in keys:
                assert holm[k] <= bonf[k] + 1e-15

    def test_monotone_in_raw_order(self, rng):
        for method in ("holm", "hochberg", "bonferroni-dunn"):
            p = {(i, i + 1): float(v) for i, v in enumerate(rng.uniform(0, 1, 6))}
            adj = p_adjust(p, method).pairwise
            pairs = sorted(p, key=lambda k: p[k])
            adjusted_in_order = [adj[k] for k in pairs]
            assert adjusted_in_order == sorted(adjusted_in_order)

    def test_hochberg_le_holm(self, rng):
        for _ in range(30):
            keys = [("A", "B"), ("A", "C"), ("B", "C")]
            p = {k: float(rng.uniform(0, 1)) for k in keys}
            holm = p_adjust(p, "holm").pairwise
            hoch = p_adjust(p, "hochberg").pairwise
            for k in keys:
                assert hoch[k] <= holm[k] + 1e-15

    def test_invalid_p_rejected(self):
        with pytest.raises(ValidationError):
            p_adjust({("A", "B"): 1.2}, "holm")
        with pytest.raises(ValidationError):
            p_adjust({}, "holm")

    def test_groups_from_nonsignificant_cliques(self):
        p = {("A", "B"): 0.9, ("B", "C"): 0.9, ("A", "C"): 0.001}
        r = p_adjust(p, "bonferroni-dunn", alpha=0.05)
        group_sets = set(r.groups)
        assert frozenset({"A", "B"}) in group_sets
        assert frozenset({"B", "C"}) in group_sets
        assert frozenset({"A", "B", "C"}) not in group_sets


class TestCdDiagram:
    def make_posthoc(self, mean_ranks, cd, groups):
        pairwise = {}
        names = list(mean_ranks)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                pairwise[(a, b)] = abs(mean_ranks[a] - mean_ranks[b]) > cd
        return PostHocResult(method="nemenyi", pairwise=pairwise, alpha=0.05,
                             mean_ranks=mean_ranks, critical_distance=cd,
                             groups=tuple(frozenset(g) for g in groups))

    def test_overlapping_bars_share_model(self):
        ranks = {"A": 1.0, "B": 1.5, "C": 2.0, "D": 3.5, "E": 4.0, "F": 4.5}
        ph = self.make_posthoc(ranks, 1.2, [{"A", "B", "C"}, {"D", "E"}, {"E", "F"}])
        layout = cd_diagram_data(ph)
        assert len(layout.bars) == 3
        members = [set(b[2]) for b in layout.bars]
        assert {"D", "E"} in members and {"E", "F"} in members

    def test_single_group_single_bar(self):
        ranks = {"A": 1.9, "B": 2.0, "C": 2.1}
        ph = self.make_posthoc(ranks, 1.0, [{"A", "B", "C"}])
        assert len(cd_diagram_data(ph).bars) == 1

    def test_all_significant_zero_bars(self):
        ranks = {"A": 1.0, "B": 3.0}
        ph = self.make_posthoc(ranks, 0.5, [{"A"}, {"B"}])
        layout = cd_diagram_data(ph)
        assert layout.bars == ()

    def test_renderers_deterministic(self):
        ranks = {"A": 1.0, "B": 2.5, "C": 3.0}
        ph = self.make_posthoc(ranks, 1.0, [{"B", "C"}])
        layout = cd_diagram_data(ph)
        text1, text2 = render_cd_text(layout), render_cd_text(layout)
        assert text1 == text2 and "CD" in text1 and "A" in text1
        svg = render_cd_svg(layout)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 3



class TestScipyImports:
    """scipy is loaded only by a p-value, and then only ``scipy.special``."""

    CODE = """
import sys
import forevalkit, forevalkit.cli
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
import numpy as np
from forevalkit import diebold_mariano, friedman, ljung_box, rank_models, wilcoxon_rank_sum
x = np.sin(np.arange(40.0)) + np.arange(40.0) / 40
y = np.cos(np.arange(40.0))
friedman(rank_models({"a": x, "b": y, "c": x * y}))
diebold_mariano(x, y, horizon=2)
diebold_mariano(x, y, harvey_correction=False)
ljung_box(x, lags=3)
wilcoxon_rank_sum(x, y)
wilcoxon_rank_sum(x, y, paired=True)
print("scipy.special" in sys.modules, "scipy.stats" in sys.modules)
"""

    def test_import_loads_no_scipy_and_tests_load_only_special(self, subprocess_env):
        out = subprocess.run(
            [sys.executable, "-c", self.CODE], check=True, capture_output=True, text=True,
            env=subprocess_env,
        ).stdout.splitlines()
        assert out == ["[]", "True False"]


# few distinct values, signed zeros among them, so ties are the norm
_TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300])
_ROWS = st.one_of(hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=30),
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=_TIED))


class TestScipyEquivalence:
    """The numpy ranks and ``scipy.special`` tails equal what ``scipy.stats`` gave, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(x=_ROWS)
    def test_average_ranks_match_rankdata(self, x):
        expected = sps.rankdata(x, method="average", axis=-1)
        got = average_ranks(x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 19, 100, 999])
    def test_tails_match_scipy_stats(self, df):
        grid = [0.0, 1e-12, 0.01, 0.5, 1.0, 1.959963984540054, 2.5, 7.3, 20.0, 55.5, 300.0, 1e4]
        for x in grid:
            assert _chi2_sf(x, df) == float(sps.chi2.sf(x, df))
            assert _t_sf(x, df) == float(sps.t.sf(x, df=df))
            assert _norm_sf(x) == float(sps.norm.sf(x))

    @pytest.mark.parametrize("n", [4, 9, 30, 250])
    def test_test_p_values_match_scipy_stats(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0.3, 1, n)
        r = ljung_box(a, lags=min(3, n - 1))
        assert r.p_value == float(sps.chi2.sf(r.statistic, r.details["df"]))
        for h in (1, 2):
            r = diebold_mariano(a ** 2, b ** 2, horizon=h)
            assert r.p_value == 2.0 * float(sps.t.sf(abs(r.statistic), df=n - 1))
        r = diebold_mariano(a ** 2, b ** 2, harvey_correction=False)
        assert r.p_value == 2.0 * float(sps.norm.sf(abs(r.statistic)))
        for paired in (False, True):
            r = wilcoxon_rank_sum(np.round(a, 1), np.round(b, 1), paired=paired)
            assert r.p_value == 2.0 * float(sps.norm.sf(abs(r.statistic)))
        table = rank_models({"a": np.round(a, 1), "b": np.round(b, 1), "c": np.round(a * b, 1)})
        r = friedman(table)
        assert r.p_value == float(sps.chi2.sf(r.statistic, 2))


def _maximal_windows(mean_ranks: dict, cd: float) -> tuple:
    """By brute force: every run of models, in mean-rank order, whose mean ranks
    span at most ``cd`` and that lies in no other such run."""
    names = sorted(mean_ranks, key=mean_ranks.get)
    ranks = [mean_ranks[m] for m in names]
    runs = [(i, j) for i in range(len(names)) for j in range(i, len(names))
            if ranks[j] - ranks[i] <= cd]
    return tuple(frozenset(names[i:j + 1]) for i, j in runs
                 if not any(a <= i and j <= b and (a, b) != (i, j) for a, b in runs))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 4), min_size=k, max_size=k), min_size=1, max_size=12)),
    st.sampled_from([0.01, 0.05, 0.10]))
def test_nemenyi_groups_are_maximal_windows(rows, alpha):
    scores = {f"m{j}": [row[j] for row in rows] for j in range(len(rows[0]))}
    r = nemenyi_cd(rank_models(scores), alpha=alpha)
    assert r.groups == _maximal_windows(r.mean_ranks, r.critical_distance)
