import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forevalkit import (
    EvaluationFrame,
    UndefinedValueError,
    ValidationError,
    WeightVector,
    critical_event_percentage,
    evaluate,
    measure_names,
    percentage_better,
    rank_models,
    spec_for,
    summarize,
)


def frame(actuals, forecasts, model="m", sid="s", origin=10):
    actuals = np.asarray(actuals, dtype=float)
    h = actuals.size
    return EvaluationFrame([sid] * h, [origin] * h, range(1, h + 1), actuals,
                           {model: np.asarray(forecasts, dtype=float)})


def two_series(a_y, a_f, b_y, b_f, model="m"):
    na, nb = len(a_y), len(b_y)
    return EvaluationFrame(
        ["a"] * na + ["b"] * nb,
        [10] * (na + nb),
        list(range(1, na + 1)) + list(range(1, nb + 1)),
        list(a_y) + list(b_y),
        {model: np.array(list(a_f) + list(b_f), dtype=float)},
    )


def bench(f, forecasts, name="b"):
    return EvaluationFrame(f.series_ids, f.origins, f.steps, f.actuals,
                           {name: np.asarray(forecasts, dtype=float)})


class TestScaleDependent:
    def test_hand_example(self):
        f = frame([2, 4], [1, 2])
        assert evaluate("MAE", f).value == 1.5
        assert evaluate("RMSE", f).value == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_perfect_forecasts_zero(self):
        f = frame([3, 1, 4], [3, 1, 4])
        for name in ("MSE", "MAE", "RMSE", "GMAE", "ME", "MdAE", "RMdSE", "ErrorStd"):
            assert evaluate(name, f).value == 0.0

    def test_me_sign_convention(self):
        # overestimation (forecast above actual) gives negative mean error
        assert evaluate("ME", frame([1, 1], [2, 2])).value == -1.0

    def test_gmae(self):
        assert evaluate("GMAE", frame([2, 6], [1, 2])).value == pytest.approx(2.0, abs=1e-12)

    def test_grmse_equals_gmae_always(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 20))
            f = frame(rng.normal(0, 5, n), rng.normal(0, 5, n))
            assert evaluate("GRMSE", f).value == pytest.approx(
                evaluate("GMAE", f).value, rel=1e-12, abs=1e-12)

    def test_geometric_zero_term_flagged(self):
        r = evaluate("GMAE", frame([1, 2], [1, 5]))
        assert r.value == 0.0 and "geometric-mean-zero-term" in r.flags

    def test_error_std_zero_mean_convention(self):
        # centred on zero, not on the sample mean: identical to RMSE
        f = frame([5, 5], [3, 3])
        assert evaluate("ErrorStd", f).value == evaluate("RMSE", f).value == 2.0


class TestPercentage:
    def test_ape_term(self):
        assert evaluate("MAPE", frame([100], [110])).value == pytest.approx(10.0, abs=1e-12)

    def test_smape_zero_actual_boundary(self):
        assert evaluate("sMAPE", frame([0], [5])).value == 200.0

    def test_maape_zero_actual_boundary(self):
        assert evaluate("MAAPE", frame([0], [5])).value == pytest.approx(math.pi / 2, abs=1e-15)

    def test_msmape_winsorised_denominator(self):
        # |y| + |yhat| <= 0.5 puts every such term on the same 0.6 denominator
        a = evaluate("msMAPE", frame([0.2], [0.1])).value
        b = evaluate("msMAPE", frame([0.15], [0.05])).value
        assert a == b == pytest.approx(200.0 * 0.1 / 0.6, abs=1e-12)

    def test_msmape_constants_override(self):
        r = evaluate("msMAPE", frame([0.2], [0.1]), constants={"epsilon": 0.5, "threshold": 2.0})
        assert r.value == pytest.approx(200.0 * 0.1 / 2.5, abs=1e-12)

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"constants": 5}, "constants must map names to values, got 5"),
        ({"constants": ["epsilon"]}, "constants must map names to values, got ['epsilon']"),
        ({"series_summary": [1]}, "series_summary must be one of mean, median, geometric-mean; got [1]"),
        ({"series_summary": "mode"}, "series_summary must be one of mean, median, geometric-mean; got 'mode'"),
    ])
    def test_malformed_constants_and_summary_rejected(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=f"^msMAPE: {re.escape(fragment)}$"):
            evaluate("msMAPE", frame([0.2], [0.1]), **kwargs)

    @pytest.mark.parametrize("name, summary", [("MAE", "mean"), ("MdAE", "mean"), ("ND", "median"),
                                               ("AvgRelMAE", "geometric-mean")])
    def test_series_summary_of_a_measure_that_does_not_read_it_rejected(self, name, summary):
        with pytest.raises(ValidationError, match=f"^{name}: series_summary is read only by per-series "
                                                  f"measures; {name} is summarised by "
                                                  f"'{spec_for(name).summary}'$"):
            evaluate(name, frame([1.0, 2.0], [2.0, 2.5]), series_summary=summary)

    @pytest.mark.parametrize("policy", ["skipp", ["skip"], None, True])
    def test_malformed_policy_rejected(self, policy):
        with pytest.raises(ValidationError, match=f"^unknown undefined-value policy "
                                                  f"{re.escape(repr(policy))}; expected propagate, "):
            evaluate("MAE", frame([0.2], [0.1]), policy=policy)

    @pytest.mark.parametrize("policy", ["propagate", "skip", "error"])
    def test_msmape_constants_must_keep_denominator_positive(self, policy):
        f = frame([0.0, 1.0], [0.0, 2.0])
        with pytest.raises(ValidationError, match="epsilon=0.0, threshold=0.0"):
            evaluate("msMAPE", f, policy=policy, constants={"epsilon": 0.0, "threshold": 0.0})
        r = evaluate("msMAPE", f, policy=policy, constants={"epsilon": -0.5, "threshold": 1.0})
        assert r.value == pytest.approx(100.0 * 1.0 / 2.5, abs=1e-12)
        assert r.n_undefined == 0

    def test_mape_undefined_on_zero_actual(self):
        f = frame([0, 1], [1, 1])
        r = evaluate("MAPE", f)  # default policy propagates
        assert not r.defined and r.n_undefined == 1 and r.n_used == 1
        r_skip = evaluate("MAPE", f, policy="skip")
        assert r_skip.value == 0.0 and r_skip.n_undefined == 1
        with pytest.raises(UndefinedValueError):
            evaluate("MAPE", f, policy="error")

    def test_smape_undefined_only_when_both_zero(self):
        r = evaluate("sMAPE", frame([0, 0], [0, 5]), policy="skip")
        assert r.n_undefined == 1 and r.value == 200.0

    def test_maape_undefined_at_perfect_zero(self):
        r = evaluate("MAAPE", frame([0], [0]))
        assert not r.defined and r.n_undefined == 1

    def test_smape_bounded(self, rng):
        y = rng.normal(0, 10, 2000)
        f = rng.normal(0, 10, 2000)
        r = evaluate("sMAPE", frame(y, f))
        assert 0.0 <= r.value <= 200.0

    def test_mape_asymmetry_smape_rmsle_symmetry(self, rng):
        for _ in range(50):
            y = rng.uniform(0.5, 10, 5)
            f = np.maximum(y + rng.normal(0, 2, 5), 0.05)
            if np.allclose(y, f):
                continue
            assert evaluate("MAPE", frame(y, f)).value != pytest.approx(
                evaluate("MAPE", frame(f, y)).value, rel=1e-9)
            assert evaluate("sMAPE", frame(y, f)).value == pytest.approx(
                evaluate("sMAPE", frame(f, y)).value, rel=1e-12)
            assert evaluate("RMSLE", frame(y, f)).value == pytest.approx(
                evaluate("RMSLE", frame(f, y)).value, rel=1e-12)


class TestAggregateScaled:
    def test_wape_example(self):
        assert evaluate("WAPE", frame([10, 10], [9, 12])).value == pytest.approx(0.15, abs=1e-12)

    def test_nd_equals_wape_single_series(self, rng):
        for _ in range(20):
            y = rng.uniform(0.5, 10, 6)
            f = y + rng.normal(0, 1, 6)
            fr = frame(y, f)
            assert evaluate("ND", fr).value == pytest.approx(
                evaluate("WAPE", fr).value, rel=1e-12)

    def test_perfect_forecasts_zero_family(self):
        y = np.array([3.0, 4.0, 5.0])
        fr = frame(y, y)
        for name in ("WAPE", "sWAPE", "WRMSPE", "RTAE", "ND", "NRMSE"):
            assert evaluate(name, fr).value == 0.0

    def test_wape_zero_horizon_undefined(self):
        r = evaluate("WAPE", frame([0, 0], [1, 1]))
        assert not r.defined and "zero-scale" in r.flags

    def test_rtae_clamps(self):
        # mean |y| = 0.2 below the default clamp of 1.0
        r = evaluate("RTAE", frame([0.2, 0.2], [0.1, 0.3]))
        assert r.value == pytest.approx(0.1 / 1.0, abs=1e-12)
        assert "winsorised-denominator" in r.flags
        r2 = evaluate("RTAE", frame([0.2, 0.2], [0.1, 0.3]), constants={"clamp": 0.05})
        assert r2.value == pytest.approx(0.1 / 0.2, abs=1e-12)

    def test_smae_zero_train_mean_undefined(self):
        f = frame([1, 2], [1, 1])
        r = evaluate("sMAE", f, train={"s": [0.0, 0.0, 0.0]})
        assert not r.defined and "zero-scale" in r.flags
        assert r.n_undefined == 2

    def test_smae_scaling(self):
        f = frame([12, 8], [10, 10])
        r = evaluate("sMAE", f, train={"s": [4.0, 6.0]})  # train mean 5
        assert r.value == pytest.approx((2 / 5 + 2 / 5) / 2, abs=1e-12)

    def test_sme_keeps_sign(self):
        f = frame([12, 8], [10, 10])
        r = evaluate("sME", f, train={"s": [4.0, 6.0]})
        assert r.value == pytest.approx((2 / 5 - 2 / 5) / 2, abs=1e-12)

    def test_wape_across_series_mean(self):
        fr = two_series([10, 10], [9, 12], [100, 100], [90, 120])
        r = evaluate("WAPE", fr)
        assert r.value == pytest.approx(0.15, abs=1e-12)
        assert r.per_series == {"a": pytest.approx(0.15), "b": pytest.approx(0.15)}


class TestRelativeErrors:
    def test_equal_errors_give_one(self):
        f = frame([5, 5], [4, 6])
        b = bench(f, [4, 6])
        assert evaluate("MRAE", f, benchmark=b).value == 1.0

    def test_mrae_example(self):
        f = frame([5, 5], [4, 3])  # |e| = 1, 2
        b = bench(f, [3, 3])  # |e_b| = 2, 2
        assert evaluate("MRAE", f, benchmark=b).value == pytest.approx(0.75, abs=1e-12)

    def test_gmrae_zero_collapse(self):
        f = frame([5, 5, 5], [5, 1, 9])  # one exact hit
        b = bench(f, [4, 4, 4])
        r = evaluate("GMRAE", f, benchmark=b)
        assert r.value == 0.0 and "geometric-mean-zero-term" in r.flags

    def test_zero_benchmark_error_undefined(self):
        f = frame([5, 5], [4, 4])
        b = bench(f, [5, 4])  # first benchmark error is 0
        r = evaluate("MRAE", f, benchmark=b)
        assert not r.defined and r.n_undefined == 1
        assert evaluate("MRAE", f, benchmark=b, policy="skip").value == 1.0

    def test_rgrmse_equals_gmrae(self, rng):
        for _ in range(50):
            y = rng.uniform(0.5, 10, 6)
            f = frame(y, y + rng.normal(0, 1, 6))
            b = bench(f, y + rng.normal(0, 1, 6))
            assert evaluate("RGRMSE", f, benchmark=b).value == pytest.approx(
                evaluate("GMRAE", f, benchmark=b).value, rel=1e-12, abs=1e-12)

    def test_benchmark_as_model_name(self):
        fr = EvaluationFrame(["s", "s"], [1, 1], [1, 2], [5.0, 5.0],
                             {"m": np.array([4.0, 3.0]), "naive": np.array([3.0, 3.0])})
        assert evaluate("MRAE", fr, model="m", benchmark="naive").value == pytest.approx(0.75)
        with pytest.raises(ValidationError):
            evaluate("MRAE", fr, model="m", benchmark="m")


class TestRelativeMeasures:
    def test_identity(self):
        f = frame([5, 5], [4, 6])
        b = bench(f, [6, 4])
        assert evaluate("RelMAE", f, benchmark=b).value == 1.0

    def test_avg_rel_mae_balanced_ratios(self):
        fr = two_series([10], [9], [10], [6], model="m")  # |e| = 1 and 4
        b = EvaluationFrame(fr.series_ids, fr.origins, fr.steps, fr.actuals,
                            {"b": np.array([8.0, 8.0])})  # |e_b| = 2 and 2
        r = evaluate("AvgRelMAE", fr, benchmark=b)
        assert r.value == pytest.approx(1.0, abs=1e-12)  # sqrt(0.5 * 2)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), policy=st.sampled_from(["skip", "propagate"]))
    def test_avg_rel_mae_is_the_length_weighted_geometric_mean(self, seed, policy):
        # Davydenko & Fildes: each series' RelMAE weighted by its number of
        # forecasts; a series whose benchmark errors are all 0 is undefined
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 9, size=int(rng.integers(1, 6))).tolist()
        perfect = rng.random(len(lengths)) < 0.3  # benchmark equals the actuals
        sids, steps, y, f, b = [], [], [], [], []
        for j, (h, exact) in enumerate(zip(lengths, perfect)):
            yj = rng.uniform(1, 10, h)
            sids += [f"s{j}"] * h
            steps += range(1, h + 1)
            y += yj.tolist()
            f += (yj + rng.choice([-1, 1], h) * rng.uniform(0.1, 2, h)).tolist()
            b += (yj if exact else yj + rng.uniform(-3, 3, h)).tolist()
        fr = EvaluationFrame(sids, [10] * len(y), steps, y, {"m": np.array(f)})
        r = evaluate("AvgRelMAE", fr, benchmark=bench(fr, b), policy=policy)
        defined = [h for h, exact in zip(lengths, perfect) if not exact]
        assert (r.n_used, r.n_undefined) == (sum(defined), sum(lengths) - sum(defined))
        relmae = evaluate("RelMAE", fr, benchmark=bench(fr, b), policy="skip").per_series
        assert np.array_equal(list(r.per_series.values()), list(relmae.values()), equal_nan=True)
        if not defined or (policy == "propagate" and perfect.any()):
            assert math.isnan(r.value)
            return
        start, log_sum = 0, []
        for h in lengths:
            rows = slice(start, start + h)
            start += h
            num = math.fsum(abs(yi - fi) for yi, fi in zip(y[rows], f[rows]))
            den = math.fsum(abs(yi - bi) for yi, bi in zip(y[rows], b[rows]))
            if den:
                log_sum.append(h * math.log(num / den))
        want = math.exp(math.fsum(log_sum) / sum(defined))
        assert abs(r.value - want) <= 1e-12 * want

    def test_rse_of_the_mean_is_one(self, rng):
        y = rng.uniform(1, 10, 8)
        fr = frame(y, np.full(8, y.mean()))
        assert evaluate("RSE", fr).value == pytest.approx(1.0, rel=1e-12)

    def test_zero_benchmark_measure_undefined(self):
        f = frame([5, 5], [4, 6])
        b = bench(f, [5, 5])  # perfect benchmark, MAE_b = 0
        assert not evaluate("RelMAE", f, benchmark=b).defined


class TestScaledErrors:
    def test_mase_example(self):
        f = frame([10], [8])  # |e| = 2
        r = evaluate("MASE", f, train={"s": [1.0, 2.0, 3.0, 4.0]})  # scale 1
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_constant_train_undefined(self):
        r = evaluate("MASE", frame([10], [8]), train={"s": [5.0, 5.0, 5.0]})
        assert not r.defined and "zero-scale" in r.flags

    def test_in_sample_naive_self_consistency(self, rng):
        values = rng.normal(0, 3, 40)
        actual = values[1:]
        fc = values[:-1]
        f = frame(actual, fc)
        r = evaluate("MASE", f, train={"s": values})
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_seasonal_scale_variant(self):
        train = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        f = frame([5], [4])
        with pytest.raises(ValidationError):
            # lag-1 differences are all 1, fine; but check the seasonal period path bounds
            evaluate("MASE", f, train={"s": [1.0]}, constants={"seasonal_period": 2})
        r = evaluate("MASE", f, train={"s": train}, constants={"seasonal_period": 2})
        assert not r.defined  # lag-2 differences are all zero on the alternating train

    def test_multistep_scale_mode(self):
        train = [1.0, 2.0, 4.0, 8.0]
        f = frame([10], [9])
        r = evaluate("MASE", f, train={"s": train},
                     constants={"scale_mode": "multi-step", "multistep_h": 2})
        # lag-1 diffs |1,2,4| mean 7/3; lag-2 diffs |3,6| mean 4.5; pooled mean of 5 values
        scale = (1 + 2 + 4 + 3 + 6) / 5
        assert r.value == pytest.approx(1.0 / scale, abs=1e-12)

    def test_rmsse_squared_scale(self):
        f = frame([10], [7])
        r = evaluate("RMSSE", f, train={"s": [0.0, 1.0, 3.0]})  # sq diffs 1, 4 -> mean 2.5
        assert r.value == pytest.approx(math.sqrt(9 / 2.5), abs=1e-12)

    def test_missing_train_rejected(self):
        with pytest.raises(ValidationError):
            evaluate("MASE", frame([1], [1]), train={})

    @pytest.mark.parametrize("name", ["MASE", "sMAE"])
    @pytest.mark.parametrize("values, problem", [
        ([1.0, np.nan, 2.0], "missing values are rejected at ingestion"),
        ([1.0, np.inf, 2.0], "values must be finite"),
        ([[1.0, 2.0], [3.0, 4.0]], "values must be a non-empty 1-d sequence"),
        ([], "values must be a non-empty 1-d sequence"),
    ])
    def test_malformed_train_values_rejected(self, name, values, problem):
        # a train mapping is checked as a dataset's series are: no NaN scale with n_undefined 0
        with pytest.raises(ValidationError, match=f"^{name}: train values of series 's': {problem}$"):
            evaluate(name, frame([10, 11], [9, 12]), train={"s": values, "other": [1.0, 2.0]})

    def test_multistep_h_beyond_any_train_length(self):
        for h in (4, 2 ** 70):
            with pytest.raises(ValidationError, match="^MASE: series 's' train length 4 too short for lag 4 scaling$"):
                evaluate("MASE", frame([10], [8]), train={"s": [1.0, 2.0, 4.0, 7.0]},
                         constants={"scale_mode": "multi-step", "multistep_h": h})


class TestTransforms:
    def test_rmsle_zero_on_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert evaluate("RMSLE", frame(y, y)).value == 0.0

    def test_log_ratio_term(self):
        assert evaluate("RMSLE", frame([9], [4])).value == pytest.approx(math.log(2), abs=1e-12)

    def test_negative_input_domain_error(self):
        with pytest.raises(ValidationError):
            evaluate("RMSLE", frame([-1, 2], [1, 1]))

    def test_nwrmsle_weights(self):
        f = frame([9, 9], [4, 9])
        w = WeightVector(axis="step", weights={1: 3.0, 2: 1.0})
        expected = math.sqrt(3.0 * math.log(2) ** 2 / 4.0)
        assert evaluate("NWRMSLE", f, weights=w).value == pytest.approx(expected, abs=1e-12)

    def test_nwrmsle_uniform_default(self):
        f = frame([9, 4], [4, 9])
        assert evaluate("NWRMSLE", f).value == pytest.approx(
            evaluate("RMSLE", f).value, rel=1e-12)


class TestOtherMeasures:
    def test_rate_measures_zero_on_cumulative_mean(self):
        y = np.array([2.0, 4.0, 6.0])
        cummean = np.cumsum(y) / np.arange(1, 4)
        f = frame(y, cummean)
        assert evaluate("MSR", f).value == 0.0
        assert evaluate("MAR", f).value == 0.0

    def test_rate_measure_value(self):
        f = frame([2.0, 4.0], [3.0, 3.0])  # cummeans 2, 3 -> c = 1, 0
        assert evaluate("MAR", f).value == 0.5
        assert evaluate("MSR", f).value == 0.5

    def test_wmae_examples(self):
        f1 = frame([1, 1], [0, 0])  # |e| = 1, 1
        w = WeightVector(axis="step", weights={1: 5.0, 2: 1.0})
        assert evaluate("WMAE", f1, weights=w).value == 1.0
        f2 = frame([2, 1], [0, 1])  # |e| = 2, 0
        assert evaluate("WMAE", f2, weights=w).value == pytest.approx(10 / 6, abs=1e-12)

    def test_corr_shift_invariance(self, rng):
        y = rng.normal(0, 1, 10)
        f = frame(y, y + 7.5)
        assert evaluate("CORR", f).value == pytest.approx(1.0, abs=1e-12)

    def test_corr_zero_variance_undefined(self):
        r = evaluate("CORR", frame([1, 1, 1], [1, 2, 3]))
        assert not r.defined and "zero-variance" in r.flags

    def test_corr_higher_is_better_registered(self):
        assert spec_for("CORR").higher_is_better


class TestUndefinedAccounting:
    def test_n_used_plus_n_undefined_invariant(self, rng):
        # frames with zero actuals and zero benchmark errors sprinkled in
        for _ in range(30):
            n = 8
            y = rng.uniform(0, 3, n)
            y[rng.integers(0, n)] = 0.0
            fc = np.maximum(y + rng.normal(0, 1, n), 0.0)
            f = frame(y, fc)
            b = bench(f, np.where(rng.random(n) < 0.3, y, y + 1.0))
            train = {"s": rng.uniform(0, 2, 12)}
            w = rng.uniform(0.1, 1, n)
            for name in measure_names():
                kw = {}
                if spec_for(name).needs_benchmark:
                    kw["benchmark"] = b
                if spec_for(name).needs_train:
                    kw["train"] = train
                if spec_for(name).needs_weights:
                    kw["weights"] = w
                r = evaluate(name, f, policy="skip", **kw)
                total = r.n_used + r.n_undefined
                assert total in (f.n_rows, len(f.unique_series())), name

    def test_policy_aliases(self):
        # each policy has one name
        f = frame([0], [1])
        assert not evaluate("MAPE", f, policy="propagate").defined
        assert evaluate("MAPE", f, policy="skip").n_undefined == 1
        with pytest.raises(ValidationError, match="unknown undefined-value policy 'skip-and-count'"):
            evaluate("MAPE", f, policy="skip-and-count")

    def test_median_over_defined_terms_only(self):
        # undefined terms are dropped before the median under skip
        f = frame([5, 5, 5], [4, 3, 1])  # |e| = 1, 2, 4
        b = bench(f, [5, 4, 4])  # e_b = 0 (undefined), 1, 1
        r = evaluate("MdRAE", f, benchmark=b, policy="skip")
        assert r.value == 3.0  # median of |2/1|, |4/1|
        assert r.n_undefined == 1


class TestSummarize:
    def test_singleton_identity(self):
        assert summarize({"a": [7.0]}) == 7.0

    def test_orderings(self):
        values = {"a": [1.0, 3.0], "b": [2.0, 2.0]}
        assert summarize(values, "horizon-then-series", "mean", "mean") == 2.0
        assert summarize(values, "pooled", "mean") == 2.0
        assert summarize(values, "horizon-then-series", "mean", "median") == 2.0
        assert summarize(values, "series-then-horizon", "mean", "mean") == 2.0

    def test_geometric_requires_nonnegative(self):
        with pytest.raises(ValidationError):
            summarize({"a": [-1.0, 2.0]}, "pooled", "geometric-mean")

    def test_series_weights(self):
        values = {"a": [2.0], "b": [4.0]}
        w = WeightVector(axis="series", weights={"a": 3.0, "b": 1.0})
        assert summarize(values, "horizon-then-series", "mean", "mean", weights=w) == 2.5

    def test_series_weights_pooled(self):
        # each value takes its series' weight: (1 + 3 + 2 * 10) / 4
        w = WeightVector(axis="series", weights={"a": 1.0, "b": 2.0})
        assert summarize({"a": [1.0, 3.0], "b": [10.0]}, "pooled", weights=w) == 6.0

    def test_weighted_median_is_the_lower_weighted_median(self):
        # sorted values 1, 2, 3, 10: equal weights reach half the total (2) at 2,
        # not at the midpoint 2.5; weights 1, 1, 5, 1 reach half (4) at 3
        values = {"a": [3.0, 1.0, 2.0, 10.0]}
        equal = WeightVector(axis="step", weights={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
        heavy = WeightVector(axis="step", weights={1: 5.0, 2: 1.0, 3: 1.0, 4: 1.0})
        assert summarize(values, "pooled", "median", weights=equal) == 2.0
        assert summarize(values, "pooled", "median", weights=heavy) == 3.0

    def test_weighted_geometric_mean(self):
        # exp((1 ln 1 + 2 ln 4 + 1 ln 16) / 4) = 4; a zero value makes it 0
        w = WeightVector(axis="step", weights={1: 1.0, 2: 2.0, 3: 1.0})
        assert (summarize({"a": [1.0, 4.0, 16.0]}, "pooled", "geometric-mean", weights=w)
                == pytest.approx(4.0, rel=1e-15))
        assert summarize({"a": [1.0, 0.0, 16.0]}, "pooled", "geometric-mean", weights=w) == 0.0

    def test_step_weights_in_every_order(self):
        values = {"a": [1.0, 2.0, 4.0], "b": [8.0, 16.0, 0.5]}
        w = WeightVector(axis="step", weights={1: 1.0, 2: 2.0, 3: 5.0})
        assert summarize(values, "pooled", weights=w) == (1 + 4 + 20 + 8 + 32 + 2.5) / 16
        assert summarize(values, "horizon-then-series", weights=w) == ((1 + 4 + 20) / 8 + (8 + 32 + 2.5) / 8) / 2
        assert summarize(values, "series-then-horizon", weights=w) == (4.5 + 2 * 9.0 + 5 * 2.25) / 8
        short = WeightVector(axis="step", weights={1: 1.0, 2: 2.0})
        for order in ("pooled", "horizon-then-series", "series-then-horizon"):
            with pytest.raises(ValidationError, match="^no weight for step 3$"):
                summarize(values, order, weights=short)

    def test_one_message_for_a_missing_weight(self):
        # evaluate's per-row weights, summarize's series weights and its step weights
        f = two_series([1.0, 2.0], [1.5, 2.5], [3.0], [2.0])
        for weights, label, call in (
                ({"a": 1.0}, "series 'b'", lambda w: evaluate("WMAE", f, weights=w)),
                ({"a": 1.0}, "series 'b'", lambda w: summarize({"a": [1.0], "b": [2.0]}, weights=w)),
                ({1: 1.0}, "step 2", lambda w: summarize({"a": [1.0, 2.0]}, weights=w)),
                ({1: 1.0}, "step 2", lambda w: evaluate("WMAE", f, weights=w))):
            w = WeightVector("step" if label.startswith("step") else "series", weights)
            with pytest.raises(ValidationError, match=f"^no weight for {re.escape(label)}$"):
                call(w)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        # a NaN weight makes the weighted value NaN, and an infinite one inf / inf
        with pytest.raises(ValidationError, match="^each weight must be one finite non-negative number$"):
            WeightVector("step", {1: bad, 2: 1.0})
        f = two_series([1.0, 2.0], [1.5, 2.5], [3.0], [2.0])
        with pytest.raises(ValidationError, match="^weights must be finite, non-negative and not all zero$"):
            evaluate("WMAE", f, weights=[bad, 1.0, 1.0])

    def test_ragged_series_then_horizon_rejected(self):
        with pytest.raises(ValidationError):
            summarize({"a": [1.0], "b": [1.0, 2.0]}, "series-then-horizon")


_TWO = EvaluationFrame(["a", "a", "b"], [10] * 3, [1, 2, 1], [1.0, 2.0, 3.0],
                       {"m": np.array([1.5, 2.5, 2.0]), "n": np.array([1.0, 2.0, 2.5])})


@pytest.mark.parametrize("call, message", [
    (lambda: summarize({"a": [1.0]}, "pooled", "mode"), "^unknown operator 'mode'; expected one of"),
    (lambda: summarize({}), "^no values to summarise$"),
    (lambda: summarize({"a": [1.0], "b": []}), "^empty per-series value sequence$"),
    (lambda: summarize({"a": [1.0]}, "series-first"), "^unknown aggregation order 'series-first'; expected"),
    (lambda: rank_models({"A": [1.0]}), "^ranking needs at least two models$"),
    (lambda: rank_models({"A": [], "B": []}), "^ranking needs at least one series$"),
    (lambda: rank_models({"A": [1.0, np.nan], "B": [2.0, 1.0]}), r"^cannot rank undefined \(NaN\) scores$"),
    (lambda: percentage_better([], []), "^percentage-better needs non-empty aligned value collections$"),
    (lambda: percentage_better([1.0, 2.0], [1.0]), "^percentage-better needs non-empty aligned value collections$"),
    (lambda: critical_event_percentage([], 1.0), "^critical-event percentage needs a non-empty value collection$"),
    (lambda: WeightVector("row", {1: 1.0}), "^weight axis must be 'series' or 'step'$"),
    (lambda: WeightVector("step", {}), "^weight vector is empty$"),
    (lambda: WeightVector("step", {1: 0.0, 2: 0.0}), "^weights must not all be zero$"),
    # a one-element array passed every other check, and summarize broadcast it to a wrong value
    (lambda: WeightVector("series", {"a": np.array([1.0]), "b": np.array([1.0])}),
     "^each weight must be one finite non-negative number$"),
    (lambda: evaluate("MASE", _TWO, model="m", train={"a": [1.0, 2.0, 4.0]}),
     "^MASE: no train values supplied for series 'b'$"),
    (lambda: evaluate("MRAE", _TWO, model="m", benchmark=1), "^benchmark must be a model name or an EvaluationFrame$"),
    (lambda: evaluate("WMAE", _TWO, model="m", weights=[1.0, 1.0]),
     "^per-row weights must match the number of frame rows$"),
    (lambda: evaluate("MAE", _TWO, model="m", constants={"epsilon": 0.1}),
     r"^MAE: unknown constants \['epsilon'\]; allowed: none$"),
    (lambda: evaluate("msMAPE", _TWO, model="m", constants={"eps": 0.1}),
     r"^msMAPE: unknown constants \['eps'\]; allowed: \['epsilon', 'threshold'\]$"),
])
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestRanking:
    def test_mean_ranks(self):
        t = rank_models({"A": [1.0, 1.0], "B": [2.0, 2.0]})
        assert t.mean_ranks == {"A": 1.0, "B": 2.0}

    def test_tie_average_rank(self):
        t = rank_models({"A": [1.0], "B": [1.0]})
        assert t.ranks.tolist() == [[1.5, 1.5]]

    def test_monotone_transform_invariance(self, rng):
        scores = {m: rng.uniform(0, 1, 12) for m in "ABC"}
        t1 = rank_models(scores)
        t2 = rank_models({m: np.exp(5 * v) for m, v in scores.items()})
        assert np.array_equal(t1.ranks, t2.ranks)

    def test_descending_for_goodness_scores(self):
        t = rank_models({"A": [0.9], "B": [0.1]}, ascending=False)
        assert t.mean_ranks == {"A": 1.0, "B": 2.0}

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValidationError):
            rank_models({"A": [1.0, 2.0], "B": [1.0]})

    def test_percentage_better(self):
        assert percentage_better([1, 1, 1, 1], [2, 2, 2, 2]) == 100.0
        assert percentage_better([1, 1, 1, 3], [2, 2, 2, 2]) == 75.0

    def test_critical_event(self):
        assert critical_event_percentage([0.5, 1.5, 2.5], 1.0) == pytest.approx(200 / 3)


class TestBreakdown:
    def test_per_series_breakdown(self):
        fr = two_series([10, 10], [9, 12], [100, 100], [98, 104])
        r = evaluate("MAE", fr)
        assert r.per_series == {"a": 1.5, "b": 3.0}
        assert r.value == 2.25
        with pytest.raises(TypeError, match="breakdown"):  # per-series values are not optional
            evaluate("MAE", fr, breakdown=True)

    @pytest.mark.parametrize("name", ["ND", "NRMSE", "RSE", "WMAE", "NWRMSLE"])
    def test_zero_series_denominator_flagged(self, name):
        # series b: all-zero actuals for ND, NRMSE and RSE, zero weight for WMAE and NWRMSLE
        fr = two_series([1.0, 3.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0])
        weights = WeightVector("series", {"a": 1.0, "b": 0.0}) if spec_for(name).needs_weights else None
        r = evaluate(name, fr, weights=weights)
        assert r.defined and math.isnan(r.per_series["b"]) and "zero-scale" in r.flags
        # the counts are the pooled ratio's rows: series b's zero denominator is not undefined
        assert (r.n_used, r.n_undefined) == (4, 0)

    @pytest.mark.parametrize("name", measure_names())
    def test_no_sub_frames_and_one_alignment(self, name, rng, monkeypatch):
        sids = [f"s{i:02d}" for i in range(50) for _ in range(3)]
        steps = [1, 2, 3] * 50
        y = rng.uniform(1.0, 10.0, 150)
        fr = EvaluationFrame(sids, [5] * 150, steps, y, {"m": y * rng.uniform(0.5, 1.5, 150)})
        bench_frame = bench(fr, y * rng.uniform(0.5, 1.5, 150))
        train = {sid: rng.uniform(1.0, 10.0, 6) for sid in fr.unique_series()}
        calls = {"init": 0, "align": 0}
        init, align = EvaluationFrame.__init__, EvaluationFrame.align_benchmark

        def counting_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counting_align(self, benchmark):
            calls["align"] += 1
            return align(self, benchmark)

        monkeypatch.setattr(EvaluationFrame, "__init__", counting_init)
        monkeypatch.setattr(EvaluationFrame, "align_benchmark", counting_align)
        r = evaluate(name, fr, benchmark=bench_frame, train=train)
        assert len(r.per_series) == 50
        assert calls == {"init": 0, "align": int(spec_for(name).needs_benchmark)}

    def test_registry_bijective(self):
        names = measure_names()
        assert len(names) == len(set(names))
        assert len(names) >= 45


class TestDeclaredInputs:
    """Each registry entry declares exactly the extra inputs its terms read."""

    @staticmethod
    def case():
        rng = np.random.default_rng(4)
        keys = [("a", 10, k) for k in range(1, 5)] + [("b", 7, k) for k in range(1, 4)]
        keys = [keys[i] for i in rng.permutation(len(keys))]
        sids, origins, steps = (list(c) for c in zip(*keys))
        y = rng.uniform(1.0, 5.0, len(keys))
        fr = EvaluationFrame(sids, origins, steps, y, {"m": y * rng.uniform(0.5, 1.5, y.size)})
        inputs = {
            "benchmark": bench(fr, y * rng.uniform(0.5, 1.5, y.size)),
            "train": {"a": rng.uniform(1.0, 5.0, 8), "b": rng.uniform(1.0, 5.0, 6)},
            "weights": rng.uniform(0.5, 2.0, y.size),
        }
        return fr, inputs

    @pytest.mark.parametrize("name", measure_names())
    def test_reads_only_and_needs_all_declared(self, name, monkeypatch):
        from forevalkit.measures import engine

        spec = spec_for(name)
        declared = {k for k, needed in (("benchmark", spec.needs_benchmark),
                                        ("train", spec.needs_train),
                                        ("weights", spec.needs_weights)) if needed}
        reads = set()
        for key, fn in (("benchmark", "_resolve_benchmark"), ("train", "_train_scale"),
                        ("weights", "_resolve_weights")):
            def spy(*args, _real=getattr(engine, fn), _key=key):
                reads.add(_key)
                return _real(*args)
            monkeypatch.setattr(engine, fn, spy)
        fr, inputs = self.case()
        offered = evaluate(name, fr, **inputs)
        assert reads == declared
        given_only = evaluate(name, fr, **{k: inputs[k] for k in declared})
        assert given_only.defined and given_only == offered
        for key in declared - {"weights"}:
            with pytest.raises(ValidationError, match=key):
                evaluate(name, fr, **{k: inputs[k] for k in declared - {key}})
        if "weights" in declared:  # without weights, a weighted measure weighs rows equally
            rest = {k: inputs[k] for k in declared - {"weights"}}
            unweighted = evaluate(name, fr, **rest).value
            assert unweighted == evaluate(name, fr, weights=np.ones(fr.n_rows), **rest).value
            assert unweighted != offered.value

    def test_every_term_key_names_one_table_entry(self):
        from forevalkit.measures import engine

        tables = (engine._STEP_TERMS, engine._RATIOS)
        used = [spec_for(name).terms for name in measure_names()]
        for key in used:
            assert sum(key in table for table in tables) == 1, key
        assert {k for table in tables for k in table} == set(used)


# Quarter-integers hit zero denominators and exact ties often; multiples of
# 1/97 bring rounding that does not cancel.
_VALUE = st.one_of(
    st.integers(-12, 12).map(lambda v: v / 4),
    st.integers(-9700, 9700).map(lambda v: v / 97),
)


@st.composite
def breakdown_case(draw, nonnegative=False):
    """A shuffled multi-series frame with models ``m`` and ``b``, train values
    for every series, and a benchmark frame holding ``b`` on a shuffled
    superset of the frame's keys."""
    value = _VALUE.map(abs) if nonnegative else _VALUE
    keys = []
    for s in range(draw(st.integers(1, 4))):
        for origin in draw(st.sets(st.integers(1, 3), min_size=1, max_size=2)):
            keys += [(f"s{s}", origin, k) for k in range(1, draw(st.integers(1, 4)) + 1)]
    n = len(keys)
    columns = draw(st.lists(st.tuples(value, value, value), min_size=n, max_size=n))
    rows = [key + col for key, col in zip(keys, columns)]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    sids, origins, steps, y, m, b = (list(c) for c in zip(*rows))
    fr = EvaluationFrame(sids, origins, steps, y, {"m": np.array(m), "b": np.array(b)})
    extra = [("x", 1, 1, 1.0, 2.0)]  # a key the frame does not hold
    bench_rows = [rows[i][:4] + (rows[i][5],) for i in draw(st.permutations(range(n)))] + extra
    bsids, borigins, bsteps, by, bb = (list(c) for c in zip(*bench_rows))
    bench_frame = EvaluationFrame(bsids, borigins, bsteps, by, {"b": np.array(bb)})
    train = {sid: np.array(draw(st.lists(value, min_size=2, max_size=6)))
             for sid in fr.unique_series()}
    return fr, bench_frame, train


def _sub_frame(fr, sid):
    rows = np.flatnonzero(fr.series_ids == sid)
    return EvaluationFrame(fr.series_ids[rows], fr.origins[rows], fr.steps[rows],
                           fr.actuals[rows], {name: c[rows] for name, c in fr.forecasts.items()})


class TestBreakdownConsistency:
    """``per_series[sid]`` is the measure evaluated on that series' rows alone."""

    @pytest.mark.parametrize("name", measure_names())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), policy=st.sampled_from(["propagate", "skip", "error"]),
           bench_by_name=st.booleans())
    def test_per_series_equals_sub_frame(self, name, data, policy, bench_by_name):
        fr, bench_frame, train = data.draw(breakdown_case(nonnegative=name in ("RMSLE", "NWRMSLE")))
        benchmark = "b" if bench_by_name else bench_frame
        try:
            r = evaluate(name, fr, model="m", benchmark=benchmark, train=train, policy=policy)
        except UndefinedValueError:
            assert policy == "error"
            return
        assert list(r.per_series) == fr.unique_series()
        sub_policy = "skip" if policy == "error" else policy
        for sid, got in r.per_series.items():
            want = evaluate(name, _sub_frame(fr, sid), model="m", benchmark=benchmark,
                            train=train, policy=sub_policy).value
            assert (math.isnan(got) and math.isnan(want)) or math.isclose(
                got, want, rel_tol=1e-12, abs_tol=0.0), (sid, got, want)


def _error_frame(errors: dict) -> EvaluationFrame:
    """A frame whose errors are ``errors`` (series id -> per-step errors), rows
    in dict order: actuals are the errors and every forecast is 0."""
    sids = [sid for sid, e in errors.items() for _ in e]
    steps = [k for e in errors.values() for k in range(1, len(e) + 1)]
    actuals = np.concatenate([np.asarray(e, dtype=float) for e in errors.values()])
    return EvaluationFrame(sids, [10] * len(sids), steps, actuals, {"m": np.zeros(actuals.size)})


class TestSummarizeMatchesEvaluate:
    """``summarize`` and ``evaluate`` share one summariser per operator, to the last bit."""

    MEASURE = {"mean": "MAE", "median": "MdAE", "geometric-mean": "GMAE"}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_VALUE, min_size=1, max_size=6), min_size=1, max_size=5))
    def test_pooled_and_horizon_then_series(self, errors):
        errors = {f"s{j}": e for j, e in enumerate(errors)}
        fr = _error_frame(errors)
        absolute = {sid: np.abs(e) for sid, e in errors.items()}
        for op_h, name_h in self.MEASURE.items():
            result = evaluate(name_h, fr)
            assert summarize(absolute, "pooled", op_h) == result.value
            # evaluate's per-series values, summarised over series by evaluate again
            per_series = _error_frame({"all": list(result.per_series.values())})
            for op_s, name_s in self.MEASURE.items():
                assert (summarize(absolute, "horizon-then-series", op_h, op_s)
                        == evaluate(name_s, per_series).value), (op_h, op_s)


def _pearson(y, f):
    """Pearson's r in two passes: the means, then the deviation sums (``math.fsum``)."""
    my, mf = math.fsum(y) / len(y), math.fsum(f) / len(f)
    dy, df = [a - my for a in y], [b - mf for b in f]
    return (math.fsum(a * b for a, b in zip(dy, df))
            / math.sqrt(math.fsum(a * a for a in dy) * math.fsum(b * b for b in df)))


class TestCorrelation:
    """CORR per series is undefined exactly when the series has one row or
    constant actuals or forecasts; otherwise it is Pearson's r."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_series=st.integers(1, 5))
    def test_per_series_against_two_pass_reference(self, data, n_series):
        series = {}
        for j in range(n_series):
            n = data.draw(st.integers(1, 8))
            constant = _VALUE.map(lambda v: [v] * n)
            series[f"s{j}"] = tuple(data.draw(constant | st.lists(_VALUE, min_size=n, max_size=n))
                                    for _ in "yf")
        rows = [(sid, k, a, b) for sid, (y, f) in series.items() for k, (a, b) in enumerate(zip(y, f), 1)]
        sids, steps, y, f = zip(*rows)
        fr = EvaluationFrame(list(sids), [1] * len(rows), list(steps), np.array(y), {"m": np.array(f)})
        r = evaluate("CORR", fr)
        undefined = [sid for sid, (y, f) in series.items() if min(len(set(y)), len(set(f))) == 1]
        assert [sid for sid, v in r.per_series.items() if math.isnan(v)] == undefined
        assert ("zero-variance" in r.flags) == bool(undefined)
        for sid, (y, f) in series.items():
            if sid not in undefined:
                assert abs(r.per_series[sid] - _pearson(y, f)) <= 1e-12, sid
