"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.stats import norm

from forevalkit import (
    DgpSpec,
    EvaluationFrame,
    SplitSpec,
    TimeSeries,
    derive_seed,
    diebold_mariano,
    embed,
    evaluate,
    friedman,
    generate,
    kfold_splits,
    leakage_check,
    ljung_box,
    load_rule_table,
    nemenyi_cd,
    rank_models,
    recommend_partitioning,
    run_scenario,
    splits_for_series,
    wilcoxon_rank_sum,
)
from forevalkit.cli import main as cli_main
from forevalkit.olsar import fit_ar, one_step_predictions
from forevalkit.partition import Fold
from forevalkit.stats import TestResult as StatTestResult
from forevalkit.stats import studentized_range_quantile

from conftest import random_frame
from oracle import ORACLE_MEASURES, oracle_evaluate


def _report(num: int, label: str) -> None:
    print(f"[PASS] criterion {num}: {label}")


def single_series_frame(actuals, forecasts, sid="s", origin=100):
    h = len(actuals)
    return EvaluationFrame([sid] * h, [origin] * h, range(1, h + 1), actuals,
                           {"m": np.asarray(forecasts, dtype=float)})


def test_criterion_01_smape_boundary_and_bounds():
    start = time.perf_counter()
    assert evaluate("sMAPE", single_series_frame([0.0], [5.0])).value == 200.0
    assert evaluate("sMAPE", single_series_frame([0.0], [0.001])).value == 200.0

    rng = np.random.default_rng(101)
    n = 100_000
    y = rng.normal(0, 50, n)
    f = rng.normal(0, 50, n)
    # per-pair measure values, exactly as the engine defines a term
    terms = np.minimum(200.0 * np.abs(y - f) / (np.abs(y) + np.abs(f)), 200.0)
    assert terms.min() >= 0.0 and terms.max() <= 200.0
    # the engine agrees with that per-pair definition, checked on a subsample
    for i in rng.integers(0, n, size=500):
        got = evaluate("sMAPE", single_series_frame([y[i]], [f[i]])).value
        assert got == terms[i] and 0.0 <= got <= 200.0
    # and its aggregate over the full fuzz set stays inside the bound
    r = evaluate("sMAPE", single_series_frame(y, f), policy="skip")
    assert 0.0 <= r.value <= 200.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(1, f"sMAPE boundary 200 exact; bounded in [0, 200] over 1e5 pairs ({elapsed:.2f}s)")


def test_criterion_02_maape_boundary():
    value = evaluate("MAAPE", single_series_frame([0.0], [7.0])).value
    assert abs(value - math.pi / 2) <= 1e-12
    _report(2, "MAAPE term at zero actual equals pi/2 to 1e-12")


def test_criterion_03_msmape_winsorisation():
    # every |y| + |yhat| <= 0.5 term lands on exactly 0.6 with the default
    # epsilon of 0.1, so equal absolute errors give identical terms
    a = evaluate("msMAPE", single_series_frame([0.2], [0.1])).value
    b = evaluate("msMAPE", single_series_frame([0.15], [0.05])).value
    c = evaluate("msMAPE", single_series_frame([0.0], [0.5])).value
    assert a == b == 200.0 * 0.1 / 0.6
    assert c == 200.0 * 0.5 / 0.6
    _report(3, "msMAPE winsorised denominator is exactly 0.6 with defaults")


def test_criterion_04_mase_self_consistency():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(10, 60))
        values = rng.normal(0, rng.uniform(0.5, 20), n) + rng.uniform(-50, 50)
        if np.abs(np.diff(values)).sum() == 0:
            continue
        frame = single_series_frame(values[1:], values[:-1], origin=1)
        mase = evaluate("MASE", frame, train={"s": values}).value
        assert abs(mase - 1.0) <= 1e-12
        checked += 1
    assert checked >= 990
    _report(4, f"in-sample one-step naive has MASE 1 +- 1e-12 on {checked} random series")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    n_frames = 1000
    worst = 0.0
    for _ in range(n_frames):
        frame, rows, bench_map, bench_frame, train, weights = random_frame(rng)
        for name in ORACLE_MEASURES:
            kw = {}
            if name in ("MRAE", "MdRAE", "RMRSE", "GMRAE", "RGRMSE",
                        "RelMAE", "RelMSE", "RelRMSE", "AvgRelMAE"):
                kw["benchmark"] = bench_frame
            if name in ("sME", "sMSE", "sMAE", "MASE", "MdASE", "RMSSE"):
                kw["train"] = train
            if name in ("NWRMSLE", "WMAE"):
                kw["weights"] = weights
            got = evaluate(name, frame, **kw).value
            want = oracle_evaluate(name, rows, benchmark=bench_map, train=train,
                                   weights=weights)
            err = abs(got - want) - (1e-12 + 1e-12 * abs(want))
            worst = max(worst, err)
            assert err <= 0, f"{name}: engine {got!r} vs oracle {want!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(5, f"{len(ORACLE_MEASURES)} measures match the direct-from-equation oracle "
               f"to 1e-12 on {n_frames} frames ({elapsed:.1f}s)")


EQUIVARIANT = ("MAE", "RMSE", "ME")
INVARIANT = ("MAPE", "sMAPE", "MASE", "WAPE", "MRAE", "RelMAE", "CORR")


def test_criterion_06_scale_equivariance_suite():
    rng = np.random.default_rng(606)
    cases = 0
    while cases < 10_000:
        frame, rows, bench_map, bench_frame, train, _w = random_frame(rng)
        alpha = float(rng.uniform(0.1, 20.0))
        scaled_frame = EvaluationFrame(
            frame.series_ids, frame.origins, frame.steps, frame.actuals * alpha,
            {"model": frame.forecasts["model"] * alpha},
        )
        for name in EQUIVARIANT:
            base = evaluate(name, frame).value
            scaled = evaluate(name, scaled_frame).value
            assert scaled == pytest.approx(alpha * base, rel=1e-9, abs=1e-9), name
            cases += 1
        # scale-free measures tolerate a different factor per series
        per_series_alpha = {sid: float(rng.uniform(0.1, 20.0))
                            for sid in frame.unique_series()}
        row_alpha = np.array([per_series_alpha[sid]
                              for sid in frame.series_ids.tolist()])
        frame_ps = EvaluationFrame(
            frame.series_ids, frame.origins, frame.steps, frame.actuals * row_alpha,
            {"model": frame.forecasts["model"] * row_alpha},
        )
        bench_ps = EvaluationFrame(
            frame.series_ids, frame.origins, frame.steps, frame.actuals * row_alpha,
            {"bench": bench_frame.forecasts["bench"] * row_alpha},
        )
        train_ps = {sid: np.asarray(v) * per_series_alpha[sid]
                    for sid, v in train.items()}
        for name in INVARIANT:
            kw, skw = {}, {}
            if name == "MRAE" or name == "RelMAE":
                kw["benchmark"], skw["benchmark"] = bench_frame, bench_ps
            if name == "MASE":
                kw["train"], skw["train"] = train, train_ps
            base = evaluate(name, frame, **kw).value
            scaled = evaluate(name, frame_ps, **skw).value
            assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9), name
            cases += 1
        # ranks across models are unchanged by a common rescaling
        y = np.asarray([r[3] for r in rows])
        f1 = np.asarray([r[4] for r in rows])
        f2 = np.maximum(y + rng.normal(0, 1, y.size), 0.01)
        mae = {"m1": [float(np.abs(y - f1).mean())], "m2": [float(np.abs(y - f2).mean())]}
        mae_scaled = {m: [alpha * v[0]] for m, v in mae.items()}
        assert np.array_equal(rank_models(mae).ranks, rank_models(mae_scaled).ranks)
        cases += 1
    _report(6, f"scale equivariance/invariance holds over {cases} fuzz cases "
               "(msMAPE exempt by design)")


def test_criterion_07_embedding_count():
    for n in range(2, 201):
        values = np.arange(float(n))
        series = TimeSeries(id="s", values=values)
        for p in range(1, n):
            m = embed(series, p)
            assert m.n_rows == n - p
    _report(7, "embedding yields n - p rows for all 1 <= p < n <= 200")


def test_criterion_08_leakage_guard():
    rng = np.random.default_rng(808)
    checked = 0
    caught = 0
    mutated = 0
    while checked < 10_000:
        n = int(rng.integers(20, 400))
        t0 = int(rng.integers(5, n - 5))
        h = int(rng.integers(1, min(12, n - t0) + 1))
        stride = int(rng.integers(1, 6))
        window = "rolling" if rng.random() < 0.3 else "expanding"
        wl = int(rng.integers(1, t0 + 1)) if window == "rolling" else None
        spec = SplitSpec(scheme="rolling-origin", initial_train=t0, horizon=h,
                         stride=stride, window=window, window_length=wl)
        for fold in splits_for_series(n, spec):
            assert int(fold.train_indices.max()) < int(fold.test_indices.min())
            assert leakage_check(fold, "rolling-origin").passed
            checked += 1
            if rng.random() < 0.05:
                # mutate: pull a test index into train
                bad = Fold(
                    np.concatenate([fold.train_indices, fold.test_indices[:1]]),
                    fold.test_indices, origin=fold.origin)
                report = leakage_check(bad, "rolling-origin")
                assert not report.passed
                caught += 1
                mutated += 1
                # mutate: extend train past the test start without overlap
                bad2 = Fold(
                    np.concatenate([fold.train_indices,
                                    [int(fold.test_indices.max()) + 1]]),
                    fold.test_indices, origin=fold.origin)
                report2 = leakage_check(bad2, "rolling-origin")
                assert not report2.passed
                caught += 1
                mutated += 1
    assert caught == mutated and caught > 0
    _report(8, f"max(train) < min(test) on {checked} temporal folds; "
               f"{caught} constructed violations all caught")


def _cv_rmse(values, p, k, seed):
    m = embed(TimeSeries(id="x", values=values), p)
    X = np.column_stack([np.ones(m.n_rows), m.predictors[:, ::-1]])
    y = m.targets
    sq = []
    for fold in kfold_splits(m, k, seed):
        tr = fold.train_indices - 1
        te = fold.test_indices - 1
        beta, *_ = np.linalg.lstsq(X[tr], y[tr], rcond=None)
        sq.extend(((y[te] - X[te] @ beta) ** 2).tolist())
    return float(np.sqrt(np.mean(sq)))


def _oos_rmse_and_resid(train, continuation, p):
    fit = fit_ar(train, p)
    full = np.concatenate([train, continuation])
    preds = one_step_predictions(fit, full)
    resid = continuation - preds[len(train) - p:]
    return float(np.sqrt((resid ** 2).mean())), resid


def test_criterion_09_kfold_validity_at_desk_scale():
    start = time.perf_counter()
    reps, n_train, n_oos = 500, 200, 800
    correct_phi, underfit_phi = (0.5, 0.3), (0.0, 0.8)

    cv_ok, oos_ok = [], []
    for i in range(reps):
        seed = derive_seed(909, i)
        s = generate(DgpSpec(kind="ar", length=n_train + n_oos, seed=seed,
                             ar_coefficients=correct_phi))
        train, cont = s.values[:n_train], s.values[n_train:]
        cv_ok.append(_cv_rmse(train, 2, 5, seed))
        oos, _ = _oos_rmse_and_resid(train, cont, 2)
        oos_ok.append(oos)
    rel = abs(np.mean(cv_ok) - np.mean(oos_ok)) / np.mean(oos_ok)
    assert rel < 0.05, f"correctly specified model: relative gap {rel:.4f}"

    cv_uf, oos_uf, lb_rejects = [], [], 0
    for i in range(reps):
        seed = derive_seed(910, i)
        s = generate(DgpSpec(kind="ar", length=n_train + n_oos, seed=seed,
                             ar_coefficients=underfit_phi))
        train, cont = s.values[:n_train], s.values[n_train:]
        cv_uf.append(_cv_rmse(train, 1, 5, seed))
        oos, resid = _oos_rmse_and_resid(train, cont, 1)
        oos_uf.append(oos)
        lb_rejects += ljung_box(resid, lags=10, fitted_params=1).reject
    assert np.mean(cv_uf) < np.mean(oos_uf), "underfit model: CV should underestimate"
    power = lb_rejects / reps
    assert power > 0.8, f"residual-autocorrelation power {power:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(9, f"k-fold CV within {100 * rel:.2f}% of holdout error when correctly "
               f"specified; underestimates under misspecification "
               f"(power {power:.2f}) ({elapsed:.1f}s)")


def test_criterion_10_naive_optimality():
    start = time.perf_counter()
    result = run_scenario("naive-beats-ar-on-random-walk")
    assert result.passed, result.evidence
    assert result.evidence["replications"] == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, f"mean MSE naive {result.evidence['mean_mse_naive']:.3f} <= "
                f"level-trained AR {result.evidence['mean_mse_ar']:.3f} "
                f"over 200 random walks ({elapsed:.1f}s)")


def test_criterion_11_test_calibration():
    start = time.perf_counter()
    reps = 5000
    alpha = 0.05
    rng = np.random.default_rng(1111)

    lb = sum(ljung_box(rng.normal(0, 1, 500), lags=10).reject for _ in range(reps)) / reps
    dm = sum(
        diebold_mariano(rng.normal(0, 1, 200) ** 2, rng.normal(0, 1, 200) ** 2).reject
        for _ in range(reps)
    ) / reps
    wx = sum(
        wilcoxon_rank_sum(rng.normal(0, 1, 30), rng.normal(0, 1, 30)).reject
        for _ in range(reps)
    ) / reps
    fr = 0
    for _ in range(reps):
        table = rank_models({m: rng.normal(0, 1, 40) for m in "ABCD"})
        fr += friedman(table).reject
    fr /= reps

    sizes = {"ljung-box": lb, "diebold-mariano": dm, "wilcoxon": wx, "friedman": fr}
    for name, size in sizes.items():
        assert 0.03 <= size <= 0.07, f"{name} size {size:.4f} outside [0.03, 0.07]"
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min"
    _report(11, "empirical sizes at alpha=0.05 over 5000 null replications: "
                + ", ".join(f"{k}={v:.3f}" for k, v in sizes.items())
                + f" ({elapsed:.1f}s)")


def _range_quantile_by_integration(p: float, k: int) -> float:
    """Independent oracle: quantile of the range of k iid standard normals."""

    def cdf(q):
        f = lambda z: k * norm.pdf(z) * (norm.cdf(z + q) - norm.cdf(z)) ** (k - 1)
        return integrate.quad(f, -12, 12, limit=200)[0]

    return optimize.brentq(lambda q: cdf(q) - p, 0.1, 10.0, xtol=1e-12)


# published three-decimal upper quantiles of the infinite-df studentized range
PUBLISHED_Q = {
    (0.05, 3): 3.314, (0.05, 5): 3.858, (0.05, 10): 4.474,
    (0.10, 3): 2.902, (0.10, 5): 3.478, (0.10, 10): 4.129,
}


def test_criterion_12_nemenyi_scaling_and_table():
    rng = np.random.default_rng(1212)
    for k, models in ((3, "ABC"), (5, "ABCDE")):
        t_n = rank_models({m: rng.uniform(0, 1, 12) for m in models})
        t_4n = rank_models({m: rng.uniform(0, 1, 48) for m in models})
        cd_n = nemenyi_cd(t_n).critical_distance
        cd_4n = nemenyi_cd(t_4n).critical_distance
        assert cd_4n == cd_n / 2  # exact, not approximate

    for (alpha, k), published in PUBLISHED_Q.items():
        shipped = studentized_range_quantile(alpha, k)
        oracle = _range_quantile_by_integration(1 - alpha, k)
        assert abs(shipped - oracle) < 1e-6, (alpha, k)
        assert abs(shipped - published) < 5e-4, (alpha, k)
        for n in (10, 37):
            t = rank_models({f"m{i}": rng.uniform(0, 1, n) for i in range(k)})
            cd = nemenyi_cd(t, alpha=alpha).critical_distance
            expected = oracle / math.sqrt(2) * math.sqrt(k * (k + 1) / (6 * n))
            assert abs(cd - expected) < 1e-6
    _report(12, "CD(4N) = CD(N)/2 exactly; CD matches the independent quantile "
                "oracle to 1e-6 for k in {3,5,10}, alpha in {0.05,0.10}")


# golden transcription of the 20-row selection checklist (ok/caution/avoid)
GOLDEN_VERDICTS = {
    "RMSE":   "ok ok ok ok ok ok ok ok ok avoid",
    "MAE":    "ok ok ok ok ok ok ok ok avoid ok",
    "MAPE":   "ok avoid ok caution caution ok ok ok avoid avoid",
    "RMSPE":  "ok avoid ok caution caution ok ok ok avoid avoid",
    "sMAPE":  "ok ok ok ok ok ok ok ok avoid ok",
    "msMAPE": "ok ok ok ok ok ok ok ok ok ok",
    "WAPE":   "ok ok avoid avoid ok avoid ok ok avoid avoid",
    "WRMSPE": "ok ok avoid avoid ok avoid ok ok caution avoid",
    "sMAE":   "ok ok avoid avoid ok avoid avoid avoid avoid avoid",
    "sMSE":   "ok ok avoid avoid ok avoid avoid avoid caution avoid",
    "ND":     "ok ok ok ok ok ok ok ok avoid ok",
    "NRMSE":  "ok ok ok ok ok ok ok ok ok avoid",
    "MRAE":   "caution caution avoid avoid ok ok caution ok avoid caution",
    "MdRAE":  "caution caution avoid avoid ok ok caution ok avoid caution",
    "GMRAE":  "caution caution avoid avoid ok ok caution ok avoid caution",
    "RMRSE":  "caution caution avoid avoid ok ok caution ok caution avoid",
    "RelativeMeasures": "caution caution avoid avoid ok ok caution ok caution caution",
    "MASE":   "caution caution ok ok ok avoid caution avoid avoid ok",
    "RMSSE":  "caution caution ok ok ok avoid caution avoid caution avoid",
    "MeasuresWithTransformations": "ok ok caution ok caution ok ok ok ok ok",
}


def test_criterion_13_advisor_fidelity():
    table = load_rule_table()
    assert set(table.row_names()) == set(GOLDEN_VERDICTS)
    for row, expected in GOLDEN_VERDICTS.items():
        got = [table.verdicts[row][c] for c in table.characteristics]
        assert got == expected.split(), f"row {row}"

    # the three partitioning advisories
    long_series = recommend_partitioning(5000, model_class="unknown")
    assert long_series.scheme == "rolling-origin"
    passing = StatTestResult("ljung-box", 4.0, 0.4, 0.05, reject=False)
    assert recommend_partitioning(60, "pure-AR", passing).scheme == "kfold"
    failing = StatTestResult("ljung-box", 40.0, 0.001, 0.05, reject=True)
    assert recommend_partitioning(60, "pure-AR", failing).scheme == "improve-model-first"
    _report(13, "all 20 checklist rows match the golden transcription; "
                "the three partitioning advisories reproduce exactly")


def test_criterion_14_pitfall_suite(capsys):
    start = time.perf_counter()
    code = cli_main(["pitfalls", "--all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("[PASS]") == 13 and "[FAIL]" not in out
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(14, f"all 13 pitfall scenarios hold deterministically ({elapsed:.1f}s)")
