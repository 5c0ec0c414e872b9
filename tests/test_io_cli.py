import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forevalkit.cli
from forevalkit import (
    CharacteristicProfile,
    Dataset,
    DgpSpec,
    LeakageError,
    SplitSpec,
    TimeSeries,
    ValidationError,
    benchmark_frame,
    diebold_mariano,
)
from forevalkit.cli import main
from forevalkit.io import (
    build_frame,
    read_forecast_csv,
    read_series_csv,
    write_folds_csv,
    write_series_csv,
)
from forevalkit.partition import Fold

SERIES_CSV = """series_id,timestamp,value
a,1,10
a,2,12
a,3,11
a,4,13
a,5,14
b,1,100
b,2,102
b,3,101
b,4,103
b,5,104
"""

FORECAST_CSV = """series_id,origin,step,model,forecast
a,3,1,m1,12.5
a,3,2,m1,12.0
b,3,1,m1,102.0
b,3,2,m1,103.0
a,3,1,m2,11.0
a,3,2,m2,14.0
b,3,1,m2,103.0
b,3,2,m2,104.5
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "series.csv").write_text(SERIES_CSV)
    (tmp_path / "forecasts.csv").write_text(FORECAST_CSV)
    return tmp_path


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        ds = Dataset((TimeSeries(id="x", values=np.array([1.5, 2.5])),))
        path = tmp_path / "s.csv"
        write_series_csv(path, ds)
        back = read_series_csv(path)
        assert np.array_equal(back["x"].values, ds["x"].values)

    def test_header_mandatory(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1,10\n")
        with pytest.raises(ValidationError, match="header"):
            read_series_csv(p)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("series_id,timestamp,value\na,1,\n")
        with pytest.raises(ValidationError, match="missing value"):
            read_series_csv(p)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("series_id,timestamp,value\na,2,20\na,1,10\n")
        ds = read_series_csv(p)
        assert ds["a"].values.tolist() == [10.0, 20.0]


def _csv_writer_folds(path, folds):
    """folds.csv as ``csv.writer`` writes it, one row per index."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold_id", "role", "index"])
        for fold_id, fold in enumerate(folds, start=1):
            for idx in fold.train_indices.tolist():
                writer.writerow([fold_id, "train", idx])
            for idx in fold.test_indices.tolist():
                writer.writerow([fold_id, "test", idx])


_INDICES = st.one_of(
    st.lists(st.integers(-3, 20_000), max_size=30),  # unsorted, repeated, sparse
    st.builds(lambda start, n: list(range(start, start + n)),
              st.integers(1, 12_000), st.integers(0, 300)),  # contiguous runs
)


class TestFoldsCsv:
    @settings(max_examples=150, deadline=None)
    @given(folds=st.lists(st.builds(Fold, _INDICES, _INDICES), max_size=12))
    def test_bytes_match_csv_writer(self, folds, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        write_folds_csv(base / "got.csv", folds)
        _csv_writer_folds(base / "want.csv", folds)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

    def test_crlf_and_empty_train(self, tmp_path):
        write_folds_csv(tmp_path / "f.csv", [Fold([], [3, 1]), Fold([10_000, 2], [])])
        assert (tmp_path / "f.csv").read_bytes() == (
            b"fold_id,role,index\r\n1,test,3\r\n1,test,1\r\n2,train,10000\r\n2,train,2\r\n")


class TestBuildFrame:
    def test_joins_actuals(self, workdir):
        ds = read_series_csv(workdir / "series.csv")
        frame = build_frame(ds, read_forecast_csv(workdir / "forecasts.csv"))
        assert frame.n_rows == 4 and set(frame.models) == {"m1", "m2"}
        # actual for (a, origin 3, step 1) is value at position 4
        idx = [i for i in range(4) if frame.series_ids[i] == "a" and frame.steps[i] == 1][0]
        assert frame.actuals[idx] == 13.0

    def test_misaligned_keys_row_level_report(self, workdir):
        rows = read_forecast_csv(workdir / "forecasts.csv")
        rows.append(("a", 5, 3, "m1", 1.0))  # target position 8 beyond series
        rows.append(("a", 5, 3, "m2", 1.0))
        ds = read_series_csv(workdir / "series.csv")
        with pytest.raises(ValidationError, match="misaligned") as err:
            build_frame(ds, rows)
        assert "target position 8" in str(err.value)

    def test_missing_model_for_key(self, workdir):
        ds = read_series_csv(workdir / "series.csv")
        rows = read_forecast_csv(workdir / "forecasts.csv")
        rows.append(("a", 4, 1, "m1", 1.0))  # m2 missing for this key
        with pytest.raises(ValidationError, match="missing forecasts"):
            build_frame(ds, rows)


def suite_json(tmp_path, **extra):
    suite = {
        "measures": ["MAE", "RMSE", "sMAPE",
                     {"name": "msMAPE", "constants": {"epsilon": 0.25}},
                     "MASE", {"name": "MRAE"},
                     {"name": "WAPE", "series_summary": "median"}],
        "benchmark": "naive",
        **extra,
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    return p


class TestCliEvaluate:
    def test_end_to_end(self, workdir):
        suite = suite_json(workdir)
        out = workdir / "out"
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["models"]) == {"m1", "m2"}
        assert len(report["results"]) == 14  # 7 measures x 2 models
        assert (out / "matrix.csv").exists()
        # the aggregation-order override is honoured: the WAPE entry is the
        # median of its per-series values
        wape = [r for r in report["results"] if r["measure"] == "WAPE" and r["model"] == "m1"][0]
        values = sorted(wape["per_series"].values())
        assert wape["value"] == pytest.approx((values[0] + values[1]) / 2)
        manifest = json.loads((out / "manifest.json").read_text())
        # constants override is echoed in the manifest config
        assert manifest["config"]["suite"]["measures"][3]["constants"]["epsilon"] == 0.25
        assert len(manifest["inputs"]) == 3

    def test_perfect_forecasts_all_zero(self, tmp_path):
        (tmp_path / "series.csv").write_text(SERIES_CSV)
        rows = ["series_id,origin,step,model,forecast",
                "a,3,1,m,13", "a,3,2,m,14", "b,3,1,m,103", "b,3,2,m,104"]
        (tmp_path / "fc.csv").write_text("\n".join(rows) + "\n")
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"measures": ["MAE", "RMSE", "WAPE", "ND"]}))
        out = tmp_path / "out"
        assert main(["evaluate", str(tmp_path / "series.csv"), str(tmp_path / "fc.csv"),
                     str(suite), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(entry["value"] == 0.0 for entry in report["results"])

    def test_missing_model_column_exit_2(self, workdir):
        (workdir / "broken.csv").write_text("series_id,origin,step,forecast\na,3,1,1.0\n")
        code = main(["evaluate", str(workdir / "series.csv"), str(workdir / "broken.csv"),
                     str(suite_json(workdir)), "--out", str(workdir / "o")])
        assert code == 2

    def test_error_policy_exit_2_on_undefined(self, tmp_path):
        # key (a, 1, 1) targets position 2, whose actual is 0: the MAPE term
        # is undefined and the error policy makes the run fail as config-level
        (tmp_path / "series.csv").write_text(
            "series_id,timestamp,value\na,1,1\na,2,0\na,3,2\n")
        (tmp_path / "fc.csv").write_text(
            "series_id,origin,step,model,forecast\na,1,1,m,1\na,2,1,m,2\n")
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"measures": ["MAPE"]}))
        code = main(["evaluate", str(tmp_path / "series.csv"), str(tmp_path / "fc.csv"),
                     str(suite), "--policy", "error", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_measure_exit_2(self, workdir):
        suite = workdir / "bad_suite.json"
        suite.write_text(json.dumps({"measures": ["NotAMeasure"]}))
        code = main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite), "--out", str(workdir / "o")])
        assert code == 2

    def test_non_finite_forecast_exit_3(self, workdir, capsys):
        (workdir / "forecasts.csv").write_text(FORECAST_CSV.replace("a,3,2,m1,12.0", "a,3,2,m1,nan"))
        code = main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite_json(workdir)), "--out", str(workdir / "o")])
        assert code == 3
        assert "model 'm1': forecast at key ('a', 3, 2)" in capsys.readouterr().err

    def test_misaligned_keys_exit_3(self, workdir):
        extra = FORECAST_CSV + "a,5,3,m1,1.0\na,5,3,m2,1.0\n"
        (workdir / "forecasts.csv").write_text(extra)
        code = main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite_json(workdir)), "--out", str(workdir / "o")])
        assert code == 3


class TestCliBacktest:
    def test_rolling_origin_folds(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 3,
                                     "horizon": 1, "stride": 1}))
        out = workdir / "bt"
        assert main(["backtest", str(workdir / "series.csv"), str(split),
                     "--benchmark", "naive", "--benchmark", "mean",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 4  # 2 folds per series x 2 series
        folds_csv = (out / "folds.csv").read_text().splitlines()
        assert folds_csv[0] == "fold_id,role,index"

    def test_report_folds_join_folds_csv(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 3,
                                     "horizon": 1, "stride": 1}))
        out = workdir / "bt"
        assert main(["backtest", str(workdir / "series.csv"), str(split), "--out", str(out)]) == 0
        rows = {}
        for fold_id, role, index in csv.reader((out / "folds.csv").read_text().splitlines()[1:]):
            rows.setdefault(int(fold_id), {"train": [], "test": []})[role].append(int(index))
        folds = json.loads((out / "report.json").read_text())["folds"]
        assert len({entry["series"] for entry in folds}) == 2
        assert [entry["fold"] for entry in folds] == sorted(rows) == list(range(1, len(folds) + 1))
        for entry in folds:
            o = entry["origin"]
            assert rows[entry["fold"]] == {"train": list(range(o - entry["train_size"] + 1, o + 1)),
                                           "test": list(range(o + 1, o + entry["test_size"] + 1))}

    def test_fixed_origin_single_fold(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "fixed-origin", "initial_train": 3, "horizon": 2}))
        out = workdir / "bt"
        assert main(["backtest", str(workdir / "series.csv"), str(split),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 2  # one per series

    def test_benchmark_scores_match_benchmark_frames(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 2, "horizon": 2}))
        out = workdir / "bt"
        kinds = ["naive", "seasonal-naive", "mean"]
        assert main(["backtest", str(workdir / "series.csv"), str(split), "--seasonal-period", "2",
                     *[a for k in kinds for a in ("--benchmark", k)], "--out", str(out)]) == 0
        ds = read_series_csv(workdir / "series.csv")
        folds = json.loads((out / "report.json").read_text())["folds"]
        assert len(folds) == 4
        for entry in folds:
            keys = [(entry["series"], entry["origin"], k) for k in range(1, entry["test_size"] + 1)]
            for kind in kinds:
                bf = benchmark_frame(ds, keys, kind=kind, period=2)
                e = bf.actuals - bf.forecasts[kind]
                assert entry["models"][kind] == {"MAE": float(np.abs(e).mean()),
                                                 "RMSE": float(np.sqrt((e * e).mean()))}

    def test_seasonal_naive_without_period_exit_2(self, workdir, capsys):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "fixed-origin", "initial_train": 3, "horizon": 2}))
        code = main(["backtest", str(workdir / "series.csv"), str(split),
                     "--benchmark", "seasonal-naive", "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == "error: seasonal-naive requires a positive seasonal period\n"

    def test_leaky_fold_raises_leakage_error_exit_3(self, workdir, monkeypatch, capsys):
        def splits(n, spec):
            folds = [Fold(np.arange(1, o + 1), np.arange(o + 1, o + 2), origin=o)
                     for o in range(1, n)]
            if n == 4:  # series b: its third fold trains on its test point
                folds[2] = Fold(np.arange(1, 5), np.arange(4, 5), origin=3)
            return folds

        monkeypatch.setattr(forevalkit.cli, "splits_for_series", splits)
        (workdir / "series.csv").write_text(SERIES_CSV.replace("b,5,104\n", "")
                                            + "".join(f"c,{t},{t}\n" for t in range(1, 41)))
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 1, "horizon": 1}))
        out = workdir / "bt"
        with pytest.raises(LeakageError):
            forevalkit.cli.cmd_backtest(forevalkit.cli.build_parser().parse_args(
                ["backtest", str(workdir / "series.csv"), str(split), "--out", str(out)]))
        code = main(["backtest", str(workdir / "series.csv"), str(split), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: leakage detected in series 'b', fold 7: train/test overlap at indices [4]; "
            "temporal order violated: max(train)=4 >= min(test)=4\n")
        assert not (out / "folds.csv").exists()

    def test_seasonal_naive_short_history_names_series_exit_2(self, workdir, capsys):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "fixed-origin", "initial_train": 3, "horizon": 2}))
        code = main(["backtest", str(workdir / "series.csv"), str(split), "--seasonal-period", "4",
                     "--benchmark", "seasonal-naive", "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seasonal naive needs at least one full period of history for series 'a' "
            "(origin 3 < m 4)\n")

    def test_kfold_on_raw_series_refused(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "kfold", "k": 5}))
        code = main(["backtest", str(workdir / "series.csv"), str(split),
                     "--out", str(workdir / "bt")])
        assert code == 2


class TestCliCompare:
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_two_models(self, workdir):
        suite = suite_json(workdir)
        out = workdir / "out"
        main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
              str(suite), "--out", str(out)])
        cfg = workdir / "test.json"
        cfg.write_text(json.dumps({"measure": "RMSE", "alpha": 0.05,
                                   "pairwise": "wilcoxon", "adjust": "holm"}))
        cmp_out = workdir / "cmp"
        assert main(["compare", str(out / "report.json"), "--config", str(cfg),
                     "--out", str(cmp_out)]) == 0
        tests = json.loads((cmp_out / "tests.json").read_text())
        assert "friedman" in tests and "critical_distance" in tests
        assert (cmp_out / "cd.svg").exists() and (cmp_out / "cd.txt").exists()
        assert "m1 vs m2" in tests["adjusted_p"]
        ranks = (cmp_out / "ranks.csv").read_text().splitlines()
        assert ranks[0] == "series_id,m1,m2"
        assert ranks[-1].startswith("mean_rank,")

    def test_single_model_rejected(self, workdir):
        out = workdir / "out"
        suite = workdir / "s1.json"
        suite.write_text(json.dumps({"measures": ["RMSE"]}))
        fc = workdir / "one.csv"
        fc.write_text("series_id,origin,step,model,forecast\n"
                      "a,3,1,m1,12.5\na,3,2,m1,12.0\nb,3,1,m1,102.0\nb,3,2,m1,103.0\n")
        main(["evaluate", str(workdir / "series.csv"), str(fc), str(suite), "--out", str(out)])
        assert main(["compare", str(out / "report.json"), "--out", str(workdir / "c")]) == 2


def _dm_reference(errors_by_model: dict, models: list, horizon: int) -> dict:
    """Pairwise DM on squared errors joined per pair through key dicts: the
    common keys of two models, sorted as ``(series_id, origin, step)`` tuples.
    Returns {"a vs b": (statistic, p_value)}, or the message of the first
    pair's ``ValidationError``."""
    losses = {m: {tuple(k): e for k, e in zip(entry["keys"], entry["errors"])}
              for m, entry in errors_by_model.items()}
    out = {}
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            keys = sorted(set(losses[a]) & set(losses[b]))
            if len(keys) < 4:
                return "pairwise DM needs at least 4 aligned errors"
            la = np.array([losses[a][k] for k in keys]) ** 2
            lb = np.array([losses[b][k] for k in keys]) ** 2
            try:
                res = diebold_mariano(la, lb, horizon=horizon, alpha=0.05)
            except ValidationError as exc:
                return str(exc)
            out[f"{a} vs {b}"] = (res.statistic, res.p_value)
    return out


_DM_KEYS = [[sid, origin, step] for sid in ("b", "a", "aa", "B", "10", "9")
            for origin in (-1, 3, 10) for step in (1, 2, 3)]


@st.composite
def _dm_reports(draw):
    """Reports for ``compare --pairwise dm``: 2-4 models with shuffled, partly
    overlapping keys, and one model's errors replaced by a second report."""
    models = [f"m{j}" for j in range(draw(st.integers(2, 4)))]
    error = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-3, 3),
                      st.sampled_from([0.5, -0.5, 2.0]))

    pool = draw(st.lists(st.sampled_from(_DM_KEYS), min_size=4, max_size=24, unique_by=tuple))

    def entry():
        # most of the shared pool plus a few keys of this model's own, shuffled
        dropped = draw(st.sets(st.integers(0, max(len(pool) - 1, 0)), max_size=3))
        extra = draw(st.lists(st.sampled_from(_DM_KEYS), max_size=4, unique_by=tuple))
        keys = [k for i, k in enumerate(pool) if i not in dropped] + [k for k in extra if k not in pool]
        keys = draw(st.permutations(keys))
        return {"keys": keys, "errors": draw(st.lists(error, min_size=len(keys), max_size=len(keys)))}

    results = [{"measure": "RMSE", "model": m, "per_series": {"s1": 1.0 + j, "s2": 2.0 - j, "s3": 0.5}}
               for j, m in enumerate(models)]
    first = {"results": results, "errors": {m: entry() for m in models}}
    replaced = draw(st.sampled_from(models))
    second = {"results": [], "errors": {replaced: entry()}}
    final = {**first["errors"], **second["errors"]}
    return models, first, second, final, draw(st.sampled_from([1, 2, 3]))


class TestCliCompareDm:
    @settings(max_examples=100, deadline=None)
    @given(case=_dm_reports())
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_matches_per_pair_dict_join(self, case, tmp_path_factory):
        models, first, second, final, horizon = case
        work = tmp_path_factory.mktemp("dm")
        reports = []
        for i, report in enumerate((first, second)):
            reports.append(work / f"report{i}.json")
            reports[-1].write_text(json.dumps(report))
        (work / "test.json").write_text(json.dumps({"pairwise": "dm", "horizon": horizon}))
        want = _dm_reference(final, models, horizon)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["compare", *map(str, reports), "--config", str(work / "test.json"),
                         "--out", str(work / "cmp")])
        if isinstance(want, str):
            assert (code, err.getvalue()) == (2, f"error: {want}\n")
            return
        assert code == 0, err.getvalue()
        pairs = json.loads((work / "cmp" / "tests.json").read_text())["pairwise"]
        assert list(pairs) == list(want)
        for name, (stat, p) in want.items():
            assert pairs[name]["test"] == "diebold-mariano"
            assert (pairs[name]["statistic"].hex(), pairs[name]["p_value"].hex()) == (stat.hex(), p.hex())

    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_evaluate_then_compare(self, workdir, capsys):
        out = workdir / "out"
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite_json(workdir)), "--out", str(out)]) == 0
        cfg = workdir / "test.json"
        cfg.write_text(json.dumps({"measure": "RMSE", "pairwise": "dm"}))
        assert main(["compare", str(out / "report.json"), "--config", str(cfg),
                     "--out", str(workdir / "cmp")]) == 0
        tests = json.loads((workdir / "cmp" / "tests.json").read_text())
        # errors in (a,3,1), (a,3,2), (b,3,1), (b,3,2) order: actuals 13, 14, 103, 104
        e1 = np.array([13 - 12.5, 14 - 12.0, 103 - 102.0, 104 - 103.0])
        e2 = np.array([13 - 11.0, 14 - 14.0, 103 - 103.0, 104 - 104.5])
        want = diebold_mariano(e1 ** 2, e2 ** 2)
        assert tests["pairwise"]["m1 vs m2"] == {"test": "diebold-mariano",
                                                 "statistic": want.statistic,
                                                 "p_value": want.p_value}
        assert tests["adjusted_p"]["m1 vs m2"] == want.p_value

        cfg.write_text(json.dumps({"measure": "RMSE", "pairwise": "dm", "horizon": 4}))
        capsys.readouterr()
        assert main(["compare", str(out / "report.json"), "--config", str(cfg),
                     "--out", str(workdir / "cmp")]) == 2
        assert capsys.readouterr().err == (
            "error: diebold_mariano: horizon 4 must be below the 4 aligned losses\n")


class TestCliAdvise:
    def test_intermittency_profile(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"intermittency": True}))
        out = tmp_path / "adv"
        assert main(["advise", str(profile), "--out", str(out)]) == 0
        rec = json.loads((out / "recommendation.json").read_text())
        assert "RMSE" in rec["recommended"] and "NRMSE" in rec["recommended"]
        assert "MAPE" in rec["contraindicated"]
        assert (out / "recommendation.txt").exists()

    def test_partitioning_advice_included(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"series_lengths": [60], "model_class": "pure-AR"}))
        out = tmp_path / "adv"
        assert main(["advise", str(profile), "--out", str(out)]) == 0
        rec = json.loads((out / "recommendation.json").read_text())
        assert rec["partitioning_advice"]["scheme"] == "kfold"
        assert any("Ljung-Box" in c for c in rec["partitioning_advice"]["checks"])

    def test_unknown_flag_exit_2(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"made_up_flag": True}))
        assert main(["advise", str(profile), "--out", str(tmp_path / "o")]) == 2


class TestCliSimulate:
    def test_same_seed_identical_hash(self, tmp_path):
        dgp = tmp_path / "dgp.json"
        dgp.write_text(DgpSpec(kind="random-walk", length=200, seed=11).to_json())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(dgp), str(out1)]) == 0
        assert main(["simulate", str(dgp), str(out2)]) == 0
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_row_count(self, tmp_path):
        dgp = tmp_path / "dgp.json"
        dgp.write_text(DgpSpec(kind="random-walk", length=50, seed=1).to_json())
        out = tmp_path / "s.csv"
        main(["simulate", str(dgp), str(out)])
        assert len(out.read_text().splitlines()) == 51  # header + 50 rows

    def test_invalid_spec_exit_2(self, tmp_path):
        dgp = tmp_path / "dgp.json"
        dgp.write_text(json.dumps({"kind": "martian", "length": 5, "seed": 0}))
        assert main(["simulate", str(dgp), str(tmp_path / "s.csv")]) == 2


class TestCliPitfalls:
    def test_single_scenario(self, tmp_path, capsys):
        assert main(["pitfalls", "corr-ignores-constant-bias",
                     "--out", str(tmp_path / "p")]) == 0
        payload = json.loads((tmp_path / "p" / "pitfalls.json").read_text())
        assert payload[0]["passed"] is True
        evidence = (tmp_path / "p" / "evidence.csv").read_text().splitlines()
        assert evidence[0] == "scenario,passed,key,value"
        assert any("corr_biased" in line for line in evidence)

    def test_list(self, capsys):
        assert main(["pitfalls", "--list"]) == 0
        out = capsys.readouterr().out
        assert "corr-ignores-constant-bias" in out

    def test_unknown_scenario_exit_2(self):
        assert main(["pitfalls", "no-such-scenario"]) == 2

    def test_env_var_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FOREVALKIT_SEED", "31415")
        assert main(["pitfalls", "corr-ignores-constant-bias",
                     "--out", str(tmp_path / "p")]) == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["seed"] == 31415

    def test_cross_process_determinism(self, tmp_path, subprocess_env):
        import subprocess
        import sys

        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            subprocess.run(
                [sys.executable, "-m", "forevalkit.cli", "pitfalls",
                 "corr-ignores-constant-bias", "--out", str(out)],
                check=True, capture_output=True, env=subprocess_env,
            )
            outputs.append((out / "pitfalls.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestCliInputErrors:
    """Unreadable inputs and malformed configs exit 2 with a one-line message."""

    @staticmethod
    def _fails_with_message(capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err and "Traceback" not in err

    def test_missing_series_file(self, workdir, capsys):
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "nope.csv"), str(workdir / "forecasts.csv"),
            str(suite_json(workdir)), "--out", str(workdir / "o")], "nope.csv")

    def test_missing_forecasts_file(self, workdir, capsys):
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "nope.csv"),
            str(suite_json(workdir)), "--out", str(workdir / "o")], "nope.csv")

    def test_missing_split_file(self, workdir, capsys):
        self._fails_with_message(capsys, [
            "backtest", str(workdir / "series.csv"), str(workdir / "nope.json"),
            "--out", str(workdir / "o")], "nope.json")

    def test_missing_dgp_file(self, tmp_path, capsys):
        self._fails_with_message(capsys, [
            "simulate", str(tmp_path / "nope.json"), str(tmp_path / "s.csv")], "nope.json")

    def test_malformed_split_json(self, workdir, capsys):
        (workdir / "split.json").write_text('{"scheme": "fixed-origin",')
        self._fails_with_message(capsys, [
            "backtest", str(workdir / "series.csv"), str(workdir / "split.json"),
            "--out", str(workdir / "o")], "split spec JSON does not parse")

    def test_malformed_dgp_json(self, tmp_path, capsys):
        (tmp_path / "dgp.json").write_text("{kind: random-walk}")
        self._fails_with_message(capsys, [
            "simulate", str(tmp_path / "dgp.json"), str(tmp_path / "s.csv")],
            "DGP spec JSON does not parse")

    def test_malformed_profile_json(self, tmp_path, capsys):
        (tmp_path / "profile.json").write_text('{"intermittency": tru}')
        self._fails_with_message(capsys, [
            "advise", str(tmp_path / "profile.json"), "--out", str(tmp_path / "o")],
            "profile.json")

    @pytest.mark.parametrize("role", ["suite", "config", "report", "profile"])
    def test_non_object_json_input(self, workdir, capsys, role):
        bad = workdir / f"{role}.json"
        bad.write_text("[]")
        out = ["--out", str(workdir / "o")]
        argv = {
            "suite": ["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                      str(bad)] + out,
            "config": ["compare", str(workdir / "nope.json"), "--config", str(bad)] + out,
            "report": ["compare", str(bad)] + out,
            "profile": ["advise", str(bad)] + out,
        }[role]
        self._fails_with_message(capsys, argv, f"{bad} JSON must be an object")

    @pytest.mark.parametrize("measures, fragment", [
        (5, "non-empty 'measures' list"),
        (["MAE", 1], "entry 1 is neither a name nor an object with 'name'"),
        (["MAE", ["RMSE"]], "entry ['RMSE'] is neither"),
        ([{"constants": {}}], "entry {'constants': {}} is neither"),
        ([{"name": 3}], "entry {'name': 3} is neither"),
    ])
    def test_bad_suite_measures(self, workdir, capsys, measures, fragment):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": measures}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], fragment)

    def test_malformed_suite_constants(self, workdir, capsys):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [{"name": "msMAPE", "constants": 5}]}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], "msMAPE: constants must map names to values, got 5")

    def test_report_entry_without_measure_or_model(self, workdir, capsys):
        report = workdir / "report.json"
        report.write_text(json.dumps({"results": [{"measure": "RMSE", "model": "m1"}, {}]}))
        self._fails_with_message(capsys, ["compare", str(report), "--out", str(workdir / "o")],
                                 f"{report}: results entry 1 needs a string 'measure' and 'model'")

    @staticmethod
    def _report(**changes) -> dict:
        """A valid two-model report with per-row errors, with ``changes`` applied:
        a top-level value, or ``("m2", field)`` for a field of m2's errors entry."""
        keys = [["a", 3, 1], ["a", 3, 2], ["b", 3, 1], ["b", 3, 2]]
        report = {
            "results": [{"measure": "RMSE", "model": m, "per_series": {"a": 1.0 + j, "b": 2.0 - j}}
                        for j, m in enumerate(("m1", "m2"))],
            "errors": {m: {"keys": keys, "errors": [0.5, -1.0 + j, 2.0, 0.25 * j]}
                       for j, m in enumerate(("m1", "m2"))},
        }
        for field, value in changes.items():
            if field.startswith("m2_"):
                report["errors"]["m2"][field[3:]] = value
            elif field == "per_series":
                report["results"][1]["per_series"] = value
            else:
                report[field] = value
        return report

    @pytest.mark.parametrize("pairwise", ["wilcoxon", "dm"])
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_valid_report_accepted(self, workdir, pairwise):
        report, cfg = workdir / "report.json", workdir / "test.json"
        report.write_text(json.dumps(self._report()))
        cfg.write_text(json.dumps({"pairwise": pairwise}))
        assert main(["compare", str(report), "--config", str(cfg), "--out", str(workdir / "o")]) == 0

    @pytest.mark.parametrize("changes, fragment", [
        ({"results": 5}, "'results' must be a list"),
        ({"per_series": [1.0, 2.0]},
         "results entry 1 (model 'm2'): 'per_series' must be an object of numbers or nulls"),
        ({"per_series": {"a": "1.0", "b": 2.0}}, "results entry 1 (model 'm2'): 'per_series'"),
        ({"per_series": {"a": True, "b": 2.0}}, "results entry 1 (model 'm2'): 'per_series'"),
        ({"errors": [1, 2]}, "'errors' must be an object"),
        ({"m2_keys": 5}, "errors of model 'm2' needs 'keys' and 'errors' lists of equal length"),
        ({"m2_errors": [0.5, 1.0, 2.0]}, "errors of model 'm2' needs 'keys' and 'errors' lists"),
        ({"m2_keys": [["a", 3, 1], ["a", 3, 2], ["b", 3, 1], ["b", 3, 2], ["b", 3, 3]]},
         "errors of model 'm2' needs 'keys' and 'errors' lists of equal length"),
        ({"m2_keys": [["a", 3, 1], ["a", True, 2], ["b", 3, 1], ["b", 3, 2]]},
         "errors of model 'm2': key 1 is ['a', True, 2], not [series_id, origin, step]"),
        ({"m2_keys": [["a", 3, 1], ["a", 3, 2], ["b", 3.0, 1], ["b", 3, 2]]},
         "errors of model 'm2': key 2 is ['b', 3.0, 1], not [series_id, origin, step]"),
        ({"m2_keys": [["a", 3, 1], ["a", 3, 2], [7, 3, 1], ["b", 3, 2]]}, "errors of model 'm2': key 2 is [7, 3, 1]"),
        ({"m2_keys": [["a", 3, 1], ["a", 3], ["b", 3, 1], ["b", 3, 2]]}, "errors of model 'm2': key 1 is ['a', 3]"),
        ({"m2_keys": ["a,3,1", ["a", 3, 2], ["b", 3, 1], ["b", 3, 2]]}, "errors of model 'm2': key 0 is 'a,3,1'"),
        ({"m2_keys": [["a", 3, 1], ["a", 3, 2], ["b", 3, 1], ["b", 3, 2 ** 63]]},
         f"errors of model 'm2': key 3 is ['b', 3, {2 ** 63}]"),
        ({"m2_errors": [0.5, "1.0", 2.0, 0.0]},
         "errors of model 'm2': error 1 is '1.0', not a finite number"),
        ({"m2_errors": [0.5, 1.0, None, 0.0]}, "errors of model 'm2': error 2 is None, not a finite number"),
        ({"m2_errors": [0.5, 1.0, 2.0, float("nan")]}, "errors of model 'm2': error 3 is nan, not a finite number"),
        ({"m2_errors": [False, 1.0, 2.0, 0.0]}, "errors of model 'm2': error 0 is False, not a finite number"),
        ({"m2_errors": [0.5, 10 ** 400, 2.0, 0.0]}, "errors of model 'm2': error 1 is 1000"),
        ({"m2_keys": [["a", 3, 1], ["b", 3, 2], ["b", 3, 1], ["b", 3, 2]]},
         "errors of model 'm2': key 3 ['b', 3, 2] repeats an earlier key"),
    ])
    def test_malformed_compare_report(self, workdir, capsys, changes, fragment):
        report = workdir / "report.json"
        report.write_text(json.dumps(self._report(**changes)))
        self._fails_with_message(capsys, ["compare", str(report), "--out", str(workdir / "o")],
                                 f"{report}: {fragment}")

    @pytest.mark.parametrize("config, fragment", [
        ({"pairwise": "DM"}, "'pairwise' must be 'wilcoxon' or 'dm', got 'DM'"),
        ({"pairwise": "signed-rank"}, "'pairwise' must be 'wilcoxon' or 'dm', got 'signed-rank'"),
        ({"alpha": "0.05x"}, "'alpha' must be a number, got '0.05x'"),
        ({"pairwise": "dm", "horizon": "two"}, "'horizon' must be an integer, got 'two'"),
    ])
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_malformed_compare_config(self, workdir, capsys, config, fragment):
        out = workdir / "out"
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite_json(workdir)), "--out", str(out)]) == 0
        cfg = workdir / "test.json"
        cfg.write_text(json.dumps({"measure": "RMSE", **config}))
        self._fails_with_message(capsys, ["compare", str(out / "report.json"), "--config", str(cfg),
                                          "--out", str(workdir / "cmp")], fragment)

    @pytest.mark.parametrize("cls, what", [(SplitSpec, "split spec"), (DgpSpec, "DGP spec"),
                                           (CharacteristicProfile, "profile")])
    def test_from_json_rejects_malformed_json(self, cls, what):
        with pytest.raises(ValidationError, match=f"{what} JSON does not parse"):
            cls.from_json('{"a": ')
        with pytest.raises(ValidationError, match=f"{what} JSON must be an object"):
            cls.from_json("[1, 2]")

    def test_non_integer_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("FOREVALKIT_SEED", "abc")
        self._fails_with_message(capsys, ["pitfalls", "corr-ignores-constant-bias"],
                                 "FOREVALKIT_SEED must be an integer, got 'abc'")
