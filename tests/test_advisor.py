import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forevalkit import (
    CharacteristicProfile,
    ValidationError,
    intermittency_hint,
    load_rule_table,
    measure_names,
    recommend_measures,
    recommend_partitioning,
)
from forevalkit import TestResult as StatTestResult


@pytest.fixture(scope="module")
def table():
    return load_rule_table()


class TestRuleTable:
    def test_loads_and_validates(self, table):
        assert table.version == 1
        assert len(table.row_names()) == 20
        assert len(table.characteristics) == 10

    def test_rmse_row(self, table):
        row = table.verdicts["RMSE"]
        assert row["outliers"] == "avoid"
        assert all(v == "ok" for c, v in row.items() if c != "outliers")

    def test_mae_row(self, table):
        row = table.verdicts["MAE"]
        assert row["intermittency"] == "avoid" and row["outliers"] == "ok"
        assert all(v == "ok" for c, v in row.items()
                   if c not in ("intermittency", "outliers"))

    def test_msmape_row_all_ok(self, table):
        assert all(v == "ok" for v in table.verdicts["msMAPE"].values())

    def test_group_rows_expand(self, table):
        expanded = table.expanded()
        for member in ("RelMAE", "RelMSE", "RelRMSE", "RSE", "AvgRelMAE"):
            assert expanded[member] == table.verdicts["RelativeMeasures"]
        for member in ("RMSLE", "NWRMSLE"):
            assert expanded[member] == table.verdicts["MeasuresWithTransformations"]

    def test_every_member_known_to_registry(self, table):
        known = set(measure_names())
        for members in table.members.values():
            assert set(members) <= known

    def test_unknown_measure_rejected(self, tmp_path):
        bad = {
            "version": 1,
            "characteristics": ["seasonality"],
            "rows": [{"measure": "NOPE", "verdicts": ["ok"]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError, match="unknown measure"):
            load_rule_table(path)

    def test_missing_column_rejected(self, tmp_path):
        bad = {
            "version": 1,
            "characteristics": ["seasonality", "trend"],
            "rows": [{"measure": "RMSE", "verdicts": ["ok"]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError, match="verdicts"):
            load_rule_table(path)

    @pytest.mark.parametrize("changes, message", [
        ({"version": "x"}, "rule table version must be an integer, got 'x'"),
        ({"rows": [["RMSE", ["ok"]]]}, "rule table rows must be a list of objects, got [['RMSE', ['ok']]]"),
        ({"characteristics": "ab"}, "rule table characteristics must be a list of strings, got 'ab'"),
        ({"rows": [{"measure": "RMSE", "verdicts": ["ok"], "members": "MAE"}]},
         "rule table row 0 members must be a list of strings, got 'MAE'"),
        ({"rows": [{"measure": "RMSE", "verdict": ["ok"]}]}, "rule table row 0 has unknown key 'verdict'"),
        ({"colums": []}, "rule table has unknown key 'colums'"),
        ({"rows": None}, "rule table rows must be a list of objects, got None"),
        ({"rows": [{"measure": "RMSE", "verdicts": ["fine"]}]}, "row 'RMSE': unknown verdict 'fine'"),
        ({"rows": [{"measure": "RMSE"}]},
         "rule table row 0 is missing key 'verdicts'; required keys are ['measure', 'verdicts']"),
    ])
    def test_malformed_table_names_the_field(self, tmp_path, changes, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "characteristics": ["seasonality"],
                                    "rows": [{"measure": "RMSE", "verdicts": ["ok"]}], **changes}))
        with pytest.raises(ValidationError) as info:
            load_rule_table(path)
        assert str(info.value).startswith(message)

    def test_table_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="^rule table JSON must be an object$"):
            load_rule_table(path)


class TestRecommendMeasures:
    def test_intermittency_profile(self, table):
        rec = recommend_measures(CharacteristicProfile(intermittency=True), table)
        assert "RMSE" in rec.recommended and "NRMSE" in rec.recommended
        for bad in ("MAE", "MAPE", "sMAPE", "ND"):
            assert bad in rec.contraindicated

    def test_seasonality_profile(self, table):
        rec = recommend_measures(CharacteristicProfile(seasonality=True), table)
        assert "MAPE" in rec.contraindicated and "RMSPE" in rec.contraindicated
        assert "WAPE" in rec.recommended and "sMAPE" in rec.recommended
        assert "MASE" in rec.cautioned

    def test_stationary_count_profile(self, table):
        rec = recommend_measures(CharacteristicProfile(stationary_count_data=True), table)
        assert not rec.contraindicated  # everything cautioned-or-better
        assert "RMSE" in rec.recommended and "MAE" in rec.recommended

    def test_empty_profile_everything_recommended(self, table):
        rec = recommend_measures(CharacteristicProfile(), table)
        assert "RMSE" in rec.recommended and "MAE" in rec.recommended
        assert not rec.cautioned and not rec.contraindicated

    def test_lists_disjoint_and_complete(self, table):
        rec = recommend_measures(
            CharacteristicProfile(seasonality=True, trend="linear", outliers=True), table)
        r, c, x = set(rec.recommended), set(rec.cautioned), set(rec.contraindicated)
        assert not (r & c) and not (r & x) and not (c & x)
        assert r | c | x == set(table.expanded())

    def test_every_reason_names_a_characteristic(self, table):
        rec = recommend_measures(
            CharacteristicProfile(intermittency=True, unit_roots=True), table)
        for reason in list(rec.cautioned.values()) + list(rec.contraindicated.values()):
            assert "->" in reason and ":" in reason

    def test_monotonicity_adding_flags_never_promotes(self, table):
        base = CharacteristicProfile(seasonality=True)
        more = CharacteristicProfile(seasonality=True, intermittency=True, outliers=True,
                                     unit_roots=True)
        rank = {"recommended": 0, "cautioned": 1, "contraindicated": 2}

        def level(rec, m):
            if m in rec.recommended:
                return 0
            return 1 if m in rec.cautioned else 2

        rec1 = recommend_measures(base, table)
        rec2 = recommend_measures(more, table)
        for m in table.expanded():
            assert level(rec2, m) >= level(rec1, m)

    def test_capture_outliers_flips_polarity(self, table):
        robust = recommend_measures(CharacteristicProfile(outliers=True), table)
        capture = recommend_measures(
            CharacteristicProfile(outliers=True, outlier_preference="capture"), table)
        # robust reading: squared errors avoid; capture reading: squared errors ok
        assert "RMSE" in robust.contraindicated and "RMSE" in capture.recommended
        assert "MAE" in robust.recommended and "MAE" in capture.contraindicated

    def test_cross_series_preference_demotes_unscaled(self, table):
        rec = recommend_measures(
            CharacteristicProfile(need_cross_series_comparability=True), table)
        assert "RMSE" in rec.cautioned and "MAE" in rec.cautioned
        assert "WAPE" in rec.recommended

    def test_heteroscedasticity_profile(self, table):
        rec = recommend_measures(CharacteristicProfile(heteroscedasticity=True), table)
        assert rec.cautioned.keys() == {"MAPE", "RMSPE", "RMSLE", "NWRMSLE"}
        assert "heteroscedasticity" in rec.cautioned["MAPE"]
        assert not rec.contraindicated

    def test_scale_not_meaningful_demotes_unscaled(self, table):
        rec = recommend_measures(CharacteristicProfile(scale_meaningful=False), table)
        assert "RMSE" in rec.cautioned and "RMSLE" in rec.cautioned
        assert rec.cautioned["MAE"].startswith("scale declared not meaningful")
        assert "WAPE" in rec.recommended and "MASE" in rec.recommended

    def test_scaling_of_an_unknown_measure(self, table):
        assert table.scaling_of("RelMAE") == "benchmark-per-series"
        with pytest.raises(KeyError):
            table.scaling_of("NOPE")

    def test_benchmark_preference_demotes_nonbenchmark(self, table):
        rec = recommend_measures(
            CharacteristicProfile(need_benchmark_interpretability=True), table)
        assert "RMSE" in rec.cautioned
        assert "MASE" in rec.recommended and "MRAE" in rec.recommended


class TestRecommendPartitioning:
    def test_long_series_rolling_origin(self):
        advice = recommend_partitioning(5000, model_class="unknown")
        assert advice.scheme == "rolling-origin"

    def test_short_pure_ar_passing_check(self):
        check = StatTestResult("ljung-box", 5.0, 0.4, 0.05, reject=False)
        advice = recommend_partitioning(60, model_class="pure-AR", residual_check=check)
        assert advice.scheme == "kfold"

    def test_short_pure_ar_failing_check(self):
        check = StatTestResult("ljung-box", 40.0, 0.001, 0.05, reject=True)
        advice = recommend_partitioning(60, model_class="pure-AR", residual_check=check)
        assert advice.scheme == "improve-model-first"

    def test_short_without_check_instructs_ljung_box(self):
        advice = recommend_partitioning(60, model_class="pure-AR")
        assert advice.scheme == "kfold"
        assert any("Ljung-Box" in c for c in advice.checks)

    def test_short_stateful_expanding_window(self):
        advice = recommend_partitioning(60, model_class="stateful")
        assert advice.scheme == "rolling-origin"
        assert any("expanding" in c for c in advice.checks)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            recommend_partitioning(0)
        with pytest.raises(ValidationError, match="^series lengths must not be empty$"):
            recommend_partitioning([])
        with pytest.raises(ValidationError):
            recommend_partitioning(100, model_class="magic")


# finite ints and floats, zero, negative and huge ones included, with the values at
# the 100-observation and zero-share boundaries drawn often
NUMBERS = st.one_of(st.sampled_from([0, 0.0, -0.0, 99, 99.99, 100, 100.0, 1e308]), st.integers(-10**18, 10**18),
                    st.floats(allow_nan=False, allow_infinity=False))
LISTS = st.lists(NUMBERS, max_size=8)
# a number, or a list, tuple or 1-d array of numbers
INPUTS = st.one_of(NUMBERS, LISTS, LISTS.map(tuple), LISTS.map(np.array))


def _outcome(f, *args, **kwargs):
    """``f``'s result, or its ``ValidationError``'s message."""
    try:
        return f(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)


def _numpy_partitioning(series_lengths, model_class, residual_check):
    """The numpy formulation ``recommend_partitioning`` replaced: its error message, or
    the advice for a single length on the same side of 100."""
    lengths = np.atleast_1d(np.asarray(series_lengths, dtype=float))
    if lengths.size == 0:
        return "series lengths must not be empty"
    if (lengths <= 0).any():
        return "series lengths must be positive"
    return _outcome(recommend_partitioning, 100 if lengths.min() >= 100 else 99, model_class, residual_check)


def _numpy_hint(values):
    """The numpy formulation ``intermittency_hint`` replaced."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return "empty series"
    return bool((v == 0).mean() > 0.5)


class TestPythonFormulation:
    """The advisor computes on Python floats; it agrees with the numpy code it
    replaced on finite input and rejects NaN and infinities."""

    @settings(max_examples=300, deadline=None)
    @given(lengths=INPUTS, model_class=st.sampled_from(["pure-AR", "stateful", "unknown", "magic"]),
           reject=st.sampled_from([None, False, True]))
    def test_partitioning_matches_numpy(self, lengths, model_class, reject):
        check = None if reject is None else StatTestResult("ljung-box", 1.0, 0.5, 0.05, reject=reject)
        assert _outcome(recommend_partitioning, lengths, model_class, check) == _numpy_partitioning(
            lengths, model_class, check)

    @settings(max_examples=300, deadline=None)
    @given(values=INPUTS)
    def test_hint_matches_numpy(self, values):
        assert _outcome(intermittency_hint, values) == _numpy_hint(values)

    @settings(max_examples=100, deadline=None)
    @given(values=LISTS, bad=st.sampled_from([math.nan, math.inf, -math.inf]), at=st.integers(0, 8),
           container=st.sampled_from([list, tuple, np.array]))
    def test_non_finite_rejected(self, values, bad, at, container):
        values.insert(at, bad)
        with pytest.raises(ValidationError, match=f"^series lengths must be finite, got {bad!r}$"):
            recommend_partitioning(container(values), model_class="pure-AR")
        with pytest.raises(ValidationError, match=f"^series values must be finite, got {bad!r}$"):
            intermittency_hint(container(values))

    @pytest.mark.parametrize("lengths, bad", [([math.nan, 50], "nan"), ([math.inf], "inf"), (1e400, "inf"),
                                              (np.float64(-math.inf), "-inf")])
    def test_non_finite_length_named(self, lengths, bad):
        # a NaN made the minimum NaN, so the long-series test failed silently; an infinity was enough data
        with pytest.raises(ValidationError, match=f"^series lengths must be finite, got {bad}$"):
            recommend_partitioning(lengths, model_class="pure-AR")


class TestIntermittencyHint:
    def test_hint(self):
        assert intermittency_hint([0, 0, 0, 1])
        assert not intermittency_hint([0, 1, 1, 1])
        with pytest.raises(ValidationError, match="^empty series$"):
            intermittency_hint([])

    def test_profile_validation(self):
        with pytest.raises(ValidationError):
            CharacteristicProfile(trend="quadratic")
        with pytest.raises(ValidationError):
            CharacteristicProfile(structural_breaks={"sometime"})
        with pytest.raises(ValidationError, match="^outlier_preference must be 'robust' or 'capture'$"):
            CharacteristicProfile(outlier_preference="ignore")
        profile = CharacteristicProfile.from_json(
            json.dumps({"seasonality": True, "structural_breaks": ["in_horizon"]}))
        assert "break_in_horizon" in profile.active_characteristics()
