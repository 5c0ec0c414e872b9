"""Every field of a split spec, a DGP spec, a compare config, a suite config and a profile
is read, and each holds a value of its declared type."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from forevalkit import (CharacteristicProfile, CompareConfig, Dataset, DgpSpec, EvaluationFrame, Forecaster,
                        OutlierInjection, SplitSpec, SuiteConfig, TimeSeries, ValidationError, benchmark_frame,
                        compare_models, evaluate, generate, recommend_measures, recommend_partitioning,
                        splits_for_series)
from forevalkit import checks

# SplitSpec field -> (a spec, another value of that field alone): the two specs
# give different folds on a length-30 series, or only one of them is valid.
SPLIT_CASES = {
    "scheme": ({"scheme": "rolling-origin", "initial_train": 10}, "fixed-origin"),
    "initial_train": ({"scheme": "rolling-origin", "initial_train": 10}, 12),
    "horizon": ({"scheme": "fixed-origin", "initial_train": 10}, 3),
    "stride": ({"scheme": "rolling-origin", "initial_train": 10}, 2),
    # a rolling window of length L gives the folds of an expanding window capped at L;
    # only its validity differs, for L > initial_train
    "window": ({"scheme": "rolling-origin", "initial_train": 10, "window_length": 20}, "rolling"),
    "window_length": ({"scheme": "rolling-origin", "initial_train": 10}, 5),
}

# DgpSpec field -> (changes to a 10-step random walk, another value of that field
# alone): the two specs generate different series, or only one of them is valid.
DGP_CASES = {
    "kind": ({}, "linear-trend"),
    "length": ({}, 11),
    "seed": ({}, 2),
    "noise_sd": ({}, 2.0),
    "noise": ({}, "student-t"),
    "t_df": ({"noise": "student-t"}, 10.0),
    "level": ({}, 1.0),
    "ar_coefficients": ({"kind": "ar", "ar_coefficients": (0.5,)}, (0.3,)),
    "ar_intercept": ({"kind": "ar", "ar_coefficients": (0.5,)}, 1.0),
    "allow_unit_root": ({"kind": "ar", "ar_coefficients": (1.0,)}, True),
    "trend_slope": ({"kind": "linear-trend"}, 1.0),
    "trend_rate": ({"kind": "exponential-trend"}, 0.1),
    "trend_scale": ({"kind": "exponential-trend", "trend_rate": 0.1}, 2.0),
    "period": ({"kind": "seasonal", "amplitude": 1.0}, 4),
    "amplitude": ({"kind": "seasonal"}, 1.0),
    "sigma_end_factor": ({"kind": "heteroscedastic"}, 3.0),
    "break_index": ({"kind": "structural-break", "break_index": 5, "break_shift": 1.0}, 6),
    "break_shift": ({"kind": "structural-break", "break_index": 5}, 1.0),
    "zero_probability": ({"kind": "intermittent"}, 0.5),
    "demand_rate": ({"kind": "intermittent"}, 6.0),
    "series_id": ({}, "x"),
}

# CompareConfig field -> (a config, another value of that field alone): the two
# configs give compare_models different tests on the scores and losses below, or
# only one of them is valid.
COMPARE_CASES = {
    "measure": ({}, "CORR"),  # higher is better: the ranks flip
    "alpha": ({}, 0.10),
    "horizon": ({"pairwise": "dm"}, 2),
    "adjust": ({}, "hochberg"),
    "pairwise": ({}, "dm"),
}
_SCORES = {"m1": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "m2": [1.5, 2.5, 3.5, 5.0, 7.0, 6.5],
           "m3": [3.0, 2.75, 4.0, 6.0, 8.0, 9.0]}
_LOSSES = {m: np.array([0.5, 1.0, 4.0, 2.0, 0.25, 3.0, 1.5, 6.0]) * (j + 1) + np.arange(8.0) ** j
           for j, m in enumerate(_SCORES)}

# SuiteConfig field -> (a suite, another value of that field alone): the two suites
# give different results on the frame below, or only one of them is valid.
SUITE_CASES = {
    "measures": ({"measures": ["MAE"]}, ["RMSE"]),
    "policy": ({"measures": ["MAPE"]}, "skip"),  # series a's zero actual leaves a MAPE term undefined
    "benchmark": ({"measures": ["RelMAE"], "benchmark": "naive"}, "mean"),
    "seasonal_period": ({"measures": ["RelMAE"], "benchmark": "seasonal-naive", "seasonal_period": 1}, 2),
}
_DATASET = Dataset((TimeSeries("a", [1.0, 3.0, 2.0, 5.0, 4.0, 0.0, 6.0]),
                    TimeSeries("b", [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0])))
_FRAME = EvaluationFrame(["a", "a", "b", "b"], [5] * 4, [1, 2, 1, 2], [0.0, 6.0, 5.0, 8.0],
                         {"m": np.array([1.0, 5.0, 4.5, 7.0])})

# CharacteristicProfile field -> (a profile, another value of that field alone): the two
# profiles give different recommendations or partitioning advice, or only one is valid.
PROFILE_CASES = {
    "stationary_count_data": ({}, True),
    "seasonality": ({}, True),
    "trend": ({}, "linear"),
    "unit_roots": ({}, True),
    "heteroscedasticity": ({}, True),
    "structural_breaks": ({}, ["in_training"]),
    "intermittency": ({}, True),
    "outliers": ({}, True),
    "outlier_preference": ({"outliers": True}, "capture"),
    "need_cross_series_comparability": ({}, True),
    "need_benchmark_interpretability": ({}, True),
    "scale_meaningful": ({}, False),
    "series_lengths": ({}, [50]),
    "model_class": ({"series_lengths": [50]}, "pure-AR"),
}


def _folds(spec: dict):
    try:
        return [(f.train_indices.tolist(), f.test_indices.tolist(), f.origin)
                for f in splits_for_series(30, SplitSpec(**spec))]
    except ValidationError as exc:
        return str(exc)


def _series(spec: dict):
    try:
        s = generate(DgpSpec(**{"kind": "random-walk", "length": 10, "seed": 1, **spec}))
    except ValidationError as exc:
        return str(exc)
    return s.id, s.values.tolist()


def _tests(spec: dict):
    """The tests compare_models computes, without the settings it echoes."""
    try:
        tests = compare_models(_SCORES, [f"s{i}" for i in range(6)], _LOSSES, CompareConfig(**spec)).tests
    except ValidationError as exc:
        return str(exc)
    return {k: v for k, v in tests.items() if k not in ("measure", "alpha", "adjust_method")}


def _results(spec: dict):
    """The results of each measure of the suite on the frame above, as ``evaluate`` computes them."""
    try:
        suite = SuiteConfig(**spec)
    except ValidationError as exc:
        return str(exc)
    bench = None if suite.benchmark is None else benchmark_frame(_DATASET, _FRAME, kind=suite.benchmark,
                                                                 period=suite.seasonal_period)
    results = [evaluate(e.name, _FRAME, benchmark=bench, train=_DATASET.prefixes(["a", "b"], [5, 5]),
                        policy=suite.policy, constants=e.constants, series_summary=e.series_summary)
               for e in suite.entries]
    return [repr((r.name, r.value, r.per_series, r.n_undefined)) for r in results]  # NaN compares by its repr


def _advice(spec: dict):
    """The recommendation and, given series lengths, the partitioning advice, as ``advise`` makes them."""
    try:
        profile = CharacteristicProfile(**spec)
    except ValidationError as exc:
        return str(exc)
    return recommend_measures(profile), profile.series_lengths and recommend_partitioning(
        profile.series_lengths, model_class=profile.model_class or "unknown")


CLASSES = [(SplitSpec, SPLIT_CASES, _folds), (DgpSpec, DGP_CASES, _series), (CompareConfig, COMPARE_CASES, _tests),
           (SuiteConfig, SUITE_CASES, _results), (CharacteristicProfile, PROFILE_CASES, _advice)]


@pytest.mark.parametrize("cls, cases", [(cls, cases) for cls, cases, _ in CLASSES])
def test_each_field_has_a_case(cls, cases):
    assert list(cases) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, cases, outcome, name", [
    (cls, cases, outcome, f.name) for cls, cases, outcome in CLASSES for f in dataclasses.fields(cls)])
def test_each_field_is_read(cls, cases, outcome, name):
    if name not in cases:
        pytest.fail(f"no case shows that {cls.__name__}.{name} is read")
    spec, value = cases[name]
    before, after = outcome(spec), outcome({**spec, name: value})
    assert before != after
    assert not (isinstance(before, str) and isinstance(after, str))


class TestFieldTypes:
    def test_numpy_scalars_pass(self):
        spec = DgpSpec(kind="ar", length=np.int64(10), seed=np.uint64(2**63), noise_sd=np.float32(1),
                       ar_coefficients=[np.float64(0.5)], allow_unit_root=np.bool_(False))
        assert spec.ar_coefficients == (0.5,)
        assert SplitSpec(scheme="fixed-origin", initial_train=np.int32(5)).initial_train == 5
        assert Forecaster("seasonal-naive", np.int64(4)).period == 4
        assert type(CompareConfig(alpha=np.float32(0.05)).alpha) is float

    @pytest.mark.parametrize("make, message", [
        (lambda: DgpSpec(kind="random-walk", length=10, seed=1, noise_sd=True),
         "DGP spec noise_sd must be a number, got True"),
        (lambda: DgpSpec(kind="ar", length=10, seed=1, ar_coefficients={0.5}),
         "DGP spec ar_coefficients must be a list of numbers, got {0.5}"),
        (lambda: DgpSpec(kind="random-walk", length=10, seed=1, series_id=3),
         "DGP spec series_id must be a string, got 3"),
        (lambda: SplitSpec(scheme="rolling-origin", initial_train=5, window_length="5"),
         "split spec window_length must be an integer, got '5'"),
        (lambda: CharacteristicProfile(structural_breaks=["in_horizon", 1]),
         "profile structural_breaks must be a list of strings, got ['in_horizon', 1]"),
        (lambda: CharacteristicProfile(trend=None), "profile trend must be a string, got None"),
        (lambda: OutlierInjection(indices=(2.7,)),
         "outlier injection indices must be a list of integers, got (2.7,)"),
        (lambda: OutlierInjection(rate=0.1, magnitude="10"),
         "outlier injection magnitude must be a number, got '10'"),
        (lambda: OutlierInjection(indices=(True,)),
         "outlier injection indices must be a list of integers, got (True,)"),
        (lambda: CompareConfig(measure=None), "compare config measure must be a string, got None"),
        (lambda: CompareConfig(alpha=True), "compare config alpha must be a number, got True"),
        (lambda: CompareConfig(pairwise="dm", horizon=2.0), "compare config horizon must be an integer, got 2.0"),
        (lambda: CompareConfig(adjust=["holm"]), "compare config adjust must be a string, got ['holm']"),
        (lambda: CompareConfig(pairwise=1), "compare config pairwise must be a string, got 1"),
        (lambda: SuiteConfig(measures=["MAE"], benchmark=5), "suite config benchmark must be a string, got 5"),
        (lambda: SuiteConfig(measures=("MAE", None)),
         "suite config measures must be a list of strings or objects, got ('MAE', None)"),
        (lambda: CharacteristicProfile(series_lengths=[50], model_class=1),
         "profile model_class must be a string, got 1"),
    ])
    def test_wrong_type_names_the_field(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    def test_union_names_each_type(self):
        checks.check_type("lengths", [30, 40.5], float | tuple[float, ...] | None)
        checks.check_type("lengths", None, float | tuple[float, ...] | None)
        with pytest.raises(ValidationError, match=r"^lengths must be a number or a list of numbers, "
                                                  r"got \[30, False\]$"):
            checks.check_type("lengths", [30, False], float | tuple[float, ...] | None)
        checks.check_type("measures", ["MAE", {"name": "RMSE"}], tuple[str | dict, ...])
        with pytest.raises(ValidationError, match=r"^measures must be a list of strings or objects, got \['MAE', 1\]$"):
            checks.check_type("measures", ["MAE", 1], tuple[str | dict, ...])

    def test_annotations_resolved_once_per_class(self):
        checks._field_checks.cache_clear()
        with mock.patch("typing.get_type_hints", wraps=checks.typing.get_type_hints) as hints:
            for seed in range(3):
                DgpSpec(kind="random-walk", length=10, seed=seed)
                SplitSpec(scheme="fixed-origin", initial_train=5)
        assert [call.args for call in hints.call_args_list] == [(DgpSpec,), (SplitSpec,)]
