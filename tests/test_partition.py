import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forevalkit import (
    InsufficientHistoryError,
    SplitSpec,
    TimeSeries,
    ValidationError,
    blocked_splits,
    embed,
    fixed_origin_split,
    kfold_splits,
    leakage_check,
    leakage_checks,
    rolling_origin_splits,
)
from forevalkit.partition import Fold, LeakageReport


def matrix(n_rows, p=2):
    return embed(TimeSeries(id="s", values=np.arange(float(n_rows + p))), p)


class TestFixedOrigin:
    def test_definition(self):
        fold = fixed_origin_split(100, 80, 20)
        assert fold.train_size == 80 and fold.test_size == 20
        assert fold.train_indices[0] == 1 and fold.train_indices[-1] == 80
        assert fold.test_indices[0] == 81 and fold.test_indices[-1] == 100
        assert fold.origin == 80

    def test_exact_boundary(self):
        fold = fixed_origin_split(10, 7, 3)
        assert fold.test_indices[-1] == 10

    def test_too_short(self):
        with pytest.raises(InsufficientHistoryError):
            fixed_origin_split(10, 8, 5)


class TestRollingOrigin:
    def spec(self, **kw):
        base = dict(scheme="rolling-origin", initial_train=80, horizon=5, stride=5)
        base.update(kw)
        return SplitSpec(**base)

    def test_example_four_folds(self):
        folds = rolling_origin_splits(100, self.spec())
        assert [f.origin for f in folds] == [80, 85, 90, 95]
        assert all(f.test_size == 5 for f in folds)

    def test_prequential(self):
        folds = rolling_origin_splits(100, self.spec(initial_train=90, horizon=1, stride=1))
        assert len(folds) == 10

    def test_closed_form_count_fuzz(self, rng):
        for _ in range(300):
            n = int(rng.integers(10, 300))
            t0 = int(rng.integers(1, n))
            h = int(rng.integers(1, 20))
            stride = int(rng.integers(1, 10))
            spec = SplitSpec(scheme="rolling-origin", initial_train=t0, horizon=h, stride=stride)
            if t0 + h > n:
                with pytest.raises(InsufficientHistoryError):
                    rolling_origin_splits(n, spec)
                continue
            folds = rolling_origin_splits(n, spec)
            assert len(folds) == (n - t0 - h) // stride + 1

    def test_expanding_train_sizes_strictly_increase(self):
        folds = rolling_origin_splits(60, self.spec(initial_train=20, horizon=5, stride=3))
        sizes = [f.train_size for f in folds]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        assert all(f.train_indices[0] == 1 for f in folds)

    def test_rolling_window_constant_train(self):
        spec = self.spec(initial_train=20, horizon=5, stride=3, window="rolling", window_length=20)
        folds = rolling_origin_splits(60, spec)
        assert all(f.train_size == 20 for f in folds)
        assert folds[-1].train_indices[0] == folds[-1].origin - 19

    def test_hybrid_expands_then_rolls(self):
        spec = self.spec(initial_train=10, horizon=5, stride=5, window="expanding", window_length=20)
        folds = rolling_origin_splits(60, spec)
        sizes = [f.train_size for f in folds]
        assert sizes[0] == 10 and max(sizes) == 20 and sizes[-1] == 20

    def test_rolling_window_longer_than_initial_train_rejected(self):
        with pytest.raises(ValidationError):
            rolling_origin_splits(
                60, self.spec(initial_train=10, window="rolling", window_length=20)
            )

    @pytest.mark.parametrize("window, window_length", [("expanding", None), ("rolling", 10),
                                                        ("expanding", 15)])
    def test_folds_are_read_only_views(self, window, window_length):
        spec = self.spec(initial_train=10, horizon=4, stride=3, window=window, window_length=window_length)
        folds = rolling_origin_splits(60, spec)
        for fold in folds:
            for indices in (fold.train_indices, fold.test_indices):
                assert indices.dtype == np.int64 and not indices.flags.writeable
                with pytest.raises(ValueError):
                    indices.setflags(write=True)
        for a, b in zip(folds, folds[1:]):
            assert np.shares_memory(a.train_indices, b.train_indices)
            assert np.shares_memory(a.test_indices, b.train_indices)

    def test_partial_tails_dropped(self):
        folds = rolling_origin_splits(12, self.spec(initial_train=8, horizon=3, stride=2))
        assert [f.origin for f in folds] == [8]  # origin 10 would need up to index 13


class TestKfold:
    def test_partition_property(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 120))
            k = int(rng.integers(2, min(n, 12) + 1))
            folds = kfold_splits(matrix(n), k, seed=int(rng.integers(0, 2**31)))
            assert len(folds) == k
            all_test = np.concatenate([f.test_indices for f in folds])
            assert sorted(all_test.tolist()) == list(range(1, n + 1))
            for f in folds:
                assert np.intersect1d(f.train_indices, f.test_indices).size == 0
                assert f.train_size + f.test_size == n

    def test_five_fold_sizes(self):
        folds = kfold_splits(matrix(100), 5, seed=1)
        assert [f.test_size for f in folds] == [20] * 5

    def test_loocv(self):
        folds = kfold_splits(matrix(17), 17, seed=3)
        assert all(f.test_size == 1 for f in folds)

    def test_same_seed_identical(self):
        a = kfold_splits(matrix(50), 5, seed=42)
        b = kfold_splits(matrix(50), 5, seed=42)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test_indices, fb.test_indices)

    def test_k_exceeds_rows(self):
        with pytest.raises(ValidationError):
            kfold_splits(matrix(4), 5, seed=0)


class TestBlocked:
    def test_contiguous_blocks(self):
        folds = blocked_splits(matrix(100), 5, gap=0)
        assert [f.test_size for f in folds] == [20] * 5
        for f in folds:
            t = f.test_indices
            assert np.array_equal(t, np.arange(t[0], t[-1] + 1))
        all_test = np.concatenate([f.test_indices for f in folds])
        assert sorted(all_test.tolist()) == list(range(1, 101))

    def test_gap_removes_adjacent_rows(self):
        folds = blocked_splits(matrix(100), 5, gap=3)
        middle = folds[2]
        lo, hi = middle.test_indices[0], middle.test_indices[-1]
        for g in range(1, 4):
            assert lo - g not in middle.train_indices
            assert hi + g not in middle.train_indices
        assert lo - 4 in middle.train_indices and hi + 4 in middle.train_indices

    def test_gap_trims_asymmetrically_at_ends(self):
        folds = blocked_splits(matrix(50), 5, gap=2)
        first, last = folds[0], folds[-1]
        assert first.test_indices[0] == 1  # nothing to trim before the series start
        assert first.test_indices[-1] + 2 not in first.train_indices
        assert last.test_indices[-1] == 50
        assert last.test_indices[0] - 2 not in last.train_indices

    def test_single_holdout_block(self):
        folds = blocked_splits(matrix(30), 1, gap=0)
        assert len(folds) == 1 and folds[0].test_size == 30 and folds[0].train_size == 0

    def test_infeasible(self):
        with pytest.raises(ValidationError):
            blocked_splits(matrix(3), 5)

    def test_gap_consuming_all_train_rejected(self):
        with pytest.raises(ValidationError, match="no training rows"):
            blocked_splits(matrix(10), 2, gap=20)
        # k=1 stays the documented degenerate holdout even with a huge gap
        assert blocked_splits(matrix(10), 1, gap=20)[0].train_size == 0


class TestLeakageCheck:
    def test_temporal_pass(self):
        fold = Fold(np.arange(1, 81), np.arange(81, 86), origin=80)
        assert leakage_check(fold, "rolling-origin").passed

    def test_overlap_fails(self):
        fold = Fold(np.concatenate([np.arange(1, 81), [83]]), np.arange(81, 86), origin=80)
        report = leakage_check(fold, "rolling-origin")
        assert not report.passed and any("overlap" in v for v in report.violations)

    def test_kfold_future_rows_permitted(self):
        fold = Fold(np.array([1, 2, 9, 10]), np.array([3, 4]), origin=None)
        assert leakage_check(fold, "kfold").passed
        assert not leakage_check(fold, "rolling-origin").passed

    def test_all_generated_folds_pass(self, rng):
        for _ in range(40):
            n = int(rng.integers(20, 200))
            t0 = int(rng.integers(5, n - 5))
            h = int(rng.integers(1, min(8, n - t0) + 1))
            spec = SplitSpec(scheme="rolling-origin", initial_train=t0, horizon=h,
                             stride=int(rng.integers(1, 5)))
            for fold in rolling_origin_splits(n, spec):
                assert leakage_check(fold, "rolling-origin").passed
        for fold in kfold_splits(matrix(60), 5, seed=0):
            assert leakage_check(fold, "kfold").passed
        for fold in blocked_splits(matrix(60), 4, gap=2):
            assert leakage_check(fold, "blocked").passed


def _direct_rule(fold, scheme):
    """The leakage rule for one fold, written out directly."""
    violations = []
    overlap = np.intersect1d(fold.train_indices, fold.test_indices)
    if overlap.size:
        violations.append(f"train/test overlap at indices {overlap.tolist()}")
    if scheme in ("fixed-origin", "rolling-origin") and fold.train_size and fold.test_size:
        t_max, s_min = int(fold.train_indices.max()), int(fold.test_indices.min())
        if t_max >= s_min:
            violations.append(f"temporal order violated: max(train)={t_max} >= min(test)={s_min}")
    return LeakageReport(passed=not violations, violations=tuple(violations))


class TestLeakageChecks:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_folds=st.integers(1, 2500),
           bad=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                  st.sampled_from(["overlap", "order", "random"])), max_size=3),
           scheme=st.sampled_from(["fixed-origin", "rolling-origin", "kfold", "blocked"]))
    # seed 34 draws origin 4 and h 1: train [5, 1, 2, 3, 4] and test [5], so
    # train's largest index is test's smallest and that index is shared
    @example(seed=34, n_folds=1, bad=[(0.0, "overlap")], scheme="kfold")
    def test_matches_direct_rule(self, seed, n_folds, bad, scheme):
        rng = np.random.default_rng(seed)
        folds = []
        for _ in range(n_folds):
            origin, h = int(rng.integers(1, 60)), int(rng.integers(1, 13))
            start = int(rng.integers(1, origin + 2))  # start = origin + 1: empty train
            folds.append(Fold(np.arange(start, origin + 1), np.arange(origin + 1, origin + h + 1),
                              origin=origin))
        for where, how in bad:
            i = int(where * n_folds)
            fold = folds[i]
            if how == "overlap":  # pull a test index into train, out of order
                train = np.concatenate([fold.test_indices[-1:], fold.train_indices])
                test = fold.test_indices
            elif how == "order":  # a train index past the test region (if any), no overlap
                train = np.append(fold.train_indices, fold.test_indices.max(initial=0) + 10_000)
                test = fold.test_indices
            else:  # unsorted, repeated, non-contiguous indices, possibly empty
                train = rng.integers(1, 40, size=int(rng.integers(0, 20)))
                test = rng.integers(1, 40, size=int(rng.integers(0, 8)))
            folds[i] = Fold(train, test)
        got = leakage_checks(folds, scheme)
        assert got == [_direct_rule(fold, scheme) for fold in folds]
        assert [leakage_check(fold, scheme) for fold in folds[:50]] == got[:50]

    def test_single_bad_fold_among_thousands(self):
        spec = SplitSpec(scheme="rolling-origin", initial_train=5, horizon=3)
        folds = rolling_origin_splits(3000, spec)
        fold = folds[1234]
        folds[1234] = Fold(np.append(fold.train_indices, [fold.origin + 2, 5000]),
                           fold.test_indices, origin=fold.origin)
        reports = leakage_checks(folds, "rolling-origin")
        assert [i for i, r in enumerate(reports) if not r.passed] == [1234]
        assert reports[1234].violations == (
            f"train/test overlap at indices [{fold.origin + 2}]",
            f"temporal order violated: max(train)=5000 >= min(test)={fold.origin + 1}",
        )

    def test_no_folds_and_unknown_scheme(self):
        assert leakage_checks([], "kfold") == []
        with pytest.raises(ValidationError, match="unknown scheme"):
            leakage_checks([], "holdout")


class TestSplitSpec:
    def test_json_round_trip(self):
        spec = SplitSpec(scheme="rolling-origin", initial_train=50, horizon=5,
                         stride=2, window="rolling", window_length=30)
        assert SplitSpec.from_json(spec.to_json()) == spec

    def test_validation(self):
        with pytest.raises(ValidationError):
            SplitSpec(scheme="nope")
        with pytest.raises(ValidationError):
            SplitSpec(scheme="rolling-origin", initial_train=10, horizon=0)
        with pytest.raises(ValidationError):
            SplitSpec(scheme="rolling-origin", initial_train=10, window="rolling")

    def test_raw_series_kfold_refused(self):
        for scheme in ("kfold", "blocked"):
            with pytest.raises(ValidationError, match=f"got '{scheme}'; k-fold and blocked splits index an "
                                                      "embedded matrix: use kfold_splits or blocked_splits"):
                SplitSpec(scheme=scheme)
