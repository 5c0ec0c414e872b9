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
    kfold_splits,
    leakage_check,
    leakage_checks,
    splits_for_series,
)
from forevalkit.io import write_folds_csv
from forevalkit.partition import Fold, FoldRanges, LeakageReport, _fold_runs
from test_io_cli import _INDICES


def matrix(n_rows, p=2):
    return embed(TimeSeries(id="s", values=np.arange(float(n_rows + p))), p)


def fixed_origin(series_length, train, h, **kw):
    """The one fold of a fixed-origin split."""
    (fold,) = splits_for_series(series_length, SplitSpec("fixed-origin", train, h, **kw))
    return fold


class TestFixedOrigin:
    def test_definition(self):
        fold = fixed_origin(100, 80, 20)
        assert fold.train_size == 80 and fold.test_size == 20
        assert fold.train_indices[0] == 1 and fold.train_indices[-1] == 80
        assert fold.test_indices[0] == 81 and fold.test_indices[-1] == 100
        assert fold.origin == 80

    def test_exact_boundary(self):
        fold = fixed_origin(10, 7, 3)
        assert fold.test_indices[-1] == 10

    def test_too_short(self):
        with pytest.raises(InsufficientHistoryError,
                           match="initial_train 8 \\+ horizon 5 exceeds series length 10"):
            fixed_origin(10, 8, 5)

    def test_window_applies(self):
        fold = fixed_origin(40, 20, 5, window="rolling", window_length=8)
        assert fold.train_indices.tolist() == list(range(13, 21))
        assert fixed_origin(40, 20, 5, window_length=30).train_size == 20  # hybrid: still expanding
        with pytest.raises(ValidationError, match="rolling window_length cannot exceed initial_train"):
            fixed_origin(40, 20, 5, window="rolling", window_length=21)

    def test_takes_no_stride_but_1(self):
        assert fixed_origin(10, 5, 2, stride=1).origin == 5
        with pytest.raises(ValidationError, match="^a fixed-origin split has one origin and reads no stride; "
                                                  "stride must be 1, got 2$"):
            SplitSpec("fixed-origin", 5, 2, stride=2)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 200), data=st.data())
    def test_is_the_first_rolling_origin_fold(self, n, data):
        t0 = data.draw(st.integers(1, n - 1))
        h = data.draw(st.integers(1, n - t0))
        window = data.draw(st.sampled_from(["expanding", "rolling"]))
        length = data.draw(st.integers(1, t0) if window == "rolling" else st.none() | st.integers(1, n))
        kw = dict(initial_train=t0, horizon=h, window=window, window_length=length)
        (fold,) = splits_for_series(n, SplitSpec("fixed-origin", **kw))
        # the first rolling origin is initial_train whatever the stride; a fixed-origin
        # spec takes no other stride than 1
        stride = data.draw(st.integers(1, 5))
        first = splits_for_series(n, SplitSpec("rolling-origin", stride=stride, **kw))[0]
        assert fold.origin == first.origin == t0
        for got, want in ((fold.train_indices, first.train_indices), (fold.test_indices, first.test_indices)):
            assert got.dtype == np.int64 and not got.flags.writeable and got.base is not None
            assert np.array_equal(got, want)


class TestRollingOrigin:
    def spec(self, **kw):
        base = dict(scheme="rolling-origin", initial_train=80, horizon=5, stride=5)
        base.update(kw)
        return SplitSpec(**base)

    def test_example_four_folds(self):
        folds = splits_for_series(100, self.spec())
        assert [f.origin for f in folds] == [80, 85, 90, 95]
        assert all(f.test_size == 5 for f in folds)

    def test_prequential(self):
        folds = splits_for_series(100, self.spec(initial_train=90, horizon=1, stride=1))
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
                    splits_for_series(n, spec)
                continue
            folds = splits_for_series(n, spec)
            assert len(folds) == (n - t0 - h) // stride + 1

    def test_expanding_train_sizes_strictly_increase(self):
        folds = splits_for_series(60, self.spec(initial_train=20, horizon=5, stride=3))
        sizes = [f.train_size for f in folds]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        assert all(f.train_indices[0] == 1 for f in folds)

    def test_rolling_window_constant_train(self):
        spec = self.spec(initial_train=20, horizon=5, stride=3, window="rolling", window_length=20)
        folds = splits_for_series(60, spec)
        assert all(f.train_size == 20 for f in folds)
        assert folds[-1].train_indices[0] == folds[-1].origin - 19

    def test_hybrid_expands_then_rolls(self):
        spec = self.spec(initial_train=10, horizon=5, stride=5, window="expanding", window_length=20)
        folds = splits_for_series(60, spec)
        sizes = [f.train_size for f in folds]
        assert sizes[0] == 10 and max(sizes) == 20 and sizes[-1] == 20

    @pytest.mark.parametrize("scheme", ["fixed-origin", "rolling-origin"])
    def test_window_longer_than_any_origin_is_the_expanding_window(self, scheme):
        # a window_length of at least the last origin (10), even beyond int64, trains every fold from 1
        for length in (10, 2 ** 70):
            folds = splits_for_series(12, self.spec(scheme=scheme, initial_train=5, horizon=2,
                                                    stride=1, window_length=length))
            want = splits_for_series(12, self.spec(scheme=scheme, initial_train=5, horizon=2, stride=1))
            assert folds.starts.tolist() == want.starts.tolist() == [1] * len(want)
            assert folds.origins.tolist() == want.origins.tolist()

    def test_rolling_window_longer_than_initial_train_rejected(self):
        with pytest.raises(ValidationError):
            splits_for_series(
                60, self.spec(initial_train=10, window="rolling", window_length=20)
            )

    @pytest.mark.parametrize("window, window_length", [("expanding", None), ("rolling", 10),
                                                        ("expanding", 15)])
    def test_folds_are_read_only_views(self, window, window_length):
        spec = self.spec(initial_train=10, horizon=4, stride=3, window=window, window_length=window_length)
        folds = splits_for_series(60, spec)
        for fold in folds:
            for indices in (fold.train_indices, fold.test_indices):
                assert indices.dtype == np.int64 and not indices.flags.writeable
                with pytest.raises(ValueError):
                    indices.setflags(write=True)
        for a, b in zip(folds, folds[1:]):
            assert np.shares_memory(a.train_indices, b.train_indices)
            assert np.shares_memory(a.test_indices, b.train_indices)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 120), scheme=st.sampled_from(["fixed-origin", "rolling-origin"]), data=st.data())
    def test_rolling_window_is_the_expanding_window_of_its_length(self, n, scheme, data):
        # a valid rolling window (window_length <= initial_train <= origin) is
        # full from the first origin on, so capping the expanding window at the
        # same length gives the same folds: window decides only what is valid
        t0 = data.draw(st.integers(1, n - 1))
        stride = 1 if scheme == "fixed-origin" else data.draw(st.integers(1, 5))
        kw = dict(initial_train=t0, horizon=data.draw(st.integers(1, n - t0)), stride=stride,
                  window_length=data.draw(st.integers(1, t0)))
        rolling = splits_for_series(n, SplitSpec(scheme, window="rolling", **kw))
        expanding = splits_for_series(n, SplitSpec(scheme, window="expanding", **kw))
        assert [f.origin for f in rolling] == [f.origin for f in expanding]
        for r, e in zip(rolling, expanding):
            assert r.train_size == kw["window_length"]
            for got, want in ((r.train_indices, e.train_indices), (r.test_indices, e.test_indices)):
                assert got.dtype == want.dtype == np.int64
                assert not got.flags.writeable and got.base is not None  # a read-only view
                assert got.tolist() == want.tolist()

    def test_partial_tails_dropped(self):
        folds = splits_for_series(12, self.spec(initial_train=8, horizon=3, stride=2))
        assert [f.origin for f in folds] == [8]  # origin 10 would need up to index 13


def _loop_folds(series_length, spec):
    """The folds of a temporal split, one ``Fold`` per origin, by the rule written out."""
    h = spec.horizon
    last = spec.initial_train if spec.scheme == "fixed-origin" else series_length - h
    folds = []
    for origin in range(spec.initial_train, last + 1, spec.stride):
        start = 1 if spec.window_length is None else max(1, origin - spec.window_length + 1)
        folds.append(Fold(np.arange(start, origin + 1), np.arange(origin + 1, origin + h + 1), origin))
    return folds


@st.composite
def temporal_splits(draw):
    """A series length and a valid temporal split spec for it: both schemes,
    strides, window kinds and lengths, horizons."""
    n = draw(st.integers(2, 150))
    scheme = draw(st.sampled_from(["fixed-origin", "rolling-origin"]))
    t0 = draw(st.integers(1, n - 1))
    window = draw(st.sampled_from(["expanding", "rolling"]))
    length = draw(st.integers(1, t0) if window == "rolling" else st.none() | st.integers(1, n))
    return n, SplitSpec(scheme, initial_train=t0, horizon=draw(st.integers(1, n - t0)),
                        stride=1 if scheme == "fixed-origin" else draw(st.integers(1, 7)),
                        window=window, window_length=length)


class TestFoldRanges:
    @settings(max_examples=300, deadline=None)
    @given(split=temporal_splits(), cut=st.slices(40))
    def test_items_are_the_folds_of_the_rule(self, split, cut):
        n, spec = split
        folds, want = splits_for_series(n, spec), _loop_folds(n, spec)
        assert isinstance(folds, FoldRanges) and len(folds) == len(want) and folds.horizon == spec.horizon
        for got_part, want_part in ((folds, want), (folds[cut], want[cut]), (folds[::-1], want[::-1])):
            assert len(got_part) == len(want_part)
            for got, fold in zip(got_part, want_part):
                assert got.origin == fold.origin
                assert got.train_indices.tolist() == fold.train_indices.tolist()
                assert got.test_indices.tolist() == fold.test_indices.tolist()
        assert [f.origin for f in folds[-1:]] == [want[-1].origin]
        with pytest.raises(IndexError):
            folds[len(want)]
        with pytest.raises(TypeError):
            folds[0] = want[0]

    @settings(max_examples=200, deadline=None)
    @given(split=temporal_splits(),
           scheme=st.sampled_from(["fixed-origin", "rolling-origin", "kfold", "blocked"]))
    def test_leakage_reports_match_the_fold_list(self, split, scheme):
        folds = splits_for_series(*split)
        assert leakage_checks(folds, scheme) == leakage_checks(list(folds), scheme)

    @settings(max_examples=200, deadline=None)
    @given(split=temporal_splits())
    def test_folds_csv_bytes_match_the_fold_list(self, split, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        folds = splits_for_series(*split)
        write_folds_csv(base / "ranges.csv", folds)
        write_folds_csv(base / "list.csv", list(folds))
        assert (base / "ranges.csv").read_bytes() == (base / "list.csv").read_bytes()

    @pytest.mark.parametrize("starts, origins, horizon", [
        ([0], [3], 1), ([5], [3], 1), ([1, 2], [3], 1), ([[1]], [[3]], 1), ([1], [3], 0),
        # a test range past the int64 maximum, and a start, origin or horizon past int64
        ([2 ** 63 - 10], [2 ** 63 - 3], 5), ([1], [2 ** 63 - 1], 1), ([1], [2 ** 63], 1),
        ([2 ** 63], [2 ** 63], 1), ([-2 ** 64], [3], 1), ([1], [5], 2 ** 63), ([], [], 2 ** 63)])
    def test_malformed_ranges_rejected(self, starts, origins, horizon):
        with pytest.raises(ValidationError, match="^fold ranges need one start and one origin per fold"):
            FoldRanges(starts, origins, horizon)

    def test_test_range_may_end_at_the_int64_maximum(self):
        folds = FoldRanges([2 ** 63 - 10], [2 ** 63 - 6], 5)
        assert [int(b[0]) for b in folds.bounds()] == [2 ** 63 - 10, 2 ** 63 - 6, 2 ** 63 - 5, 2 ** 63 - 1]
        with pytest.raises(ValidationError, match=r"origin \+ horizon <= 2\*\*63 - 1"):
            FoldRanges([2 ** 63 - 10], [2 ** 63 - 6], 6)

    def test_an_empty_train_range(self):
        (fold,) = FoldRanges([4], [3], 2)
        assert fold.train_size == 0 and fold.test_indices.tolist() == [4, 5]
        assert leakage_checks(FoldRanges([4], [3], 2), "rolling-origin") == [LeakageReport(True, ())]


_EXTREME = st.one_of(
    st.lists(st.sampled_from([-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 63 - 2, 2 ** 63 - 1]), max_size=8),
    st.builds(lambda n: list(range(2 ** 63 - n, 2 ** 63)), st.integers(0, 4)),  # a run up to the int64 maximum
)


def _expand_runs(runs, n_folds):
    """Each fold's (train, test) index lists, the runs expanded in order."""
    folds = [([], []) for _ in range(n_folds)]
    for fold, role, first, last in zip(*(a.tolist() for a in runs)):
        assert first <= last
        folds[fold][role].extend(range(first, last + 1))
    return folds


@st.composite
def _fold_ranges(draw):
    """Fold ranges with any starts from 1 up to origin + 1 (an empty train range)."""
    origins = draw(st.lists(st.integers(1, 300), max_size=15))
    starts = [draw(st.integers(1, o + 1)) for o in origins]
    return FoldRanges(starts, origins, draw(st.integers(1, 20)))


class TestFoldRuns:
    @settings(max_examples=300, deadline=None)
    @given(folds=st.lists(st.builds(Fold, _INDICES | _EXTREME, _INDICES | _EXTREME), max_size=12))
    @example(folds=[Fold([2 ** 63 - 2, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1], [5, 6, 7, 6, 7]),
                    Fold([], []), Fold([3], [4])])
    def test_runs_expand_to_each_folds_train_then_test_indices(self, folds):
        runs = _fold_runs(folds)
        assert [a.dtype for a in runs] == [np.int64] * 4
        assert _expand_runs(runs, len(folds)) == [(f.train_indices.tolist(), f.test_indices.tolist())
                                                  for f in folds]

    @settings(max_examples=300, deadline=None)
    @given(folds=_fold_ranges())
    @example(folds=FoldRanges([4, 1], [3, 3], 2))
    def test_fold_ranges_give_two_runs_a_fold_none_for_an_empty_train(self, folds):
        runs = _fold_runs(folds)
        assert [a.dtype for a in runs] == [np.int64] * 4
        assert runs[0].size == 2 * len(folds) - int((folds.starts > folds.origins).sum())
        assert _expand_runs(runs, len(folds)) == [(f.train_indices.tolist(), f.test_indices.tolist())
                                                  for f in folds]
        assert all(np.array_equal(a, b) for a, b in zip(_fold_runs(list(folds)), runs))


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

    def test_one_fold_rejected(self):
        with pytest.raises(ValidationError, match="^kfold requires k >= 2$"):
            kfold_splits(matrix(4), 1, seed=0)


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

    @pytest.mark.parametrize("k, gap, message", [(0, 0, "^blocked requires k >= 1$"),
                                                 (2, -1, "^gap must be >= 0$")])
    def test_malformed_k_or_gap_rejected(self, k, gap, message):
        with pytest.raises(ValidationError, match=message):
            blocked_splits(matrix(10), k, gap=gap)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 3000), data=st.data())
    def test_k_up_to_the_row_count_gives_nonempty_blocks(self, n, data):
        # consecutive linspace bounds differ by n / k >= 1, so no block is empty
        k = data.draw(st.integers(1, min(n, 40)) | st.integers(max(1, n - 40), n))
        folds = blocked_splits(matrix(n), k)
        assert all(f.test_size >= 1 for f in folds)
        assert np.concatenate([f.test_indices for f in folds]).tolist() == list(range(1, n + 1))

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
            for fold in splits_for_series(n, spec):
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
        folds = list(splits_for_series(3000, spec))  # a FoldRanges is read-only
        fold = folds[1234]
        folds[1234] = Fold(np.append(fold.train_indices, [fold.origin + 2, 5000]),
                           fold.test_indices, origin=fold.origin)
        reports = leakage_checks(folds, "rolling-origin")
        assert [i for i, r in enumerate(reports) if not r.passed] == [1234]
        assert reports[1234].violations == (
            f"train/test overlap at indices [{fold.origin + 2}]",
            f"temporal order violated: max(train)=5000 >= min(test)={fold.origin + 1}",
        )

    @settings(max_examples=200, deadline=None)
    @given(folds=st.lists(st.builds(Fold, _INDICES | _EXTREME, _INDICES | _EXTREME), max_size=8),
           scheme=st.sampled_from(["fixed-origin", "rolling-origin", "kfold", "blocked"]))
    # the two folds' hulls meet and span more than int64 holds; neither shares an index
    @example(folds=[Fold([-2 ** 63, 3], [1, 4]), Fold([2 ** 63 - 1, 5], [3, 6])], scheme="kfold")
    def test_any_indices_match_direct_rule(self, folds, scheme):
        assert leakage_checks(folds, scheme) == [_direct_rule(fold, scheme) for fold in folds]

    def test_only_folds_whose_hulls_meet_are_searched(self, monkeypatch):
        searched, isin = [], np.isin
        monkeypatch.setattr(np, "isin", lambda a, b, **kw: searched.append(a.tolist()) or isin(a, b, **kw))
        # train after test, train before test, no train, and hulls that meet without sharing an index
        folds = [Fold([5, 6], [1, 2]), Fold([1, 2], [5, 6]), Fold([], [3]), Fold([3, 9], [5])]
        assert leakage_checks(folds, "kfold") == [_direct_rule(fold, "kfold") for fold in folds]
        assert len(searched) == 1 and len(searched[0]) == 2  # fold 4's train codes
        searched.clear()
        # no index of these ranges is made: they hold 2 ** 62 indices
        assert leakage_checks(FoldRanges([1, 3], [2 ** 62, 5], 1), "rolling-origin") == [LeakageReport(True, ())] * 2
        assert searched == []

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

    @pytest.mark.parametrize("window", ["expanding", "rolling"])
    @pytest.mark.parametrize("length", [0, -3])
    def test_window_length_below_one_rejected(self, window, length):
        # below 1, every fold's train set would be empty
        with pytest.raises(ValidationError, match=f"^window_length must be >= 1, got {length}$"):
            SplitSpec(scheme="rolling-origin", initial_train=5, window=window, window_length=length)

    @pytest.mark.parametrize("fields, message", [
        ({"stride": 0}, "^stride must be >= 1$"),
        ({"window": "sliding"}, r"^window must be one of \('expanding', 'rolling'\)$"),
        ({"initial_train": None}, "^rolling-origin requires initial_train >= 1$"),
        ({"initial_train": 0}, "^rolling-origin requires initial_train >= 1$"),
    ])
    def test_each_field_checked(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            SplitSpec(**{"scheme": "rolling-origin", "initial_train": 10, **fields})

    def test_raw_series_kfold_refused(self):
        for scheme in ("kfold", "blocked"):
            with pytest.raises(ValidationError, match=f"got '{scheme}'; k-fold and blocked splits index an "
                                                      "embedded matrix: use kfold_splits or blocked_splits"):
                SplitSpec(scheme=scheme)
