import contextlib
import csv
import hashlib
import io
import json
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forevalkit.cli
import forevalkit.io
import forevalkit.report
from forevalkit import (
    CharacteristicProfile,
    CompareConfig,
    DataValidationError,
    Dataset,
    DgpSpec,
    EvaluationFrame,
    LeakageError,
    SplitSpec,
    TimeSeries,
    ValidationError,
    benchmark_frame,
    compare_models,
    diebold_mariano,
)
from forevalkit.cli import main
from forevalkit.io import (
    build_frame,
    read_forecast_csv,
    read_series_csv,
    write_backtest_report,
    write_folds_csv,
    write_series_csv,
)
from forevalkit.partition import Fold, FoldRanges, splits_for_series

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

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValidationError,
                           match=r"empty\.csv: empty file, expected header series_id,timestamp,value$"):
            read_series_csv(p)

    def test_header_mandatory(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1,10\n")
        with pytest.raises(ValidationError, match="header"):
            read_series_csv(p)

    @pytest.mark.parametrize("head, got", [(b"series_id,time,value", "series_id,time,value"),
                                           (b"series_id\r,timestamp,value", "series_id")])
    def test_wrong_header_rejected(self, tmp_path, head, got):
        p = tmp_path / "bad.csv"
        p.write_bytes(head + b"\na,1,10\n")  # a lone carriage return ends the header row
        with pytest.raises(ValidationError, match=f"expected header series_id,timestamp,value, got {got}$"):
            read_series_csv(p)

    def test_lone_carriage_return_ends_a_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"series_id,timestamp,value\r\na\rb,1,10\r\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:2: expected 3 columns, got 1$"):
            read_series_csv(p)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("series_id,timestamp,value\na,1,\n")
        with pytest.raises(ValidationError, match="missing value"):
            read_series_csv(p)

    @pytest.mark.parametrize("ts", [2 ** 63, -(2 ** 63) - 1])
    def test_timestamp_beyond_int64_exit_2(self, workdir, capsys, ts):
        (workdir / "series.csv").write_text(f"series_id,timestamp,value\na,1,1.0\na,{ts},2.0\n")
        code = main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite_json(workdir)), "--out", str(workdir / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {workdir / 'series.csv'}:3: timestamp {ts} does not fit a 64-bit integer\n")

    def test_rows_sorted_by_timestamp(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("series_id,timestamp,value\na,2,20\na,1,10\n")
        ds = read_series_csv(p)
        assert ds["a"].values.tolist() == [10.0, 20.0]

    def test_cell_over_csv_field_limit_fails_as_csv_does(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("series_id,timestamp,value\nabcdefghij,1,1.5\n")
        limit = csv.field_size_limit(8)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                read_series_csv(p)
        finally:
            csv.field_size_limit(limit)


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
    @example(folds=[Fold(range(1, 70_001), [70_001, 70_002])])  # one block longer than a chunk
    @example(folds=[Fold([-3, 5, 5, 2, 25_000, 2 ** 40], range(1, 70_001)),  # one chunk mixes them
                    Fold([2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1], [20_001, 20_002, 7, 7])])
    def test_bytes_match_csv_writer(self, folds, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        write_folds_csv(base / "got.csv", folds)
        _csv_writer_folds(base / "want.csv", folds)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

    def test_crlf_and_empty_train(self, tmp_path):
        write_folds_csv(tmp_path / "f.csv", [Fold([], [3, 1]), Fold([10_000, 2], [])])
        assert (tmp_path / "f.csv").read_bytes() == (
            b"fold_id,role,index\r\n1,test,3\r\n1,test,1\r\n2,train,10000\r\n2,train,2\r\n")


def test_folds_writer_holds_no_group_string(tmp_path):
    """A folds.csv of several ``_BLOCK`` groups streams through the file's buffer: the
    traced peak stays under that buffer plus one run's rows and the line table, where
    a group's rows joined into one string, and that string encoded, would not."""
    folds = splits_for_series(600, SplitSpec(scheme="rolling-origin", initial_train=120, horizon=12))
    longest = int(folds.origins.max())  # the longest run and the line table span indices 1..longest
    run = 2 * longest * len(b"%d,train,%d\r\n" % (len(folds), longest))  # its slice and its rows
    table = longest * 128  # per line: a str in a list, its bytes joined twice, an offset
    runs = 2 * len(folds) * (16 * 8 + 4 * 36)  # per run: int64 arrays, and four int lists of its group
    tracemalloc.start()
    try:
        write_folds_csv(tmp_path / "folds.csv", folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (tmp_path / "folds.csv").read_bytes().count(b"\n") - 1
    assert rows > 2 * forevalkit.io._BLOCK  # at least three groups
    assert peak < forevalkit.io._BUFFER + run + table + runs


@st.composite
def _backtest_reports(draw):
    """Fold ranges, one series id per fold and each benchmark's MAE and RMSE per
    fold: ids and benchmark names with quotes, backslashes, control and non-ASCII
    characters, scores with infinities, NaN and -0.0."""
    origins = draw(st.lists(st.integers(1, 2 ** 40), max_size=12))
    starts = [draw(st.integers(max(1, o - 50), o + 1)) for o in origins]
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3))
    series_ids = [draw(st.sampled_from(ids)) for _ in origins]
    scores = {kind: tuple(np.array(draw(st.lists(st.floats(), min_size=len(origins), max_size=len(origins))))
                          for _ in range(2))
              for kind in draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True))}
    return series_ids, FoldRanges(starts, origins, draw(st.integers(1, 30))), scores


class TestBacktestReport:
    @settings(max_examples=300, deadline=None)
    @given(case=_backtest_reports())
    @example(case=(['q"\\\x01\u00fc\u2028\ud800'] * 2, FoldRanges([1, 3], [5, 4], 3),
                   {"naive": (np.array([np.inf, np.nan]), np.array([-np.inf, -0.0])),
                    "%d%%": (np.array([1e300, 5e-324]), np.array([0.1, 2.0]))}))
    def test_bytes_are_json_dumps_of_the_fold_dicts(self, case, tmp_path_factory):
        series_ids, folds, scores = case
        path = tmp_path_factory.getbasetemp() / "report.json"
        write_backtest_report(path, series_ids, folds, scores)
        # the folds' indices are not made: an origin may be far beyond any series
        ranges = zip(series_ids, folds.starts.tolist(), folds.origins.tolist())
        want = {"folds": [
            {"series": sid, "fold": j + 1, "origin": origin, "train_size": origin - start + 1,
             "test_size": folds.horizon,
             "models": {kind: {"MAE": float(mae[j]), "RMSE": float(rmse[j])}
                        for kind, (mae, rmse) in scores.items()}}
            for j, (sid, start, origin) in enumerate(ranges)]}
        assert path.read_bytes() == (json.dumps(want) + "\n").encode()


class TestBuildFrame:
    def test_joins_actuals(self, workdir):
        ds = read_series_csv(workdir / "series.csv")
        frame = build_frame(ds, read_forecast_csv(workdir / "forecasts.csv"))
        assert frame.n_rows == 4 and set(frame.models) == {"m1", "m2"}
        # actual for (a, origin 3, step 1) is value at position 4
        idx = [i for i in range(4) if frame.series_ids[i] == "a" and frame.steps[i] == 1][0]
        assert frame.actuals[idx] == 13.0

    def test_misaligned_keys_row_level_report(self, workdir):
        with open(workdir / "forecasts.csv", "a") as fh:
            fh.write("a,5,3,m1,1.0\na,5,3,m2,1.0\n")  # target position 8 beyond series
        rows = read_forecast_csv(workdir / "forecasts.csv")
        ds = read_series_csv(workdir / "series.csv")
        with pytest.raises(ValidationError, match="misaligned") as err:
            build_frame(ds, rows)
        assert "target position 8" in str(err.value)

    @pytest.mark.parametrize("origin, step", [(1, 2 ** 63 - 1), (2 ** 64, 1), (3, 2 ** 64)])
    def test_key_beyond_int64_reported_exactly(self, workdir, origin, step):
        with open(workdir / "forecasts.csv", "a") as fh:
            fh.write(f"a,{origin},{step},m1,1.0\na,{origin},{step},m2,1.0\n")
        ds = read_series_csv(workdir / "series.csv")
        with pytest.raises(DataValidationError) as err:
            build_frame(ds, read_forecast_csv(workdir / "forecasts.csv"))
        assert str(err.value) == ("misaligned evaluation inputs:\n  key ('a', %d, %d): target position %d "
                                  "outside series 'a' (length 5)" % (origin, step, origin + step))

    def test_missing_model_for_key(self, workdir):
        ds = read_series_csv(workdir / "series.csv")
        with open(workdir / "forecasts.csv", "a") as fh:
            fh.write("a,4,1,m1,1.0\n")  # m2 missing for this key
        rows = read_forecast_csv(workdir / "forecasts.csv")
        with pytest.raises(ValidationError, match="missing forecasts"):
            build_frame(ds, rows)


def _reference_series(path):
    """The series reader as it was before whole-file splitting: csv.reader row by row."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _reference_header(next(reader, None), ["series_id", "timestamp", "value"], path)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            sid, ts, value = (c.strip() for c in row)
            if not value:
                raise ValidationError(f"{path}:{lineno}: missing value (imputation is not supported)")
            try:
                t = int(ts)
                if not -2 ** 63 <= t < 2 ** 63:
                    raise ValueError(f"timestamp {t} does not fit a 64-bit integer")
                rows.setdefault(sid, []).append((t, float(value)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    series = []
    for sid, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        series.append(TimeSeries(id=sid, values=np.array([p[1] for p in pairs]),
                                 timestamps=np.array([p[0] for p in pairs], dtype=np.int64)))
    return Dataset(tuple(series))


def _reference_forecasts(path):
    """The forecast reader as it was: a list of (series_id, origin, step, model, forecast)."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _reference_header(next(reader, None), ["series_id", "origin", "step", "model", "forecast"], path)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise ValidationError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            sid, origin, step, model, fc = (c.strip() for c in row)
            try:
                out.append((sid, int(origin), int(step), model, float(fc)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise ValidationError(f"{path}: no data rows")
    return out


def _reference_header(actual, expected, path):
    if actual is None:
        raise ValidationError(f"{path}: empty file, expected header {','.join(expected)}")
    got = [c.strip() for c in actual]
    if got != expected:
        raise ValidationError(f"{path}: expected header {','.join(expected)}, got {','.join(got)}")


def _reference_join(dataset, forecast_rows):
    """build_frame as it was: a dict per (series, origin, step) key, in first-appearance order."""
    models = sorted({r[3] for r in forecast_rows})
    by_key, problems = {}, []
    for sid, origin, step, model, fc in forecast_rows:
        key = (sid, origin, step)
        slot = by_key.setdefault(key, {})
        if model in slot:
            problems.append(f"duplicate forecast for key {key} model {model!r}")
        slot[model] = fc
    sids, origins, steps, actuals = [], [], [], []
    cols = {m: [] for m in models}
    for key, slot in by_key.items():
        sid, origin, step = key
        missing = [m for m in models if m not in slot]
        if missing:
            problems.append(f"key {key}: missing forecasts for models {missing}")
            continue
        try:
            series = dataset[sid]
        except KeyError:
            problems.append(f"key {key}: series {sid!r} not in the series file")
            continue
        target = origin + step
        if not 1 <= origin <= len(series) or target > len(series):
            problems.append(f"key {key}: target position {target} outside series {sid!r} (length {len(series)})")
            continue
        sids.append(sid)
        origins.append(origin)
        steps.append(step)
        actuals.append(series.value_at(target))
        for m in models:
            cols[m].append(slot[m])
    if problems:
        raise DataValidationError("misaligned evaluation inputs:\n  " + "\n  ".join(problems))
    return EvaluationFrame(sids, origins, steps, actuals, {m: np.array(v) for m, v in cols.items()})


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the reference and the reader must fail alike, whatever the type
        return type(exc).__name__, str(exc)


def _bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


# cells that int() and float() read differently from numpy's parsers, or reject
_ODD_CELLS = ["1_000", "+5", "5.0", "nan", "inf", "-inf", "1e400", "", " ", "x", "0x10", "\u0661\u0662",
              str(2 ** 63), str(-(2 ** 64)), "1e-400", "+.5", "-0"]
_PADS = ["", "", "", " ", "\t", "\u00a0", "\x1c"]  # str.strip strips all; int and float not \x1c


@st.composite
def _csv_file(draw, header, rows):
    """CSV text for ``rows`` (lists of cell strings), shuffled, with a few odd cells,
    blank and all-comma rows, rows of another width, whitespace around cells,
    quoted cells (ids with commas and quotes must be) and CRLF or LF line ends."""
    header, rows = list(header), [list(r) for r in draw(st.permutations(rows))]
    for what, i, j, cell in draw(st.lists(st.tuples(
            st.sampled_from(["odd", "blank", "commas", "wider", "narrower", "lone-cr", "header"]),
            st.integers(0, 99), st.integers(0, 9), st.sampled_from(_ODD_CELLS)), max_size=3)):
        at = i % (len(rows) + 1)
        row = rows[at % len(rows)] if rows else []
        if what == "header":
            header[j % len(header)] = cell
        elif what == "blank":
            rows.insert(at, [])
        elif what == "commas":
            rows.insert(at, [" "] * len(header))
        elif not row:
            continue
        elif what == "odd":
            row[j % len(row)] = cell
        elif what == "wider":
            row.append(cell)
        elif what == "narrower":
            row.pop()
        elif what == "lone-cr":  # csv.reader ends a row at a lone carriage return
            row[0] += "\r" + cell

    quote, pads = draw(st.booleans()), draw(st.sampled_from([[""], ["", " ", "\t"], _PADS]))

    def cell(c):
        pad = draw(st.sampled_from(pads))
        if any(ch in c for ch in ',"') or (quote and draw(st.booleans())):
            return '"' + (pad + c + pad).replace('"', '""') + '"'
        return pad + c + pad

    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(map(cell, header))] + [",".join(map(cell, r)) for r in rows]
    return end.join(lines) + (end if draw(st.booleans()) else "")


_IDS = ["a", "b", "s 1", "e,f", 'g"h']  # the last two must be quoted


@st.composite
def _series_csv(draw):
    ids = draw(st.sampled_from([_IDS[:3], _IDS]))
    keys = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(-3, 30)),
                         max_size=14, unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(keys), max_size=len(keys)))
    rows = [[sid, str(t), repr(v)] for (sid, t), v in zip(keys, values)]
    return draw(_csv_file(["series_id", "timestamp", "value"], rows))


@st.composite
def _forecast_csv(draw):
    ids = draw(st.sampled_from([_IDS[:3], _IDS]))
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(-2, 12), st.integers(-1, 4),
                                   st.sampled_from(["m1", "m2", "m 3"]),
                                   st.floats(allow_nan=False, allow_infinity=False)), max_size=14))
    rows = [[sid, str(o), str(s), m, repr(f)] for sid, o, s, m, f in rows]
    return draw(_csv_file(["series_id", "origin", "step", "model", "forecast"], rows))


# bytes per block of rows split at once: the default, and sizes that put a few
# rows, or one, in each block
_BLOCKS = st.sampled_from([forevalkit.io._BLOCK, 1, 40])


class TestReadersMatchRowByRow:
    """The whole-file readers give what csv.reader row by row gives: the same ids,
    timestamps and values, bit for bit, or the same error and text."""

    @settings(max_examples=300, deadline=None)
    @given(text=_series_csv(), block=_BLOCKS)
    # a NaN in series a, read first by the reference, and a timestamp beyond int64 in b
    @example(text="series_id,timestamp,value\na,1,nan\nb,9223372036854775808,0.0\na,-1,0.0\na,0,0.0",
             block=forevalkit.io._BLOCK)
    def test_series(self, text, block, tmp_path_factory):
        path = tmp_path_factory.mktemp("series") / "s.csv"
        path.write_bytes(text.encode("utf-8"))

        def summary(ds):
            if isinstance(ds, tuple):
                return ds
            return [(s.id, s.timestamps.tolist(), _bits(s.values)) for s in ds]

        with mock.patch.object(forevalkit.io, "_BLOCK", block):
            got = _outcome(read_series_csv, path)
        assert summary(got) == summary(_outcome(_reference_series, path))

    @settings(max_examples=300, deadline=None)
    @given(text=_forecast_csv(), block=_BLOCKS)
    def test_forecasts(self, text, block, tmp_path_factory):
        path = tmp_path_factory.mktemp("forecasts") / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(forevalkit.io, "_BLOCK", block):
            got = _outcome(read_forecast_csv, path)
        want = _outcome(_reference_forecasts, path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want)
        assert (got.series_ids, got.origins.tolist(), got.steps.tolist(), got.models,
                _bits(got.forecasts)) == ([r[0] for r in want], [r[1] for r in want],
                                          [r[2] for r in want], [r[3] for r in want],
                                          _bits([r[4] for r in want]))

    def test_quoted_crlf_file_matches(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b'series_id, timestamp ,value\r\n"x,1", 2 ,1.5\r\n\r\n"x,1",1,+5\r\n')
        ds = read_series_csv(path)
        assert ds["x,1"].values.tolist() == [5.0, 1.5] and ds["x,1"].timestamps.tolist() == [1, 2]


_JOIN_ORIGINS = [-1, 0, 1, 2, 3, 5, 2 ** 63, -(2 ** 63) - 1]
_JOIN_STEPS = [-9, -1, 0, 1, 2, 2 ** 63 - 1, 2 ** 64, -(2 ** 63) - 5]


@st.composite
def _join_case(draw):
    """A dataset and forecast rows: keys with a forecast for every model, some
    naming an unknown series or targeting outside it (origins and steps beyond
    int64 included), then a row left out, repeated rows and rows of a model
    no other key has, in any order."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    value = st.floats(-1e6, 1e6)
    dataset = Dataset(tuple(
        TimeSeries(id=f"s{i}", values=draw(st.lists(value, min_size=n, max_size=n)))
        for i, n in enumerate(lengths)))
    models = draw(st.lists(st.sampled_from(["m2", "m1", "b"]), min_size=1, max_size=2, unique=True))
    keys = draw(st.lists(st.tuples(st.integers(0, len(lengths) - 1), st.integers(1, 5), st.integers(1, 3)),
                         max_size=6, unique=True))
    keys = [(f"s{i}", o, k) for i, o, k in keys if o + k <= lengths[i]]
    keys += draw(st.lists(st.tuples(st.sampled_from(["s0", "s1", "s2", "zz"]), st.sampled_from(_JOIN_ORIGINS),
                                    st.sampled_from(_JOIN_STEPS)), min_size=0 if keys else 1, max_size=2))
    rows = [(*key, m, draw(value)) for key in keys for m in models]
    if len(rows) > 1 and draw(st.booleans()):
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += [(*key, "m9", draw(value)) for key in draw(st.lists(st.sampled_from(keys), max_size=1))]
    return dataset, draw(st.permutations(rows))


class TestBuildFrameMatchesDictJoin:
    @settings(max_examples=300, deadline=None)
    @given(case=_join_case())
    def test_frame_or_message(self, case, tmp_path_factory):
        dataset, rows = case
        path = tmp_path_factory.mktemp("join") / "f.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series_id", "origin", "step", "model", "forecast"])
            writer.writerows([sid, o, k, m, repr(f)] for sid, o, k, m, f in rows)

        def summary(frame):
            if isinstance(frame, tuple):
                return frame
            return (frame.series_ids.tolist(), frame.origins.tolist(), frame.steps.tolist(),
                    _bits(frame.actuals), [(m, _bits(f)) for m, f in frame.forecasts.items()])

        assert summary(_outcome(build_frame, dataset, read_forecast_csv(path))) == \
            summary(_outcome(_reference_join, dataset, rows))


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

    def test_squared_errors_past_the_float_range_score_inf_without_warning(self, tmp_path):
        # actuals at -+1e200 and forecasts of the opposite sign: errors of +-2e200 square past the float range
        (tmp_path / "series.csv").write_text("series_id,timestamp,value\n" + "".join(
            f"x,{t},{(-1) ** t * 1e200!r}\n" for t in range(1, 7)))
        (tmp_path / "forecasts.csv").write_text("series_id,origin,step,model,forecast\n" + "".join(
            f"x,3,{k},m,{(-1) ** (k + 4) * 1e200!r}\n" for k in range(1, 4)))
        (tmp_path / "suite.json").write_text(json.dumps({"measures": ["MAE", "MSE", "RMSE"]}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", *(str(tmp_path / f) for f in ("series.csv", "forecasts.csv", "suite.json")),
                         "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert [(r["measure"], r["value"], r["per_series"]) for r in results] == [
            ("MAE", 2e200, {"x": 2e200}), ("MSE", float("inf"), {"x": float("inf")}),
            ("RMSE", float("inf"), {"x": float("inf")})]
        assert b'"value": Infinity' in (out / "report.json").read_bytes()

    def test_matrix_keeps_the_later_of_repeated_measures(self, workdir):
        # b's naive forecast from origin 3 is exact at step 1, so its MRAE is undefined
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [{"name": "msMAPE", "constants": {"epsilon": 0.25}},
                                                  "msMAPE", "MRAE"], "benchmark": "naive"}))
        (workdir / "series.csv").write_text(SERIES_CSV.replace("b,4,103", "b,4,101"))
        out = workdir / "out"
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
                     str(suite), "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        with open(out / "matrix.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["series_id", "MRAE:m1", "MRAE:m2", "msMAPE:m1", "msMAPE:m2"]
        later = {(r["measure"], r["model"]): r["per_series"] for r in results}
        assert later[("msMAPE", "m1")] != results[0]["per_series"]
        assert [row[0] for row in rows] == ["a", "b"]
        assert later[("MRAE", "m1")]["b"] is None
        for row in rows:
            for col, cell in zip(header[1:], row[1:]):
                want = later[tuple(col.split(":"))][row[0]]
                assert cell == ("" if want is None else repr(want))

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

    def test_error_policy_exit_2_on_undefined(self, tmp_path, capsys):
        # the forecasts target a's actuals 0, 2 and z's 0, 0: MAPE's terms at
        # actual 0 are undefined, and WAPE's two rows of z, whose denominator
        # is 0; the error policy makes the run fail as config-level
        (tmp_path / "series.csv").write_text(
            "series_id,timestamp,value\na,1,1\na,2,0\na,3,2\nz,1,1\nz,2,0\nz,3,0\n")
        (tmp_path / "fc.csv").write_text(
            "series_id,origin,step,model,forecast\na,1,1,m,1\na,2,1,m,2\nz,1,1,m,1\nz,2,1,m,2\n")
        suite = tmp_path / "suite.json"
        for name, count in (("MAPE", 3), ("WAPE", 2)):
            suite.write_text(json.dumps({"measures": [name], "policy": "error"}))
            code = main(["evaluate", str(tmp_path / "series.csv"), str(tmp_path / "fc.csv"),
                         str(suite), "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"error: {name}: {count} of 4 terms are undefined\n" in capsys.readouterr().err

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

    def test_results_independent_of_row_order(self, tmp_path):
        rng = np.random.default_rng(11)
        series = [f"s{i},{t},{v!r}" for i in range(5)
                  for t, v in enumerate((100 + np.cumsum(rng.normal(size=12))).tolist(), start=1)]
        forecasts = [f"s{i},{o},{k},{m},{float(100 + rng.normal())!r}" for i in range(5)
                     for o in (8, 9) for k in (1, 2, 3) for m in ("m1", "m2")]

        def evaluate(name, series_rows, forecast_rows):
            d = tmp_path / name
            d.mkdir()
            (d / "s.csv").write_text("series_id,timestamp,value\n" + "\n".join(series_rows) + "\n")
            (d / "f.csv").write_text("series_id,origin,step,model,forecast\n" + "\n".join(forecast_rows) + "\n")
            assert main(["evaluate", str(d / "s.csv"), str(d / "f.csv"), str(suite_json(d)),
                         "--out", str(d / "o")]) == 0
            results = json.loads((d / "o" / "report.json").read_text())["results"]
            with open(d / "o" / "matrix.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            return ({(r["measure"], r["model"], sid): v for r in results for sid, v in r["per_series"].items()},
                    {(col, row[0]): float(cell) for row in rows for col, cell in zip(header[1:], row[1:])},
                    {(r["measure"], r["model"]): r["value"] for r in results})

        ordered = evaluate("ordered", series, forecasts)
        shuffled = evaluate("shuffled", rng.permutation(series).tolist(), rng.permutation(forecasts).tolist())
        assert len(ordered[0]) == len(ordered[1]) == 7 * 2 * 5
        # the frame keeps the file's key order, so sums run in another order: equal
        # up to rounding, a few ulps for these 6-60 term sums
        for got, want in zip(shuffled, ordered):
            assert got == pytest.approx(want, rel=64 * np.finfo(float).eps, abs=0)


class TestPerSeriesWork:
    """CLI ``evaluate`` and ``backtest`` work on the dataset's stacked arrays:
    no ``TimeSeries`` is constructed, benchmark forecasts come from one call per
    benchmark, and in-sample scales from one call per scaled measure and model."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from forevalkit.core import Forecaster
        from forevalkit.measures import engine

        calls = []
        init = TimeSeries.__post_init__
        monkeypatch.setattr(TimeSeries, "__post_init__", lambda s: (calls.append("TimeSeries"), init(s))[1])
        for owner, name in ((Forecaster, "forecast_windows"), (Forecaster, "forecast_origins"),
                            (engine, "_train_scale")):
            def spy(*args, _real=getattr(owner, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(owner, name, spy)
        return calls

    @staticmethod
    def _series_csv(path, n_series, length):
        rng = np.random.default_rng(5)
        path.write_text("series_id,timestamp,value\n" + "".join(
            f"s{j},{t},{v!r}\n" for j in range(n_series)
            for t, v in enumerate((50 + np.cumsum(rng.normal(0, 1, length))).tolist(), start=1)))

    def test_evaluate(self, tmp_path, calls):
        self._series_csv(tmp_path / "series.csv", 50, 30)
        (tmp_path / "forecasts.csv").write_text("series_id,origin,step,model,forecast\n" + "".join(
            f"s{j},{origin},{k},{model},{50 + j % 7 + k}\n" for j in range(50) for origin in (20 + j % 3, 24)
            for k in range(1, 5) for model in ("m1", "m2")))
        (tmp_path / "suite.json").write_text(json.dumps({
            "measures": ["MAE", "MASE", "RMSSE", "sMSE", "MRAE"], "benchmark": "mean", "policy": "skip"}))
        assert main(["evaluate", *(str(tmp_path / f) for f in ("series.csv", "forecasts.csv", "suite.json")),
                     "--out", str(tmp_path / "out")]) == 0
        # MASE, RMSSE and sMSE for each of two models; one benchmark forecast over all 100 windows
        assert sorted(calls) == ["_train_scale"] * 6 + ["forecast_windows"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["results"]) == 10 and all(len(r["per_series"]) == 50 for r in report["results"])

    def test_backtest(self, tmp_path, calls):
        self._series_csv(tmp_path / "series.csv", 50, 40)
        (tmp_path / "split.json").write_text(SplitSpec("rolling-origin", initial_train=24, horizon=6).to_json())
        assert main(["backtest", str(tmp_path / "series.csv"), str(tmp_path / "split.json"), "--out",
                     str(tmp_path / "bt"), "--seasonal-period", "12",
                     *[a for k in ("naive", "seasonal-naive", "mean") for a in ("--benchmark", k)]]) == 0
        assert calls == ["forecast_windows"] * 3
        assert len(json.loads((tmp_path / "bt" / "report.json").read_text())["folds"]) == 50 * 11


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
            sid, origin, steps = entry["series"], entry["origin"], np.arange(1, entry["test_size"] + 1)
            frame = EvaluationFrame([sid] * steps.size, [origin] * steps.size, steps,
                                    ds[sid].values[origin + steps - 1], {"m": np.zeros(steps.size)})
            for kind in kinds:
                bf = benchmark_frame(ds, frame, kind=kind, period=2)
                e = bf.actuals - bf.forecasts[kind]
                assert entry["models"][kind] == {"MAE": float(np.abs(e).mean()),
                                                 "RMSE": float(np.sqrt((e * e).mean()))}

    def test_seasonal_period_in_manifest(self, workdir):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "fixed-origin", "initial_train": 3, "horizon": 2}))
        configs = {}
        for period in (2, 3):
            out = workdir / f"bt{period}"
            assert main(["backtest", str(workdir / "series.csv"), str(split), "--benchmark", "seasonal-naive",
                         "--seasonal-period", str(period), "--out", str(out)]) == 0
            configs[period] = json.loads((out / "manifest.json").read_text())["config"]
        assert [c["seasonal_period"] for c in configs.values()] == [2, 3]
        assert main(["backtest", str(workdir / "series.csv"), str(split), "--out", str(workdir / "bt")]) == 0
        assert json.loads((workdir / "bt" / "manifest.json").read_text())["config"]["seasonal_period"] is None

    @pytest.mark.parametrize("benchmarks", [[], ["naive"], ["naive", "mean"]])
    def test_seasonal_period_without_seasonal_naive_exit_2(self, workdir, capsys, benchmarks):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "fixed-origin", "initial_train": 3, "horizon": 2}))
        code = main(["backtest", str(workdir / "series.csv"), str(split), "--seasonal-period", "7",
                     *[a for k in benchmarks for a in ("--benchmark", k)], "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == ("error: --seasonal-period is read only by the seasonal-naive "
                                           "benchmark; add --benchmark seasonal-naive\n")
        assert not (workdir / "bt").exists()

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

        monkeypatch.setattr(forevalkit.partition, "splits_for_series", splits)
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

    def test_short_series_named_exit_2(self, workdir, capsys):
        (workdir / "series.csv").write_text(SERIES_CSV + "c,1,5\nc,2,6\n")
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 3, "horizon": 1}))
        code = main(["backtest", str(workdir / "series.csv"), str(split), "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: series 'c': initial_train 3 + horizon 1 exceeds series length 2\n")

    def test_window_length_beyond_int64_is_the_expanding_window(self, workdir):
        split = workdir / "split.json"
        for out, window in (("expanding", {}), ("huge", {"window_length": 2 ** 70})):
            split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 3, "horizon": 2, **window}))
            assert main(["backtest", str(workdir / "series.csv"), str(split), "--out", str(workdir / out)]) == 0
        for name in ("folds.csv", "report.json"):
            assert (workdir / "huge" / name).read_bytes() == (workdir / "expanding" / name).read_bytes()

    def test_repeated_benchmark_exit_2(self, workdir, capsys):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "rolling-origin", "initial_train": 3, "horizon": 1}))
        code = main(["backtest", str(workdir / "series.csv"), str(split), "--benchmark", "mean",
                     "--benchmark", "naive", "--benchmark", "mean", "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == "error: --benchmark mean given more than once\n"
        assert not (workdir / "bt").exists()

    def test_long_rolling_origin_folds_and_mean_scores(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(tuple(TimeSeries(id=sid, values=rng.normal(0, 1e3, 400) * rng.choice([1e-6, 1e6], 400))
                           for sid in ("a", "b", "c")))
        write_series_csv(tmp_path / "series.csv", ds)
        spec = SplitSpec("rolling-origin", initial_train=150)
        (tmp_path / "split.json").write_text(spec.to_json())
        out = tmp_path / "bt"
        assert main(["backtest", str(tmp_path / "series.csv"), str(tmp_path / "split.json"),
                     "--seasonal-period", "7", "--out", str(out),
                     *[a for k in ("naive", "seasonal-naive", "mean") for a in ("--benchmark", k)]]) == 0
        folds = [fold for s in ds for fold in forevalkit.partition.splits_for_series(len(s), spec)]
        _csv_writer_folds(tmp_path / "want.csv", folds)
        assert (out / "folds.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        report = json.loads((out / "report.json").read_text())["folds"]
        assert len(report) == 3 * 250
        for entry in report:
            y, o = ds[entry["series"]].values, entry["origin"]
            assert entry["models"]["mean"]["MAE"] == float(np.abs(y[o] - y[:o].mean()))

    def test_makes_no_fold_objects(self, tmp_path, monkeypatch):
        made = []
        init = Fold.__post_init__
        monkeypatch.setattr(Fold, "__post_init__", lambda fold: (made.append(fold.origin), init(fold))[1])
        rng = np.random.default_rng(3)
        ds = Dataset(tuple(TimeSeries(id=sid, values=rng.normal(50, 5, 80)) for sid in ("a", "b")))
        write_series_csv(tmp_path / "series.csv", ds)
        spec = SplitSpec("rolling-origin", initial_train=24, horizon=6)
        (tmp_path / "split.json").write_text(spec.to_json())
        assert main(["backtest", str(tmp_path / "series.csv"), str(tmp_path / "split.json"), "--out",
                     str(tmp_path / "bt"), "--seasonal-period", "12",
                     *[a for k in ("naive", "seasonal-naive", "mean") for a in ("--benchmark", k)]]) == 0
        assert len(json.loads((tmp_path / "bt" / "report.json").read_text())["folds"]) == 2 * 51
        assert made == []
        assert forevalkit.partition.splits_for_series(80, spec)[3].origin == 27 and made == [27]

    def test_squared_errors_past_the_float_range_score_inf_without_warning(self, tmp_path):
        # the naive errors are +-2e200: their squares overflow, and RMSE is inf
        (tmp_path / "series.csv").write_text("series_id,timestamp,value\n" + "".join(
            f"x,{t},{(-1) ** t * 1e200!r}\n" for t in range(1, 9)))
        (tmp_path / "split.json").write_text(SplitSpec("rolling-origin", initial_train=4).to_json())
        out = tmp_path / "bt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["backtest", str(tmp_path / "series.csv"), str(tmp_path / "split.json"),
                         "--out", str(out)]) == 0
        scores = [entry["models"]["naive"] for entry in json.loads((out / "report.json").read_text())["folds"]]
        assert scores == [{"MAE": 2e200, "RMSE": float("inf")}] * 4
        assert b'"RMSE": Infinity' in (out / "report.json").read_bytes()

    def test_kfold_on_raw_series_refused(self, workdir, capsys):
        split = workdir / "split.json"
        split.write_text(json.dumps({"scheme": "kfold"}))
        code = main(["backtest", str(workdir / "series.csv"), str(split),
                     "--out", str(workdir / "bt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: split spec scheme must be one of ('fixed-origin', 'rolling-origin'), got 'kfold'; "
            "k-fold and blocked splits index an embedded matrix: use kfold_splits or blocked_splits "
            "on embed(series, p)\n")


class TestCliCompare:
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_two_models(self, workdir):
        suite = suite_json(workdir)
        out = workdir / "out"
        main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"),
              str(suite), "--out", str(out)])
        reports = forevalkit.report._read_reports([out / "report.json"])
        scores, series = forevalkit.report._collect_scores(reports, "RMSE")
        losses = forevalkit.report._losses_by_key(reports)
        cfg = workdir / "test.json"
        for pairwise in ("wilcoxon", "dm"):
            # a null horizon is unset, which the Wilcoxon tests accept
            config = {"measure": "RMSE", "alpha": 0.05, "pairwise": pairwise, "adjust": "holm", "horizon": None}
            cfg.write_text(json.dumps(config))
            cmp_out = workdir / pairwise
            assert main(["compare", str(out / "report.json"), "--config", str(cfg),
                         "--out", str(cmp_out)]) == 0
            tests = json.loads((cmp_out / "tests.json").read_text())
            assert "friedman" in tests and "critical_distance" in tests
            assert (cmp_out / "cd.svg").exists() and (cmp_out / "cd.txt").exists()
            assert "m1 vs m2" in tests["adjusted_p"]
            ranks = (cmp_out / "ranks.csv").read_text().splitlines()
            assert ranks[0] == "series_id,m1,m2"
            assert ranks[-1].startswith("mean_rank,")
            # the library call on the report's scores and losses, in memory
            assert compare_models(scores, series, losses, CompareConfig(**config)).tests == tests

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
    overlapping keys or the keys of an earlier entry, and one model's errors
    replaced by a second report."""
    models = [f"m{j}" for j in range(draw(st.integers(2, 4)))]
    error = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-3, 3),
                      st.sampled_from([0.5, -0.5, 2.0]))

    pool = draw(st.lists(st.sampled_from(_DM_KEYS), min_size=4, max_size=24, unique_by=tuple))
    drawn = []  # each entry's keys so far

    def entry():
        # an earlier entry's keys, as evaluate writes them for every model of a frame, or
        # most of the shared pool plus a few keys of this model's own, shuffled
        if drawn and draw(st.booleans()):
            keys = draw(st.sampled_from(drawn))
        else:
            dropped = draw(st.sets(st.integers(0, max(len(pool) - 1, 0)), max_size=3))
            extra = draw(st.lists(st.sampled_from(_DM_KEYS), max_size=4, unique_by=tuple))
            keys = [k for i, k in enumerate(pool) if i not in dropped] + [k for k in extra if k not in pool]
            keys = draw(st.permutations(keys))
        drawn.append(keys)
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

    @settings(max_examples=100, deadline=None)
    @given(case=_dm_reports())
    def test_loss_rows_hold_each_models_keys_in_key_order(self, case, tmp_path_factory):
        """One row per model over every key read, sorted as ``(series_id, origin, step)``
        tuples: the squared error of the model's last entry at each of its keys, NaN
        at every other key."""
        models, first, second, final, _ = case
        work = tmp_path_factory.mktemp("losses")
        paths = [work / "report0.json", work / "report1.json"]
        for path, report in zip(paths, (first, second)):
            path.write_text(json.dumps(report))
        reports = forevalkit.report._read_reports(paths)
        columns = sorted({tuple(k) for r in (first, second) for e in r["errors"].values() for k in e["keys"]})
        want = np.full((len(models), len(columns)), np.nan)
        for row, m in zip(want, models):
            row[[columns.index(tuple(k)) for k in final[m]["keys"]]] = np.array(final[m]["errors"], float) ** 2
        got = forevalkit.report._losses_by_key(reports)
        assert list(got) == models
        assert np.array_equal(np.stack(list(got.values())), want, equal_nan=True)

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

    @staticmethod
    def _compare(work, *reports, pairwise="dm"):
        """``compare`` on ``reports`` written in order; returns the exit code and
        the parsed ``tests.json`` (None on failure)."""
        paths = [work / f"report{i}.json" for i in range(len(reports))]
        for path, report in zip(paths, reports):
            path.write_text(json.dumps(report))
        (work / "test.json").write_text(json.dumps({"pairwise": pairwise}))
        code = main(["compare", *map(str, paths), "--config", str(work / "test.json"),
                     "--out", str(work / "cmp")])
        return code, (json.loads((work / "cmp" / "tests.json").read_text()) if code == 0 else None)

    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_second_report_replaces_a_models_rows(self, tmp_path):
        first = TestCliInputErrors._report()
        second = {"results": [], "errors": {"m2": {
            "keys": [["b", 3, 2], ["a", 3, 1], ["b", 3, 1], ["a", 3, 2]],
            "errors": [1.5, -0.25, 3.0, 0.75]}}}
        code, tests = self._compare(tmp_path, first, second)
        assert code == 0
        # m1 from the first report, m2 from the second, both in (series, origin, step) order
        want = diebold_mariano(np.array([0.5, -1.0, 2.0, 0.0]) ** 2,
                               np.array([-0.25, 0.75, 3.0, 1.5]) ** 2)
        assert tests["pairwise"]["m1 vs m2"] == {"test": "diebold-mariano",
                                                 "statistic": want.statistic,
                                                 "p_value": want.p_value}

    def test_repeated_key_in_replaced_rows_is_reported(self, tmp_path, capsys):
        first = TestCliInputErrors._report(m2_keys=[["a", 3, 1], ["b", 3, 2], ["b", 3, 1], ["b", 3, 2]])
        second = {"results": [], "errors": {"m2": TestCliInputErrors._report()["errors"]["m2"]}}
        assert self._compare(tmp_path, first, second)[0] == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'report0.json'}: errors of model "
                                           "'m2': key 3 ['b', 3, 2] repeats an earlier key\n")

    @pytest.mark.parametrize("pairwise", ["dm", "wilcoxon"])
    def test_first_entry_read_with_a_repeated_key_is_named(self, tmp_path, capsys, pairwise):
        repeats = [["a", 3, 1], ["a", 3, 2], ["a", 3, 1], ["b", 3, 2]]
        first = TestCliInputErrors._report(m2_keys=repeats)
        second = TestCliInputErrors._report()
        second["errors"]["m1"]["keys"] = repeats[::-1]
        assert self._compare(tmp_path, second, first, pairwise=pairwise)[0] == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'report0.json'}: errors of model "
                                           "'m1': key 3 ['a', 3, 1] repeats an earlier key\n")
        assert self._compare(tmp_path, first, second, pairwise=pairwise)[0] == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'report0.json'}: errors of model "
                                           "'m2': key 2 ['a', 3, 1] repeats an earlier key\n")

    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_shared_key_lists_give_the_same_bytes(self, tmp_path):
        """Models that share one key list, the same errors under each model's own key
        order, and a model repeated in a second report (its later entry wins) all
        write the same tests.json, ranks.csv and cd diagrams."""
        rng = np.random.default_rng(7)
        keys = [[sid, 5, step] for sid in ("s1", "s2", "s3", "s4", "s5") for step in (1, 2, 3)]
        models = ("m1", "m2", "m3")
        errors = {m: rng.normal(0.0, 1.0 + j, len(keys)).tolist() for j, m in enumerate(models)}
        results = [{"measure": "RMSE", "model": m, "per_series": {
            f"s{k}": float(np.sqrt(np.mean(np.square(errors[m][3 * k - 3:3 * k])))) for k in range(1, 6)}}
            for m in models]

        def shuffled(j, m):
            order = rng.permutation(len(keys)) if j else np.arange(len(keys))
            return {"keys": [keys[i] for i in order], "errors": [errors[m][i] for i in order]}

        shared = {"results": results, "errors": {m: {"keys": keys, "errors": errors[m]} for m in models}}
        own_order = {"results": results, "errors": {m: shuffled(j, m) for j, m in enumerate(models)}}
        replaced = {"results": results, "errors": {
            **shared["errors"], "m2": {"keys": keys, "errors": [e + 1.0 for e in errors["m2"]]}}}
        later = {"results": [], "errors": {"m2": shared["errors"]["m2"]}}
        outputs = []
        for reports in ((shared,), (own_order,), (replaced, later)):
            code, tests = self._compare(tmp_path, *reports)
            assert code == 0 and tests["pairwise"]["m1 vs m2"]["test"] == "diebold-mariano"
            outputs.append({name: (tmp_path / "cmp" / name).read_bytes()
                            for name in ("tests.json", "ranks.csv", "cd.txt", "cd.svg")})
        assert outputs[0] == outputs[1] == outputs[2]
        # the first entry of m2 alone, read in place of the later one, changes the DM pairs
        code, tests = self._compare(tmp_path, replaced)
        assert code == 0 and (tmp_path / "cmp" / "tests.json").read_bytes() != outputs[0]["tests.json"]

    @pytest.mark.parametrize("pairwise", ["dm", "wilcoxon"])
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_one_key_index_per_invocation(self, tmp_path, monkeypatch, pairwise):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return key_index(*args)

        key_index = forevalkit.report._key_index
        monkeypatch.setattr(forevalkit.report, "_key_index", counted)
        second = {"results": [], "errors": {"m2": TestCliInputErrors._report()["errors"]["m2"]}}
        assert self._compare(tmp_path, TestCliInputErrors._report(), second, pairwise=pairwise)[0] == 0
        # the three entries, in two reports, hold one key list: its 4 rows, in one sort
        assert calls == [4]


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

    def test_manifest_hashes_the_profile_not_its_path(self, tmp_path):
        text = json.dumps({"seasonality": True, "series_lengths": [60], "model_class": "pure-AR"})
        manifests = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            profile = tmp_path / name / "profile.json"
            profile.write_text(text)
            assert main(["advise", str(profile), "--out", str(tmp_path / name / "adv")]) == 0
            manifests.append(json.loads((tmp_path / name / "adv" / "manifest.json").read_text()))
        first, second = manifests
        assert first["config"] == second["config"] == {"profile": json.loads(text)}
        assert first["config_hash"] == second["config_hash"]
        assert list(first["inputs"]) == [str(tmp_path / "one" / "profile.json")]
        assert list(second["inputs"]) == [str(tmp_path / "two" / "profile.json")]

    @pytest.mark.parametrize("lengths, message", [(0, "series lengths must be positive"),
                                                  ([], "series lengths must not be empty")])
    def test_falsy_series_lengths_exit_2(self, tmp_path, capsys, lengths, message):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"series_lengths": lengths}))
        assert main(["advise", str(profile), "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("lengths, bad", [("[NaN, 50]", "nan"), ("[Infinity]", "inf"), ("1e400", "inf")])
    def test_non_finite_series_lengths_exit_2(self, tmp_path, capsys, lengths, bad):
        # NaN once made the long-series test fail silently (kfold advice, exit 0)
        profile = tmp_path / "profile.json"
        profile.write_text(f'{{"series_lengths": {lengths}, "model_class": "pure-AR"}}')
        assert main(["advise", str(profile), "--out", str(tmp_path / "adv")]) == 2
        assert capsys.readouterr().err == f"error: series lengths must be finite, got {bad}\n"
        assert not (tmp_path / "adv" / "recommendation.json").exists()

    @pytest.mark.parametrize("extra", [{}, {"series_lengths": [50]}])
    def test_null_model_class_reads_as_unset(self, tmp_path, extra):
        outputs = []
        for name, profile in (("null", {"model_class": None, **extra}), ("unset", extra)):
            (tmp_path / f"{name}.json").write_text(json.dumps(profile))
            assert main(["advise", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "recommendation.json").read_text())
        assert outputs[0] == outputs[1]

    def test_unknown_flag_exit_2(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"made_up_flag": True}))
        assert main(["advise", str(profile), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_message_lists_every_allowed_key(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"series_length": [50]}))
        assert main(["advise", str(profile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile has unknown key 'series_length'; allowed keys are [")
        assert err.endswith(", 'series_lengths', 'model_class']\n")


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

    @pytest.mark.parametrize("argv, conflict", [
        (["corr-ignores-constant-bias", "--all"], "scenario 'corr-ignores-constant-bias' conflicts with --all"),
        (["corr-ignores-constant-bias", "--list"], "scenario 'corr-ignores-constant-bias' conflicts with --list"),
        (["--all", "--list"], "--all conflicts with --list"),
    ])
    def test_more_than_one_of_name_all_list_exit_2(self, tmp_path, capsys, argv, conflict):
        assert main(["pitfalls", *argv, "--out", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: pitfalls: {conflict}; give one of them\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("options, named", [
        (["--seed", "5"], "--seed"), (["--out", "p"], "--out"), (["--seed", "5", "--out", "p"], "--seed")])
    def test_list_reads_no_seed_or_out_exit_2(self, tmp_path, capsys, monkeypatch, options, named):
        monkeypatch.chdir(tmp_path)
        assert main(["pitfalls", "--list", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: pitfalls: --list conflicts with {named}; " \
                                                      "--list runs no scenario\n"
        assert not (tmp_path / "p").exists()

    def test_no_scenario_name_all_or_list_exit_2(self, tmp_path, capsys):
        assert main(["pitfalls", "--out", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: pitfalls: give a scenario name, --all or --list\n"
        assert not (tmp_path / "p").exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # numpy's SeedSequence takes no negative seed; the CLI names the option instead
        assert main(["pitfalls", "--all", "--seed", "-1", "--out", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: pitfalls: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "p").exists()

    def test_env_var_seed(self, tmp_path, monkeypatch, capsys):
        # only --seed sets the seed; no environment variable does
        from forevalkit.pitfalls import DEFAULT_SEED

        monkeypatch.setenv("FOREVALKIT_SEED", "31415")
        assert main(["pitfalls", "corr-ignores-constant-bias",
                     "--out", str(tmp_path / "p")]) == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["seed"] == DEFAULT_SEED

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

    @pytest.mark.parametrize("suite, fragment", [
        ({"measures": ["NOPE"]}, "error: unknown measure 'NOPE'; known: "),
        ({"measures": [{"name": "MASE", "constants": {"epsilon": 1}}]}, "error: MASE: unknown constants ['epsilon']"),
    ])
    def test_suite_checked_before_any_data_is_read(self, workdir, capsys, suite, fragment):
        path = workdir / "suite.json"
        path.write_text(json.dumps(suite))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "nope.csv"), str(workdir / "forecasts.csv"), str(path),
            "--out", str(workdir / "o")], fragment)

    def test_bad_suite_exits_2_before_a_misaligned_frame_exits_3(self, workdir, capsys):
        (workdir / "other.csv").write_text("series_id,origin,step,model,forecast\nzz,4,1,m1,1.0\n")
        argv = ["evaluate", str(workdir / "series.csv"), str(workdir / "other.csv"), str(suite_json(workdir)),
                "--out", str(workdir / "o")]
        assert main(argv) == 3
        capsys.readouterr()
        self._fails_with_message(capsys, argv[:3] + [str(suite_json(workdir, policy="skipp"))] + argv[4:],
                                 "unknown undefined-value policy 'skipp'")

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
        (5, "suite config measures must be a list of strings or objects, got 5"),
        (["MAE", 1], "suite config measures must be a list of strings or objects, got ['MAE', 1]"),
        (["MAE", ["RMSE"]], "suite config measures must be a list of strings or objects, got ['MAE', ['RMSE']]"),
        ([{"constants": {}}], "suite measures entry {'constants': {}} is missing key 'name'; "
                              "required keys are ['name']\n"),
        ([{"name": 3}], "unknown measure 3; known: ME, "),
        ([{"name": "msMAPE", "constant": {"epsilon": 0.1}}],
         "suite measures entry 'msMAPE' has unknown key 'constant'; allowed keys are "
         "['name', 'constants', 'series_summary']"),
        ([{"name": "MAE", "series_summary": "median"}],
         "MAE: series_summary is read only by per-series measures; MAE is summarised by 'mean'"),
        ([], "suite config needs a non-empty 'measures' list"),
    ])
    def test_bad_suite_measures(self, workdir, capsys, measures, fragment):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": measures}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], fragment)

    @pytest.mark.parametrize("suite, fragment", [
        ({"measures": ["MAPE"], "polcy": "error"},
         "suite config has unknown key 'polcy'; allowed keys are "
         "['measures', 'policy', 'benchmark', 'seasonal_period']"),
        ({"measures": ["MASE"], "train_from_series": True},
         "suite config has unknown key 'train_from_series'"),
        ({"measures": ["MAE"], "policy": "skipp"},
         "unknown undefined-value policy 'skipp'; expected propagate, skip or error"),
        ({"measures": ["MAE"], "policy": ["skip"]},
         "unknown undefined-value policy ['skip']; expected propagate, skip or error"),
    ])
    def test_unknown_suite_keys(self, workdir, capsys, suite, fragment):
        path = workdir / "suite.json"
        path.write_text(json.dumps(suite))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(path),
            "--out", str(workdir / "o")], fragment)

    @pytest.mark.parametrize("period", ["12", 2.5, True])
    def test_non_integer_seasonal_period(self, workdir, capsys, period):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": ["MRAE"], "benchmark": "seasonal-naive",
                                     "seasonal_period": period}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], f"suite config seasonal_period must be an integer, got {period!r}")

    @pytest.mark.parametrize("suite, message", [
        ({"benchmark": ""}, "unknown forecaster kind ''; expected one of ('naive', 'seasonal-naive', 'mean')"),
        ({"seasonal_period": "12"}, "suite config seasonal_period must be an integer, got '12'"),
        ({"benchmark": "naive", "seasonal_period": "12"}, "suite config seasonal_period must be an integer, got '12'"),
        ({"seasonal_period": 2}, "suite config 'seasonal_period' is read only by the seasonal-naive "
                                 "benchmark; MASE's seasonal period is the measure's constants.seasonal_period"),
        ({"benchmark": "mean", "seasonal_period": 2}, "suite config 'seasonal_period' is read only by the "
                                                      "seasonal-naive benchmark; "),
        ({"benchmark": 5}, "suite config benchmark must be a string, got 5"),
    ])
    def test_suite_setting_nothing_reads(self, workdir, capsys, suite, message):
        path = workdir / "suite.json"
        path.write_text(json.dumps({"measures": ["MAE"], **suite}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(path),
            "--out", str(workdir / "o")], f"error: {message}")

    def test_benchmark_measure_without_a_benchmark(self, workdir, capsys):
        path = workdir / "suite.json"
        path.write_text(json.dumps({"measures": ["MAE", "MRAE"]}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(path),
            "--out", str(workdir / "o")], "error: measure MRAE needs a benchmark; set 'benchmark' in the suite config")

    def test_seasonal_period_with_seasonal_naive_benchmark(self, workdir):
        path = workdir / "suite.json"
        path.write_text(json.dumps({"measures": ["MRAE"], "benchmark": "seasonal-naive", "seasonal_period": 2}))
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(path),
                     "--out", str(workdir / "o")]) == 0

    def test_malformed_suite_constants(self, workdir, capsys):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [{"name": "msMAPE", "constants": 5}]}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], "msMAPE: constants must map names to values, got 5")

    @pytest.mark.parametrize("measure, constants, message", [
        ("MASE", {"seasonal_period": "x"}, "MASE constant seasonal_period must be an integer, got 'x'"),
        ("MASE", {"seasonal_period": True}, "MASE constant seasonal_period must be an integer, got True"),
        ("MASE", {"seasonal_period": 2.5}, "MASE constant seasonal_period must be an integer, got 2.5"),
        ("MASE", {"seasonal_period": 0}, "MASE constant seasonal_period must be at least 1, got 0"),
        ("MASE", {"seasonal_period": -1}, "MASE constant seasonal_period must be at least 1, got -1"),
        ("MASE", {"scale_mode": "bogus"},
         "MASE constant scale_mode must be 'one-step' or 'multi-step', got 'bogus'"),
        ("MASE", {"scale_mode": 7}, "MASE constant scale_mode must be a string, got 7"),
        ("MASE", {"scale_mode": "multi-step", "multistep_h": "2"},
         "MASE constant multistep_h must be an integer, got '2'"),
        ("RMSSE", {"scale_mode": "multi-step", "multistep_h": 0},
         "RMSSE constant multistep_h must be at least 1, got 0"),
        ("MASE", {"scale_mode": "multi-step"}, "MASE: multi-step scale mode needs multistep_h >= 1"),
        ("MdASE", {"scale_mode": "multi-step", "multistep_h": 2, "seasonal_period": 2},
         "MdASE: seasonal_period is not read in the multi-step scale mode, which pools lags 1..multistep_h"),
        ("msMAPE", {"epsilon": "x"}, "msMAPE constant epsilon must be a number, got 'x'"),
        ("msMAPE", {"threshold": float("nan")}, "msMAPE constant threshold must be finite, got nan"),
        ("RTAE", {"clamp": float("inf")}, "RTAE constant clamp must be finite, got inf"),
        ("RTAE", {"clamp": 10 ** 400}, "RTAE constant clamp must be finite, got 1000"),
        ("MASE", {"multistep_h": 3}, "MASE: multistep_h is read only in the multi-step scale mode; "
         "set scale_mode 'multi-step'"),
        ("RMSSE", {"scale_mode": "one-step", "multistep_h": 1}, "RMSSE: multistep_h is read only in the "
         "multi-step scale mode; set scale_mode 'multi-step'"),
        ("MdASE", {"seasonal_period": 2, "multistep_h": 2}, "MdASE: multistep_h is read only in the "
         "multi-step scale mode; set scale_mode 'multi-step'"),
    ])
    def test_measure_constant_of_wrong_type_or_domain(self, workdir, capsys, measure, constants, message):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [{"name": measure, "constants": constants}]}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], f"error: {message}")

    @pytest.mark.parametrize("measure, constants", [
        ("MASE", {"seasonal_period": 2}),
        ("MASE", {"seasonal_period": None, "scale_mode": "one-step", "multistep_h": None}),
        ("RMSSE", {"scale_mode": "multi-step", "multistep_h": 2}),
        ("msMAPE", {"epsilon": 0, "threshold": 1}),
        ("RTAE", {"clamp": 0.5}),
    ])
    def test_measure_constant_in_domain(self, workdir, measure, constants):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [{"name": measure, "constants": constants}]}))
        assert main(["evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
                     "--out", str(workdir / "o")]) == 0

    def test_multistep_h_beyond_int64_exit_2(self, workdir, capsys):
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"measures": [
            {"name": "MASE", "constants": {"scale_mode": "multi-step", "multistep_h": 2 ** 70}}]}))
        self._fails_with_message(capsys, [
            "evaluate", str(workdir / "series.csv"), str(workdir / "forecasts.csv"), str(suite),
            "--out", str(workdir / "o")], "error: MASE: series 'a' train length 3 too short for lag 3 scaling")

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
        # equal under == to m1's keys, read first (as is the last case): still named
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
        # rounds down to the largest float, but is beyond it
        ({"m2_errors": [0.5, 1.0, -(int(sys.float_info.max) + 1), 0.0]},
         f"errors of model 'm2': error 2 is {-(int(sys.float_info.max) + 1)}, not a finite number"),
        ({"m2_keys": [["a", 3, 1], ["b", 3, 2], ["b", 3, 1], ["b", 3, 2]]},
         "errors of model 'm2': key 3 ['b', 3, 2] repeats an earlier key"),
        ({"m2_keys": [["a", 3, True], ["a", 3, 2], ["b", 3, 1], ["b", 3, 2]]},
         "errors of model 'm2': key 0 is ['a', 3, True], not [series_id, origin, step]"),
    ])
    def test_malformed_compare_report(self, workdir, capsys, changes, fragment):
        report = workdir / "report.json"
        report.write_text(json.dumps(self._report(**changes)))
        self._fails_with_message(capsys, ["compare", str(report), "--out", str(workdir / "o")],
                                 f"{report}: {fragment}")

    @pytest.mark.parametrize("pairwise, changes, message", [
        ("dm", {"m2_errors": [0.5, 1e200, 2.0, 0.0]},
         "{report}: errors of model 'm2': error 1 is 1e+200, whose square is not finite"),
        ("wilcoxon", {"m2_errors": [0.5, 1.0, 2.0, -1.5e154]},
         "{report}: errors of model 'm2': error 3 is -1.5e+154, whose square is not finite"),
        ("dm", {"m2_keys": [["a", 3, 1], ["a", 3, 2], ["c", 3, 1], ["c", 3, 2]]},
         "pairwise DM needs at least 4 aligned errors"),
        ("dm", {"m2_keys": [], "m2_errors": []}, "pairwise DM needs at least 4 aligned errors"),
        ("dm", {"errors": {}}, "pairwise DM needs per-row errors in the reports"),
        ("wilcoxon", {"per_series": {"b": None, "c": 1.0}}, "no common series with defined scores across models"),
    ])
    @pytest.mark.filterwarnings("ignore:post-hoc comparison requested")
    def test_failed_compare_writes_nothing(self, workdir, capsys, pairwise, changes, message):
        # every check and test runs before the first output is written
        report, cfg, out = workdir / "report.json", workdir / "test.json", workdir / "o"
        report.write_text(json.dumps(self._report(**changes)))
        cfg.write_text(json.dumps({"pairwise": pairwise}))
        assert main(["compare", str(report), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(report=report)}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config, fragment", [
        ({"pairwise": "DM"}, "'pairwise' must be 'wilcoxon' or 'dm', got 'DM'"),
        ({"pairwise": "signed-rank"}, "'pairwise' must be 'wilcoxon' or 'dm', got 'signed-rank'"),
        ({"alpha": "0.05x"}, "compare config alpha must be a number, got '0.05x'"),
        ({"pairwise": "dm", "horizon": "two"}, "compare config horizon must be an integer, got 'two'"),
        ({"pairwsie": "dm"}, "compare config has unknown key 'pairwsie'"),
        ({"measure": 5}, "error: compare config measure must be a string, got 5"),
        ({"measure": ["RMSE"]}, "error: compare config measure must be a string, got ['RMSE']"),
        ({"pairwise": "wilcoxon", "horizon": 12}, "'horizon' is read only by the 'dm' pairwise test"),
        ({"horizon": 12}, "'horizon' is read only by the 'dm' pairwise test"),
        ({"measure": "rmse"}, "error: unknown measure 'rmse'; known: ME, "),
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

    @pytest.mark.parametrize("command, spec, message", [
        ("backtest", {"scheme": "rolling-origin", "initial_train": 2.5},
         "split spec initial_train must be an integer, got 2.5"),
        ("backtest", {"scheme": "rolling-origin", "initial_train": 3, "stride": 1.5},
         "split spec stride must be an integer, got 1.5"),
        ("backtest", {"scheme": "fixed-origin", "initial_train": 3, "horizon": 1.5},
         "split spec horizon must be an integer, got 1.5"),
        ("backtest", {"scheme": "fixed-origin", "initial_train": 3, "horizon": True},
         "split spec horizon must be an integer, got True"),
        ("simulate", {"kind": "random-walk", "length": 5.5, "seed": 1},
         "DGP spec length must be an integer, got 5.5"),
        ("simulate", {"kind": "random-walk", "length": 5, "seed": 1.5},
         "DGP spec seed must be an integer, got 1.5"),
        ("simulate", {"kind": "random-walk", "length": True, "seed": 1},
         "DGP spec length must be an integer, got True"),
        ("simulate", {"kind": "ar", "length": 5, "seed": 1, "ar_coefficients": ["a"]},
         "DGP spec ar_coefficients must be a list of numbers, got ['a']"),
        ("simulate", {"kind": "seasonal", "length": 5, "seed": 1, "amplitude": 1.0, "period": 2.5},
         "DGP spec period must be an integer, got 2.5"),
        ("advise", {"seasonality": "no"}, "profile seasonality must be true or false, got 'no'"),
        ("advise", {"structural_breaks": "in_horizon"},
         "profile structural_breaks must be a list of strings, got 'in_horizon'"),
        ("advise", {"series_lengths": [30, "x"]},
         "profile series_lengths must be a number or a list of numbers, got [30, 'x']"),
    ])
    def test_mistyped_spec_field(self, workdir, capsys, command, spec, message):
        assert main(self._spec_argv(workdir, command, spec)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _spec_argv(workdir, command, spec) -> list:
        """``command`` run on ``spec``, written as the split, DGP or profile JSON it reads."""
        path = workdir / "spec.json"
        path.write_text(json.dumps(spec))
        return [command, *{"backtest": [str(workdir / "series.csv"), str(path), "--out", str(workdir / "o")],
                           "simulate": [str(path), str(workdir / "sim.csv")],
                           "advise": [str(path), "--out", str(workdir / "o")]}[command]]

    @pytest.mark.parametrize("command, spec, fragment", [
        ("backtest", {"scheme": "rolling-origin", "initial_train": 3, "windw": "rolling"},
         "error: split spec has unknown key 'windw'; allowed keys are ['scheme', 'initial_train', "
         "'horizon', 'stride', 'window', 'window_length']\n"),
        ("simulate", {"kind": "random-walk", "length": 5, "seed": 1, "noise_Sd": 2.0},
         "error: DGP spec has unknown key 'noise_Sd'; allowed keys are ['kind', 'length', 'seed', 'noise_sd', "),
        ("advise", {"seasonalty": True},
         "error: profile has unknown key 'seasonalty'; allowed keys are ['stationary_count_data', "
         "'seasonality', "),
        ("backtest", {"initial_train": 3},
         "error: split spec is missing key 'scheme'; required keys are ['scheme']\n"),
        ("advise", {"intermittency": True, "model_class": "bogus"},
         "error: model_class must be pure-AR, stateful or unknown\n"),
        # values that nothing would read
        ("backtest", {"scheme": "fixed-origin", "initial_train": 3, "horizon": 2, "stride": 5},
         "error: a fixed-origin split has one origin and reads no stride; stride must be 1, got 5\n"),
        ("advise", {"intermittency": True, "model_class": "pure-AR"},
         "error: profile 'model_class' is read only with 'series_lengths', for partitioning advice; "
         "add series_lengths\n"),
        ("advise", {"series_lengths": None, "model_class": "stateful"},
         "error: profile 'model_class' is read only with 'series_lengths'"),
        ("simulate", {"length": 5, "seed": 1},
         "error: DGP spec is missing key 'kind'; required keys are ['kind', 'length', 'seed']\n"),
        ("simulate", {"kind": "random-walk", "length": 5, "seed": 1, "amplitude": 3.0, "ar_coefficients": [0.5],
                      "demand_rate": 9},
         "error: a random-walk DGP reads no ar_coefficients; ar_coefficients must be (), got (0.5,)\n"),
        ("simulate", {"kind": "random-walk", "length": 5, "seed": 1, "t_df": 3},
         "error: a random-walk DGP with gaussian noise reads no t_df; t_df must be 5.0, got 3\n"),
    ])
    def test_spec_keys(self, workdir, capsys, command, spec, fragment):
        self._fails_with_message(capsys, self._spec_argv(workdir, command, spec), fragment)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "intermittent", "demand_rate": -1},
         "demand_rate must lie in [0, 9.22337e+18], numpy's Poisson domain; got -1"),
        ({"kind": "intermittent", "demand_rate": 1e19},
         "demand_rate must lie in [0, 9.22337e+18], numpy's Poisson domain; got 1e+19"),
        ({"kind": "intermittent", "demand_rate": 1e400}, "DGP spec demand_rate must be finite, got inf"),
        ({"length": 2**70}, "length must be at most 576460752303423487, got 1180591620717411303424"),
        ({"noise_sd": 1e400}, "DGP spec noise_sd must be finite, got inf"),
        ({"level": float("nan")}, "DGP spec level must be finite, got nan"),
        ({"level": 10**400}, f"DGP spec level must be finite, got {10**400}"),
        ({"kind": "exponential-trend", "trend_scale": -float("inf")}, "DGP spec trend_scale must be finite, got -inf"),
    ])
    def test_dgp_spec_outside_numpy_domain(self, workdir, capsys, spec, message):
        spec = {"kind": "random-walk", "length": 5, "seed": 1, **spec}
        assert main(self._spec_argv(workdir, "simulate", spec)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_past_the_digit_limit(self, workdir, capsys):
        path = workdir / "dgp.json"
        path.write_text('{"kind": "random-walk", "length": 5, "seed": 1' + "0" * 5000 + "}")
        self._fails_with_message(capsys, ["simulate", str(path), str(workdir / "sim.csv")],
                                 "DGP spec JSON does not parse: Exceeds the limit (4300 digits)")

    def test_deeply_nested_json(self, workdir, capsys):
        path = workdir / "profile.json"
        path.write_text('{"trend": ' + "[" * 100_000 + "]" * 100_000 + "}")
        self._fails_with_message(capsys, ["advise", str(path), "--out", str(workdir / "o")],
                                 f"{path} JSON does not parse: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["simulate", "pitfalls"])
    def test_negative_seed(self, workdir, capsys, command):
        argv = (self._spec_argv(workdir, command, {"kind": "random-walk", "length": 20, "seed": -1})
                if command == "simulate" else ["pitfalls", "--all", "--seed", "-1"])
        self._fails_with_message(capsys, argv, "seed must be >= 0")
