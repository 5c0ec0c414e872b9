"""The CLI's process settings: one BLAS thread per command, the cyclic
garbage collector paused while a command runs, and the process entry that
freezes the heap before the interpreter exits."""

import gc
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import forevalkit.cli
from forevalkit import DataValidationError, ValidationError
from forevalkit.cli import main

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs argv[1], then prints the pool size of each mapped OpenBLAS library (None
# where it has no known getter) and the environment variables argv[1] added.
PROBE = """
import ctypes, json, os, sys
before = set(os.environ)
exec(sys.argv[1])
threads = {}
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
for path in paths:
    lib, threads[path] = ctypes.CDLL(path), None
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, sym, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads[path] = getter()
            break
print(json.dumps({"threads": threads, "added": sorted(set(os.environ) - before)}))
"""


@pytest.fixture
def unpinned_env(subprocess_env):
    """The child environment with none of the BLAS thread variables set."""
    return {k: v for k, v in subprocess_env.items() if k not in THREAD_VARIABLES}


def probe(code: str, env: dict) -> tuple[dict, list]:
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the OpenBLAS libraries in")
    out = json.loads(subprocess.run([sys.executable, "-c", PROBE, code], check=True,
                                    capture_output=True, text=True, env=env).stdout)
    threads = out["threads"]
    if not threads:
        pytest.skip("numpy and scipy map no OpenBLAS library")
    if None in threads.values():
        pytest.skip(f"no known thread-count getter in {threads}")
    return threads, out["added"]


# the CLI, then the first p-value, which loads scipy's extension modules as compare does
P_VALUE = "import forevalkit.cli; from forevalkit.stats import _chi2_sf; _chi2_sf(1.0, 2)"


class TestBlasPin:
    def test_one_thread_in_every_pool(self, unpinned_env):
        threads, added = probe(P_VALUE, unpinned_env)
        assert set(threads.values()) == {1}, threads
        assert added == ["OPENBLAS_NUM_THREADS"]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_holds(self, unpinned_env, variable):
        env = {**unpinned_env, variable: "2"}
        threads, added = probe(P_VALUE, env)
        assert added == []
        # OpenBLAS caps the request at the host's CPU count, so compare with no forevalkit
        assert threads == probe("import numpy; import scipy.special", env)[0]

    def test_numpy_loaded_first_is_left_alone(self, unpinned_env):
        threads, added = probe("import numpy; import forevalkit.cli", unpinned_env)
        assert added == []
        assert threads == probe("import numpy", unpinned_env)[0]


def test_corr_report_independent_of_host_threads(tmp_path, unpinned_env):
    """CORR's per-series sums run over 11,856 rows each, past the size at
    which a threaded OpenBLAS splits a dot product and rounds differently.
    On a 1-CPU host both runs use one thread, so there this cannot fail."""
    rng = np.random.default_rng(7)
    n, h, sids = 1000, 12, ["w0", "w1", "w2", "w3"]
    walks = np.cumsum(rng.normal(size=(len(sids), n)), axis=1)
    series = ["series_id,timestamp,value"]
    forecasts = ["series_id,origin,step,model,forecast"]
    for sid, walk in zip(sids, walks):
        series += [f"{sid},{t},{v!r}" for t, v in enumerate(walk.tolist(), start=1)]
        for origin in range(1, n - h + 1):
            f = walk[origin - 1] + rng.normal(scale=0.5, size=h)
            forecasts += [f"{sid},{origin},{k},m,{v!r}" for k, v in enumerate(f.tolist(), start=1)]
    (tmp_path / "series.csv").write_text("\n".join(series) + "\n")
    (tmp_path / "forecasts.csv").write_text("\n".join(forecasts) + "\n")
    (tmp_path / "suite.json").write_text(json.dumps({"measures": ["CORR"]}))

    reports = []
    for name, env in (("default", unpinned_env), ("one", {**unpinned_env, "OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run([sys.executable, "-m", "forevalkit.cli", "evaluate", "series.csv",
                        "forecasts.csv", "suite.json", "--out", name],
                       check=True, capture_output=True, env=env, cwd=tmp_path)
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


def record_collector(monkeypatch, outcome) -> list:
    """Replace ``advise`` with a command that records whether the collector is
    enabled, then returns or raises ``outcome``; return the records."""
    seen = []

    def cmd(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome
    monkeypatch.setattr(forevalkit.cli, "cmd_advise", cmd)
    return seen


class TestCollectorPaused:
    @pytest.mark.parametrize("outcome, code", [
        (0, 0), (ValidationError("bad config"), 2), (DataValidationError("bad data"), 3),
    ])
    def test_off_during_the_command_and_restored(self, monkeypatch, outcome, code):
        seen = record_collector(monkeypatch, outcome)
        assert gc.isenabled()
        assert main(["advise", "profile.json"]) == code
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_an_unexpected_exception(self, monkeypatch):
        seen = record_collector(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            main(["advise", "profile.json"])
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_that_disabled_it_keeps_it_disabled(self, monkeypatch):
        seen = record_collector(monkeypatch, 0)
        gc.disable()
        try:
            assert main(["advise", "profile.json"]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]


class TestProcessEntry:
    """``python -m forevalkit.cli`` runs ``cli.run``: ``main``, ``gc.freeze()``, exit."""

    SERIES = "series_id,timestamp,value\n" + "".join(f"{s},{t},{10 * k + t % 3}\n"
                                                     for k, s in enumerate("ab", 1) for t in range(1, 7))
    FORECASTS = "series_id,origin,step,model,forecast\n" + "".join(
        f"{s},4,{h},{m},{10 * k + h + j}\n" for j, m in enumerate(("m1", "m2"))
        for k, s in enumerate("ab", 1) for h in (1, 2))

    @staticmethod
    def outputs(path) -> dict:
        return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("forecasts, code", [
        (FORECASTS, 0),
        (None, 2),  # the forecasts file is missing
        (FORECASTS.replace("a,4,2,m1,12", "a,4,2,m1,nan"), 3),  # a non-finite forecast
    ])
    def test_same_as_main_in_process(self, tmp_path, monkeypatch, capsys, subprocess_env, forecasts, code):
        (tmp_path / "series.csv").write_text(self.SERIES)
        if forecasts is not None:
            (tmp_path / "forecasts.csv").write_text(forecasts)
        (tmp_path / "suite.json").write_text(json.dumps({"measures": ["MAE", "RMSE"]}))
        argv = ["evaluate", "series.csv", "forecasts.csv", "suite.json", "--out", "out"]
        proc = subprocess.run([sys.executable, "-m", "forevalkit.cli", *argv], capture_output=True,
                              text=True, env=subprocess_env, cwd=tmp_path)
        child = (proc.returncode, proc.stdout, proc.stderr, self.outputs(tmp_path / "out"))
        shutil.rmtree(tmp_path / "out")
        monkeypatch.chdir(tmp_path)
        in_process = (main(argv), *capsys.readouterr(), self.outputs(tmp_path / "out"))
        assert gc.get_freeze_count() == 0  # only ``run`` freezes
        assert child == in_process
        assert child[0] == code
        assert child[2].count("\n") == (code != 0) and child[2].startswith("error: " if code else "")
        assert bool(child[3]) == (code == 0)  # output files only on success

    def test_run_freezes_after_main_then_exits_with_its_code(self, monkeypatch):
        calls = []

        def fake_main():
            calls.append(gc.get_freeze_count())
            return 3
        monkeypatch.setattr(forevalkit.cli, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            forevalkit.cli.run()
        assert exc.value.code == 3
        assert calls == [0, "freeze"]
