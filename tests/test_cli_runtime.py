"""The CLI's process settings: one BLAS thread per command, and the cyclic
garbage collector paused while a command runs."""

import gc
import json
import os
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


class TestBlasPin:
    def test_one_thread_in_every_pool(self, unpinned_env):
        threads, added = probe("import forevalkit.cli; import scipy.special", unpinned_env)
        assert set(threads.values()) == {1}, threads
        assert added == ["OPENBLAS_NUM_THREADS"]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_holds(self, unpinned_env, variable):
        env = {**unpinned_env, variable: "2"}
        threads, added = probe("import forevalkit.cli; import scipy.special", env)
        assert added == []
        # OpenBLAS caps the request at the host's CPU count, so compare with no forevalkit
        assert threads == probe("import numpy; import scipy.special", env)[0]

    def test_numpy_loaded_first_is_left_alone(self, unpinned_env):
        threads, added = probe("import numpy; import forevalkit.cli", unpinned_env)
        assert added == []
        assert threads == probe("import numpy", unpinned_env)[0]


def test_corr_report_independent_of_host_threads(tmp_path, unpinned_env):
    """CORR's per-series dot products run over 11,856 rows each, past the size
    at which a threaded OpenBLAS splits a dot and rounds differently. On a
    1-CPU host both runs use one thread, so there this cannot fail."""
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
