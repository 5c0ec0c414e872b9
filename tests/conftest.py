import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import forevalkit
from forevalkit import EvaluationFrame

# CI runs derandomized, so a property that fails there fails the same way on a
# checkout run with CI set; print_blob prints the failing example for replay.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_frame(rng, n_series=None, n_steps=None, with_origins=1):
    """Random small evaluation frame plus matching oracle-format inputs.

    Actuals and forecasts are positive and continuous, so no denominator is
    exactly zero and the log-error domain holds. Returns (frame, rows,
    benchmark_map, benchmark_frame_column, train, weights).
    """
    n_series = n_series or int(rng.integers(1, 6))
    n_steps = n_steps or int(rng.integers(2, 9))  # >= 2 keeps per-series correlation defined
    sids, origins, steps, actuals, fc, bench_col = [], [], [], [], [], []
    rows = []
    bench_map = {}
    train = {}
    for s in range(n_series):
        sid = f"s{s}"
        train[sid] = rng.uniform(0.5, 10.0, size=int(rng.integers(10, 31)))
        for o in range(with_origins):
            origin = 50 + o
            for k in range(1, n_steps + 1):
                # strictly positive and atom-free, so log errors stay in
                # domain and no variance or benchmark error is exactly zero
                y = float(rng.uniform(0.5, 10.0))
                f = abs(float(y + rng.normal(0, 2.0))) + 0.01
                b = abs(float(y + rng.normal(0, 2.0))) + 0.02
                sids.append(sid)
                origins.append(origin)
                steps.append(k)
                actuals.append(y)
                fc.append(f)
                bench_col.append(b)
                rows.append((sid, origin, k, y, f))
                bench_map[(sid, origin, k)] = b
    frame = EvaluationFrame(sids, origins, steps, actuals, {"model": np.array(fc)})
    bench_frame = EvaluationFrame(sids, origins, steps, actuals, {"bench": np.array(bench_col)})
    weights = rng.uniform(0.1, 2.0, size=len(rows))
    return frame, rows, bench_map, bench_frame, train, weights


@pytest.fixture
def rng():
    return np.random.default_rng(20240508)


@pytest.fixture
def subprocess_env():
    """The environment with the imported package's directory on PYTHONPATH, so a
    child interpreter imports the same forevalkit as the tests."""
    src = str(Path(forevalkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
