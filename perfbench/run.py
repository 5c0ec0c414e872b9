"""forevalkit CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn. Each workload is a closed loop: one client runs one
``python -m forevalkit.cli`` invocation at a time.

``--trace 0`` times whole passes in child processes and reports the
end-to-end metrics, scaled to a fixed host speed (see ``reference.py``).
``--trace 1`` runs the passes in this process with forevalkit's public
functions wrapped (see ``tracer.py``) and reports the per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a forevalkit checkout; the program is imported from
``src/``. Scratch files go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_REPEATS = 5        # setup_s is the median of at least this many input builds,
SETUP_MIN_S = 1.0        # and of as many more as fit in this many seconds
IMPORT_REPEATS = 3       # cli.import_s is the median of this many fresh interpreters
SCALE_SMALL = 250        # evaluate-wide series count for the scaling probe
SCALE_LARGE = 1000

NAMES = ["evaluate-wide", "backtest-deep", "compare-chain"]
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Input sizes of the timed passes that differ from the workload's own. The
# cost of evaluate-wide grows with the square of the series count; at 500
# series a run holds several passes. The traced pass keeps the full size.
E2E_SIZE = {"evaluate-wide": {"n_series": 500}}

REFERENCE = Path(__file__).resolve().parent / "reference.py"
REF_S = 1.5              # typical wall time of reference.py on the reference machine

# Functions whose outermost inclusive time the evaluate-wide scaling probe fits.
SCALED = ("measures.evaluate", "core.EvaluationFrame.align_benchmark", "io.build_frame",
          "core.benchmark_frame")


def _per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {"cli.import_s": "s", "cli.self_s": "s", "cli.invocations": "count"}
    for f in ("read_series_csv", "read_forecast_csv", "build_frame", "write_series_csv",
              "write_matrix_csv", "write_folds_csv"):
        units[f"io.{f}.s"] = "s"
    units.update({"io.rows_read": "count", "io.bytes_written": "bytes"})
    for f in ("EvaluationFrame.init", "EvaluationFrame.align_benchmark", "benchmark_frame"):
        units.update({f"core.{f}.s": "s", f"core.{f}.calls": "count"})
    units.update({"measures.evaluate.s": "s", "measures.evaluate.calls": "count",
                  "measures.rank_models.s": "s", "measures.breakdown_over_pooled": "ratio"})
    for f in ("splits_for_series", "leakage_check"):
        units.update({f"partition.{f}.s": "s", f"partition.{f}.calls": "count"})
    units["partition.folds"] = "count"
    units.update({"stats.diebold_mariano.s": "s", "stats.diebold_mariano.calls": "count"})
    for f in ("wilcoxon_rank_sum", "friedman", "nemenyi_cd", "p_adjust", "render_cd"):
        units[f"stats.{f}.s"] = "s"
    units.update({"synth.generate.s": "s", "synth.generate.calls": "count",
                  "advisor.recommend_measures.s": "s",
                  "advisor.recommend_partitioning.s": "s", "pitfalls.run_all.s": "s"})
    units["trace.overhead_frac"] = "ratio"
    for f in SCALED:
        units[f"{f}.scale_exp"] = "ratio"
    return units


# Metrics summed over several spans; any other "X.s" is the self time of span X.
SELF_GROUPS = {
    "cli.self_s": [f"cli.cmd_{c}" for c in
                   ("evaluate", "backtest", "compare", "advise", "simulate", "pitfalls")],
    "stats.render_cd.s": ["stats.cd_diagram_data", "stats.render_cd_text", "stats.render_cd_svg"],
}
COUNTERS = ("io.rows_read", "io.bytes_written", "partition.folds")


def environment() -> dict:
    import numpy
    import scipy

    blas_threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FOREVALKIT_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Tally:
    """Invocations attempted and failed (non-zero exit or a failed output check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, step, code: int, stdout: str, detail: str = "") -> None:
        self.attempted += 1
        problem = f"exit {code}: {detail.strip()[-500:]}" if code != 0 else None
        if problem is None:
            try:
                step.check(stdout)
            except Exception as exc:  # any check failure counts; report it and go on
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            print(f"FAILED {step.argv[0]}: {problem}", file=sys.stderr)


def clean(work: Path) -> Path:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def build(name: str, seed: int, work: Path, **size):
    from workloads import WORKLOADS

    return WORKLOADS[name](work, seed, **size)


def setup_median(name: str, seed: int, work: Path, **size):
    """Build the inputs repeatedly; return the last build, the median build time
    and the number of builds.

    Each build overwrites the last one's files, and starts from a collected heap.
    """
    clean(work)
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()
        t0 = time.perf_counter()
        wl = build(name, seed, work, **size)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times), len(times)


# --------------------------------------------------------------------------
# untraced: child processes
# --------------------------------------------------------------------------

def run_child(argv, work: Path):
    """One CLI invocation in a child process: (exit code, stdout, stderr, wall, cpu, maxrss MB)."""
    out_path, err_path = work / "_stdout.txt", work / "_stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "forevalkit.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_reference() -> float:
    """Wall time of one run of ``reference.py`` in a child process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def child_pass(wl, work: Path, tally: Tally) -> dict:
    """One pass: its raw wall and CPU time, each invocation's wall, and its peak RSS."""
    walls, cpu, rss = [], 0.0, 0.0
    for step in wl:
        code, out, err, w, c, r = run_child(step.argv, work)
        walls.append(w)
        cpu, rss = cpu + c, max(rss, r)
        tally.record(step, code, out, err)
    return {"wall_s": sum(walls), "cpu_s": cpu, "peak_rss_mb": rss, "walls": walls}


def run_untraced(name: str, seed: int, seconds: float, tally: Tally, **size) -> dict:
    """End-to-end metrics: medians over the timed passes of one run.

    The reference runs before the set-up and after it and every pass, so
    each of these is bracketed by two reference runs; its times are scaled
    by ``REF_S`` over their mean. Passes start while the next one is
    expected to end within ``seconds``; at least one always runs.
    """
    work = WORK / name
    size = {**E2E_SIZE.get(name, {}), **size}
    refs = [run_reference()]
    wl, setup_s, n_setups = setup_median(name, seed, work, **size)
    refs.append(run_reference())
    passes, took = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 + statistics.median(took) <= seconds:
        t_pass = time.perf_counter()
        passes.append(child_pass(wl, work, tally))
        refs.append(run_reference())
        took.append(time.perf_counter() - t_pass)
    scales = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
    print(f"{name}: setup_s is the median of {n_setups} builds; wall_s, cpu_s and "
          f"peak_rss_mb the median of {len(passes)} timed pass(es) of {len(wl)} "
          f"invocation(s). Raw invocation walls {[p['walls'] for p in passes]}; "
          f"reference walls {refs}")
    metrics = {k: statistics.median(p[k] * f for p, f in zip(passes, scales[1:]))
               for k in ("wall_s", "cpu_s")}
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    metrics["setup_s"] = setup_s * scales[0]
    return metrics


# --------------------------------------------------------------------------
# traced: in-process passes
# --------------------------------------------------------------------------

def inproc_pass(wl, tally: Tally, tracer=None) -> float:
    """Run the pass's invocations through ``cli.main`` in this process; return its wall time.

    The heap is collected first, so every pass starts from the same garbage
    collector state.
    """
    from forevalkit import cli

    gc.collect()
    total = 0.0
    for inv, step in enumerate(wl):
        if tracer is not None:
            tracer.invocation = inv
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(step.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, err = 1, io.StringIO(traceback.format_exc())
        total += time.perf_counter() - t0
        tally.record(step, code, out.getvalue(), err.getvalue())
    return total


def traced_pass(wl, tally: Tally, trace_path: Path, pass_id: int):
    """One traced pass: its wall time, span summary and per-layer metrics.

    The spans go to ``trace_path`` and are then dropped, so they do not
    weigh on the next pass.
    """
    from tracer import Tracer, pooled_replay_s

    tracer = Tracer()
    tracer.install()
    try:
        wall = inproc_pass(wl, tally, tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(trace_path, pass_id)
    summary = tracer.summarise()
    pooled_s = statistics.median(pooled_replay_s(tracer.captured) for _ in range(3))
    return wall, summary, layer_metrics(summary, tracer, pooled_s)


def inclusive_s(summary, span: str) -> float:
    return summary[span]["incl_s"] if span in summary else 0.0


def layer_metrics(summary, tracer, pooled_s: float) -> dict:
    def self_s(span):
        return summary[span]["self_s"] if span in summary else 0.0

    def calls(span):
        return summary[span]["calls"] if span in summary else 0

    out = {}
    for key in _per_layer_units():
        if key in SELF_GROUPS:
            out[key] = sum(self_s(s) for s in SELF_GROUPS[key])
        elif key.endswith(".calls"):
            out[key] = calls(key[:-len(".calls")])
        elif key.endswith(".s"):
            out[key] = self_s(key[:-len(".s")])
    out["cli.invocations"] = calls("cli.main")
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0)
    out["measures.breakdown_over_pooled"] = tracer.captured_s() / pooled_s if pooled_s > 0 else 0.0
    return out


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import forevalkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_traced(name: str, seed: int, tally: Tally, **size) -> tuple[dict, bool]:
    """Per-layer metrics and whether the exact counts repeated across traced passes."""
    from tracer import scale_exponent

    work = WORK / name
    wl = build(name, seed, clean(work), **size)
    trace_path = work / "trace.jsonl"
    trace_path.write_text("")
    metrics = {"cli.import_s": import_seconds()}

    inproc_pass(wl, tally)  # untimed warm-up: first-call costs land on neither side
    # untraced / traced / traced / untraced, so drift favours neither side
    plain = [inproc_pass(wl, tally)]
    traced = [traced_pass(wl, tally, trace_path, pass_id) for pass_id in (1, 2)]
    plain.append(inproc_pass(wl, tally))
    print(f"{name}: in-process pass walls untraced {plain}, traced {[t[0] for t in traced]}")

    per_pass = [t[2] for t in traced]
    exact = [k for k in per_pass[0] if k.endswith(".calls") or k in COUNTERS
             or k == "cli.invocations"]
    repeated = all(p[k] == per_pass[0][k] for p in per_pass for k in exact)
    if not repeated:
        diff = {k: [p[k] for p in per_pass] for k in exact if per_pass[0][k] != per_pass[1][k]}
        print(f"count guard: counts differ between traced passes: {diff}", file=sys.stderr)
    for key in per_pass[0]:
        metrics[key] = per_pass[0][key] if key in exact else statistics.median(
            p[key] for p in per_pass)
    metrics["trace.overhead_frac"] = (statistics.median(t[0] for t in traced)
                                      / statistics.median(plain) - 1.0)

    for f in SCALED:
        metrics[f"{f}.scale_exp"] = 0.0
    if name == "evaluate-wide" and size.get("n_series", SCALE_LARGE) == SCALE_LARGE:
        small_wl = build(name, seed, clean(WORK / f"{name}-{SCALE_SMALL}"), n_series=SCALE_SMALL)
        small = [traced_pass(small_wl, tally, trace_path, 10 + i)[1] for i in range(2)]
        for f in SCALED:
            t_small = statistics.median(inclusive_s(summary, f) for summary in small)
            t_large = statistics.median(inclusive_s(t[1], f) for t in traced)
            metrics[f"{f}.scale_exp"] = scale_exponent(t_small, t_large, SCALE_LARGE / SCALE_SMALL)
    return metrics, repeated


# --------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, **size) -> dict:
    import workloads  # noqa: F401  (imports forevalkit here, not inside the timed set-up)

    tally = Tally()
    if trace:
        values, repeated = run_traced(name, seed, tally, **size)
        units = _per_layer_units()
    else:
        values, repeated = run_untraced(name, seed, seconds, tally, **size), True
        units = E2E_UNITS
    print(f"{name}: error_rate {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    return {"correct": tally.failed == 0 and repeated, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "forevalkit" / "cli.py").is_file():
        print(f"perfbench: no forevalkit sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(environment()))
    names = NAMES if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for n, r in results.items():
        for key, m in r["metrics"].items():
            print(f"{n:15s} {key:45s} {m['value']:.6g} {m['unit']}")
        print(f"{n:15s} {'error_rate':45s} {r['failed'] / r['attempted']:.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
