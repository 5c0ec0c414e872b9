"""Call spans for the traced pass, recorded by wrapping forevalkit's public
functions in place. Nothing under ``src/`` is edited.

A wrapped function replaces the original in its defining module and in every
loaded ``forevalkit`` module that imported the name (``cli`` imports most of
them; ``measures.engine`` calls ``evaluate`` recursively through its own
global). Methods are replaced on their class.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter, defaultdict


def _rows_read(counters, args, kwargs, result):
    counters["io.rows_read"] += sum(len(s) for s in result) if hasattr(result, "series") else len(result)


def _bytes_written(counters, args, kwargs, result):
    counters["io.bytes_written"] += os.path.getsize(args[0])


def _folds(counters, args, kwargs, result):
    counters["partition.folds"] += len(result)


# (module, attribute, span name, counter hook). "Class.method" patches the class.
TARGETS = [
    ("forevalkit.cli", "main", "cli.main", None),
    *[("forevalkit.cli", f"cmd_{c}", f"cli.cmd_{c}", None)
      for c in ("evaluate", "backtest", "compare", "advise", "simulate", "pitfalls")],
    ("forevalkit.io", "read_series_csv", "io.read_series_csv", _rows_read),
    ("forevalkit.io", "read_forecast_csv", "io.read_forecast_csv", _rows_read),
    ("forevalkit.io", "build_frame", "io.build_frame", None),
    ("forevalkit.io", "write_series_csv", "io.write_series_csv", _bytes_written),
    ("forevalkit.io", "write_matrix_csv", "io.write_matrix_csv", _bytes_written),
    ("forevalkit.io", "write_folds_csv", "io.write_folds_csv", _bytes_written),
    ("forevalkit.core", "EvaluationFrame.__init__", "core.EvaluationFrame.init", None),
    ("forevalkit.core", "EvaluationFrame.align_benchmark", "core.EvaluationFrame.align_benchmark", None),
    ("forevalkit.core", "benchmark_frame", "core.benchmark_frame", None),
    ("forevalkit.measures.engine", "evaluate", "measures.evaluate", None),
    ("forevalkit.measures.ranking", "rank_models", "measures.rank_models", None),
    ("forevalkit.partition", "splits_for_series", "partition.splits_for_series", _folds),
    ("forevalkit.partition", "leakage_check", "partition.leakage_check", None),
    *[("forevalkit.stats", f, f"stats.{f}", None)
      for f in ("diebold_mariano", "wilcoxon_rank_sum", "friedman", "nemenyi_cd", "p_adjust",
                "cd_diagram_data", "render_cd_text", "render_cd_svg")],
    ("forevalkit.synth", "generate", "synth.generate", None),
    ("forevalkit.advisor", "recommend_measures", "advisor.recommend_measures", None),
    ("forevalkit.advisor", "recommend_partitioning", "advisor.recommend_partitioning", None),
    ("forevalkit.pitfalls", "run_all", "pitfalls.run_all", None),
]

# Span name whose outermost calls are captured with their arguments, so the
# breakdown calls can be replayed pooled (see ``pooled_replay_s``).
CAPTURED = "measures.evaluate"


class Tracer:
    """Records spans in memory as parallel columns: ``names``, ``starts``,
    ``ends``, ``parents`` (index of the enclosing span, -1 at the root) and
    ``invocations`` (the id the caller set before each CLI invocation).

    Columns of strings, floats and ints add no objects for the garbage
    collector to track, so tracing does not change how often it runs.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.invocations: list[int] = []
        self.counters: Counter = Counter()
        self.captured: list[tuple] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        names, starts, ends, parents, invocations = (
            self.names, self.starts, self.ends, self.parents, self.invocations)
        stack, clock = self._stack, time.perf_counter
        capture = name == CAPTURED

        def wrapper(*args, **kwargs):
            idx = len(names)
            if capture and kwargs.get("breakdown") and not any(names[i] == name for i in stack):
                self.captured.append((idx, args, kwargs))
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            invocations.append(self.invocation)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "forevalkit" or n.startswith("forevalkit.")]
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_jsonl(self, path, pass_id: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, inv in zip(
                    self.names, self.starts, self.ends, self.parents, self.invocations):
                fh.write(json.dumps({"pass": pass_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv}) + "\n")

    def summarise(self) -> dict:
        """Per span name: call count, self time, and outermost inclusive time.

        Self time is a span's duration minus that of its direct children; the
        outermost inclusive time skips spans nested in a span of the same
        name, so recursion is not counted twice.
        """
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for i, name in enumerate(names):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                entry["incl_s"] += dur[i]
        return out

    def captured_s(self) -> float:
        """Inclusive time of the captured ``breakdown=True`` calls."""
        return sum(self.ends[i] - self.starts[i] for i, _, _ in self.captured)


def pooled_replay_s(captured) -> float:
    """Time the captured ``breakdown=True`` calls again with ``breakdown=False``."""
    from forevalkit.measures import engine

    t0 = time.perf_counter()
    for _, args, kwargs in captured:
        engine.evaluate(*args, **{**kwargs, "breakdown": False})
    return time.perf_counter() - t0


def scale_exponent(t_small: float, t_large: float, size_ratio: float) -> float:
    """Log-log slope of time against input size; 0 when either time is missing."""
    if t_small <= 0 or t_large <= 0:
        return 0.0
    return math.log(t_large / t_small) / math.log(size_ratio)
