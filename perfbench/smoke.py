"""Smallest-size smoke check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on the smallest inputs
(a few series each), checks that every metric BENCHMARK.json names is
emitted with its unit, and that every output check passed. Exits non-zero
otherwise. Takes about a minute; it does not run the 250/1000-series
scaling probe, so the ``scale_exp`` metrics read 0 here.
"""

from __future__ import annotations

import json
import sys

import run

SMALLEST = {"evaluate-wide": {"n_series": 8}, "backtest-deep": {"n_series": 1},
            "compare-chain": {"n_series": 12}}


def main() -> int:
    if not (run.SRC / "forevalkit" / "cli.py").is_file():
        print(f"smoke: no forevalkit sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, seed=1, seconds=0.0, trace=trace, **SMALLEST[name])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: outputs failed the checks")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
