"""
The batch pipeline, end to end
==============================

Everything the library does is also scriptable through the command line,
with a manifest written next to every run. This demo builds a scratch
workspace, then chains simulate -> evaluate -> compare -> advise ->
pitfalls exactly as a shell user would.
"""

import atexit
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def run(*args):
    cmd = [sys.executable, "-m", "forevalkit.cli", *args]
    print("$ forevalkit", " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="")
        raise SystemExit(proc.returncode)


# removed when the script exits, also after a failed step
workspace = tempfile.TemporaryDirectory(prefix="forevalkit-demo-")
atexit.register(workspace.cleanup)
work = Path(workspace.name)
print("workspace:", work, "\n")

# --- simulate three random-walk series -------------------------------------

for i, sid in enumerate(("u", "v", "w")):
    (work / f"dgp_{sid}.json").write_text(json.dumps({
        "kind": "random-walk", "length": 40, "seed": 100 + i,
        "level": 50.0, "series_id": sid,
    }))
    run("simulate", str(work / f"dgp_{sid}.json"), str(work / f"{sid}.csv"))

# merge the per-series files into one long-form CSV
lines = ["series_id,timestamp,value"]
for sid in ("u", "v", "w"):
    lines += (work / f"{sid}.csv").read_text().splitlines()[1:]
(work / "series.csv").write_text("\n".join(lines) + "\n")

# --- write external forecasts for two models --------------------------------

rng = np.random.default_rng(0)
rows = ["series_id,origin,step,model,forecast"]
values = {}
for sid in ("u", "v", "w"):
    values[sid] = [float(line.split(",")[2])
                   for line in (work / f"{sid}.csv").read_text().splitlines()[1:]]
for sid, vals in values.items():
    for k in range(1, 7):
        actual = vals[30 + k - 1]
        rows.append(f"{sid},30,{k},sharp,{actual + rng.normal(0, 0.4):.6f}")
        rows.append(f"{sid},30,{k},blunt,{actual + rng.normal(0, 3.0):.6f}")
(work / "forecasts.csv").write_text("\n".join(rows) + "\n")

# --- evaluate under a suite, then compare the two models --------------------

(work / "suite.json").write_text(json.dumps({
    "measures": ["MAE", "RMSE", "sMAPE", "MASE", "MRAE"],
    "benchmark": "naive",
    "policy": "skip",
}))
run("evaluate", str(work / "series.csv"), str(work / "forecasts.csv"),
    str(work / "suite.json"), "--out", str(work / "eval"))

(work / "test.json").write_text(json.dumps({
    "measure": "RMSE", "alpha": 0.05, "pairwise": "dm", "adjust": "holm",
}))
run("compare", str(work / "eval" / "report.json"),
    "--config", str(work / "test.json"), "--out", str(work / "cmp"))
print((work / "cmp" / "cd.txt").read_text())

# --- advice and the pitfall gate ---------------------------------------------

(work / "profile.json").write_text(json.dumps({
    "unit_roots": True, "series_lengths": [40], "model_class": "pure-AR",
}))
run("advise", str(work / "profile.json"), "--out", str(work / "adv"))

run("pitfalls", "corr-ignores-constant-bias", "--out", str(work / "pit"))

manifest = json.loads((work / "eval" / "manifest.json").read_text())
print("\nevaluate manifest config hash:", manifest["config_hash"][:16], "...")
print("inputs hashed:", len(manifest["inputs"]))
