"""Fixed reference work that gauges the host's current speed.

    python3 perfbench/reference.py

It does what a forevalkit CLI invocation does, without forevalkit: start an
interpreter, import numpy and scipy.stats, parse CSV rows into per-series
arrays, run small-array numpy work per series, and encode JSON. ``run.py``
times it before every timed piece of work and scales that work's time by
``REF_S / reference time``. Its inputs never change, so its time moves only
with the host, never with the program under test.
"""

import csv
import io
import json

import numpy as np
import scipy.stats  # noqa: F401  (its import is a large part of every invocation)

ROWS, SERIES, LAGS = 20_000, 200, 10

rng = np.random.default_rng(0)
buf = io.StringIO()
writer = csv.writer(buf)
for i in range(ROWS):
    writer.writerow([f"s{i % SERIES:03d}", i % 60, repr(float(rng.normal()))])
rows = {}
for sid, _, value in csv.reader(io.StringIO(buf.getvalue())):
    rows.setdefault(sid, []).append(float(value))
out = {}
for sid, values in rows.items():
    a = np.asarray(values)
    for k in range(LAGS):
        out[f"{sid}/{k}"] = float(np.abs(a[k:] - a[:len(a) - k].mean()).mean())
json.dumps(out)
