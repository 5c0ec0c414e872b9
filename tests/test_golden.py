"""Every output of a fixed set of small seeded CLI runs has the digest on record
in ``tests/golden/digests.json``; ``tests/golden/make_digests.py`` rewrites it."""

import json

from golden.make_digests import DIGESTS_PATH, compute


def test_outputs_match_the_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    actual = compute(tmp_path)
    changed = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    assert (changed, sorted(expected.keys() - actual.keys()), sorted(actual.keys() - expected.keys())) \
        == ([], [], []), "changed, missing and new outputs; rerun tests/golden/make_digests.py if intended"
