"""Reach check: every executable line of ``src/`` runs under the Tier-1 suite.

Run from the repository root::

    python tests/reach.py

It runs the Tier-1 suite in this process under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``), then lists every executable
line of ``src/`` that no test reached. It exits with pytest's status if a
test fails, 1 if a line is unreached and not on ``ALLOWED``, or if an
``ALLOWED`` entry names a line that ran or its text matches no single line
of its file, and 0 otherwise. Executable lines are the line numbers in
``co_lines()`` of each module's compiled code objects, nested ones
included, so the count depends on the interpreter version; ``ALLOWED`` is
kept for Python 3.11, which CI checks reach on. The suite runs about twice
as long under the tracer. This file is not collected by pytest, which
collects only ``test_*.py``.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Lines that cannot run in the test process: (path under src/, the line's
# source text with indentation stripped, why it cannot run). The text must
# name exactly one line of the file.
ALLOWED = [
    ("forevalkit/__init__.py",
     'raise ModuleNotFoundError("forevalkit needs numpy, which is not installed", name="numpy")',
     "runs only in an interpreter without numpy"),
    ("forevalkit/cli.py", 'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
     "runs only before numpy's first import, which in a test process comes first; "
     "a CLI child process runs it"),
    ("forevalkit/cli.py", "run()",
     "runs only as __main__, in a CLI child process"),
    ("forevalkit/advisor.py", "from .stats import TestResult",
     "a TYPE_CHECKING import, read by type checkers only"),
    ("forevalkit/measures/ranking.py", "from .engine import WeightVector",
     "a TYPE_CHECKING import, read by type checkers only"),
    ("forevalkit/measures/registry.py",
     'raise AssertionError("duplicate measure name in registry")',
     "an import-time check on the constant measure table, which runs only if the table is edited wrong"),
    ("forevalkit/measures/registry.py",
     'raise AssertionError("a measure constant without a declared type and domain")',
     "an import-time check on the constant measure table, which runs only if the table is edited wrong"),
]


def code_lines(code):
    """Line numbers of `code`'s own instructions (line 0 is a module's start)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path):
    """Line numbers of every code object compiled from `path`, nested included."""
    lines, stack = set(), [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Tracer:
    """Line events of code compiled from `files` ({absolute path: key})."""

    def __init__(self, files):
        self.files = files
        self.keys = {}  # co_filename -> key, or None for code outside src/
        self.pending = {}  # code object -> its lines not yet reached

    def __call__(self, frame, event, arg):
        code = frame.f_code
        todo = self.pending.get(code)
        if todo is None:
            name = code.co_filename
            if name not in self.keys:
                self.keys[name] = self.files.get(os.path.realpath(name))
            if self.keys[name] is None:
                return None
            todo = self.pending[code] = code_lines(code)
        if not todo:
            return None  # every line of this code object has run
        todo.discard(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
            return local

        return local

    def reached(self):
        """{key: reached line numbers}."""
        out = {}
        for code, todo in self.pending.items():
            key = self.keys[code.co_filename]
            out.setdefault(key, set()).update(code_lines(code) - todo)
        return out


def allowed_lines(sources, entries):
    """{(key, line number): reason} of `entries`, and the entries that name no single line."""
    allowed, bad = {}, []
    for key, text, reason in entries:
        hits = [i for i, src in enumerate(sources.get(key, []), 1) if src.strip() == text]
        if len(hits) == 1:
            allowed[key, hits[0]] = reason
        else:
            bad.append(f"{key}: allowed text {text!r} names {len(hits)} lines, not 1")
    return allowed, bad


def modules():
    """{path under src/: path} of every module."""
    return {p.relative_to(SRC).as_posix(): p for p in sorted(SRC.rglob("*.py"))}


def check(reached, entries=ALLOWED):
    """The report of a run that reached `reached` ({key: line numbers}), as lines,
    and its problems: unreached lines not in `entries`, entries whose line ran,
    and entries that name no single line."""
    paths = modules()
    sources = {key: path.read_text().splitlines() for key, path in paths.items()}
    allowed, problems = allowed_lines(sources, entries)
    report = ["reach: executable and unreached lines per module"]
    n_lines = n_unreached = 0
    for key, path in paths.items():
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(key, set()))
        n_lines += len(lines)
        n_unreached += len(missed)
        report.append(f"  {key:34} {len(lines):5} {len(missed):4}")
        for line in missed:
            text = sources[key][line - 1].strip()
            if (key, line) in allowed:
                report.append(f"    {line:4}: {text}    [allowed: {allowed[key, line]}]")
            else:
                report.append(f"    {line:4}: {text}")
                problems.append(f"{key}:{line} unreached: {text}")
        problems += [f"{k}:{line} is allowed but ran: {sources[k][line - 1].strip()}"
                     for (k, line) in allowed if k == key and line not in missed]
    report.append(f"reach: {n_unreached} of {n_lines} executable lines unreached, {len(allowed)} allowed")
    return report, problems


def main():
    os.environ.setdefault("CI", "1")  # conftest.py's derandomized profile: the same examples, so the same lines
    tracer = Tracer({os.path.realpath(p): key for key, p in modules().items()})
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"reach: the suite failed (pytest exit {status})")
        return int(status)
    report, problems = check(tracer.reached())
    print("", *report, *(f"reach: {problem}" for problem in problems), sep="\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
