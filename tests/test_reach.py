"""The reach check's verdicts (``tests/reach.py``), on made-up sets of reached lines."""

import reach


def _every_line():
    return {key: reach.executable_lines(path) for key, path in reach.modules().items()}


def _allowed():
    sources = {key: path.read_text().splitlines() for key, path in reach.modules().items()}
    allowed, bad = reach.allowed_lines(sources, reach.ALLOWED)
    assert not bad
    return allowed


def test_each_allowlist_entry_names_one_line_and_gives_a_reason():
    assert len(_allowed()) == len(reach.ALLOWED) <= 6
    assert all(reason for _, _, reason in reach.ALLOWED)


def test_only_the_allowed_lines_unreached_passes():
    reached = _every_line()
    for key, line in _allowed():
        reached[key].discard(line)
    report, problems = reach.check(reached)
    assert problems == []
    assert report[-1].endswith(f"{len(reach.ALLOWED)} of {sum(map(len, _every_line().values()))} "
                               f"executable lines unreached, {len(reach.ALLOWED)} allowed")


def test_an_unreached_line_fails():
    reached = _every_line()
    for key, line in _allowed():
        reached[key].discard(line)
    line = min(reached["forevalkit/stats.py"])
    reached["forevalkit/stats.py"].discard(line)
    _, problems = reach.check(reached)
    assert problems == [f"forevalkit/stats.py:{line} unreached: "
                        f"{reach.modules()['forevalkit/stats.py'].read_text().splitlines()[line - 1].strip()}"]


def test_an_allowed_line_that_ran_fails():
    _, problems = reach.check(_every_line())
    assert len(problems) == len(reach.ALLOWED)
    assert all(" is allowed but ran: " in problem for problem in problems)


def test_an_entry_naming_no_single_line_fails():
    entries = [("forevalkit/cli.py", "no such line", "a reason"), ("forevalkit/cli.py", "return EXIT_OK", "a reason")]
    _, problems = reach.check(_every_line(), entries)
    assert problems[0] == "forevalkit/cli.py: allowed text 'no such line' names 0 lines, not 1"
    assert problems[1].startswith("forevalkit/cli.py: allowed text 'return EXIT_OK' names ")
    assert len(problems) == 2
