"""Shared pytest plumbing: fail a test on any RuntimeWarning (an overflow or
an invalid value must raise where it arises, not run on), and surface the
acceptance verdict lines in the terminal summary despite output capture."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _HERE in Path(item.fspath).parents:  # this directory's tests only
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests import test_acceptance
    except ImportError:
        try:
            import test_acceptance
        except ImportError:
            return
    lines = getattr(test_acceptance, "VERDICT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
