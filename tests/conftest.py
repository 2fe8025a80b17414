"""Shared fixtures and the acceptance-criteria summary.

Tests marked @pytest.mark.acceptance(n, title) are aggregated per criterion
number, and the terminal summary prints one pass/fail line for each.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from morpheq import repsearch

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

_results: dict[int, dict[str, object]] = {}


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def force_pool(monkeypatch):
    """Search with jobs above one starts its pool before the first task, so a
    test of the pool does not pass in process."""
    monkeypatch.setattr(repsearch, "POOL_NODES", 0)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


# Inputs whose powers pass words.POWER_LIMIT: a 50-byte Fibonacci
# certificate at exponents (34, 34), and a 1550-byte problem, 256-uniform
# against 512-uniform, that the prover scales by (9, 8).
FIB_CERTIFICATE_P34 = "2\n01\n0\n01\n" * 2 + "34 34 general\n2\n0\n0\n0 1\n1\n1\n0\n"
UNIFORM_256_512 = (
    "2\n0" + "1" * 255 + "\n" + "1" * 256 + "\n01\n"
    "2\n0" + "1" * 511 + "\n" + "1" * 512 + "\n01\n"
)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None or report.when != "call":
        return
    number = marker.args[0]
    title = marker.args[1] if len(marker.args) > 1 else ""
    entry = _results.setdefault(number, {"title": title, "passed": True, "ran": 0})
    entry["ran"] += 1
    if report.outcome != "passed":
        entry["passed"] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        entry = _results[number]
        verdict = "PASS" if entry["passed"] else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict}  {entry['title']}")
