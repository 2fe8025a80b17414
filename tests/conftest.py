"""Shared fixtures and the acceptance-criteria summary.

Tests marked @pytest.mark.acceptance(n, title) are aggregated per criterion
number, and the terminal summary prints one pass/fail line for each.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
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


# Starts the child and reports its exit code, wall time and peak RSS in KiB.
# A child's peak RSS counts the pages of the process it was forked from, so
# the child is forked from this small launcher, not from the test process.
_LAUNCHER = """
import os, resource, sys, time
report, cap, *args = sys.argv[1:]
resource.setrlimit(resource.RLIMIT_AS, (int(cap), int(cap)))
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(report, "w") as file:
    file.write(f"{os.waitstatus_to_exitcode(status)} {time.perf_counter() - start} {usage.ru_maxrss}")
"""


def run_limited(args: list[str], cap: int) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run the Python interpreter on args in a child process with cap bytes of
    address space and morpheq's source on its path.

    Returns the completed process with its text output, its wall time in
    seconds, and its own peak resident set size in MiB, from os.wait4.
    """
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        launched = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, str(report), str(cap), *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src")},
        )
        assert launched.returncode == 0, launched.stderr
        code, seconds, kib = report.read_text().split()
    result = subprocess.CompletedProcess(args, int(code), launched.stdout, launched.stderr)
    return result, float(seconds), int(kib) / 1024


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
