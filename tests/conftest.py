"""Terminal summary: one pass/fail line per acceptance criterion.  A
per-test wall-clock limit: a test whose call runs past TEST_TIME_LIMIT_S
fails, so a fault that makes a loop run for ever fails one test instead of
stalling the run (POSIX only: SIGALRM through signal.setitimer)."""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes a few seconds

_acceptance_results = {}


def _past_time_limit(signum, frame):
    pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s time limit", pytrace=False)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _past_time_limit)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" in report.nodeid:
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome = _acceptance_results[nodeid]
        label = "PASS" if outcome == "passed" else outcome.upper()
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"[{label}] {name}")
