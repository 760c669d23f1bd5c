"""A time limit on every test: a test still running TEST_TIME_LIMIT_S
seconds after its call began fails there, so a test that loops forever
ends the run instead of holding it.  The limit is a real-time timer
(signal.setitimer), so it stops Python code and blocking waits, but not
one long computation inside a C call, such as a huge integer product."""
import signal

import pytest

TEST_TIME_LIMIT_S = 120.0  # well above the slowest test, about 3 s on a 2-vCPU VM


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return
    limit = TEST_TIME_LIMIT_S

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the time limit of {limit:g} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
