"""pytest plugin: a test whose call runs longer than LIMIT_S fails.

    PYTHONPATH=tools python -m pytest -p time_limit ...

tools/mutate.py loads it, so that a mutant which makes a test loop forever
is killed after LIMIT_S rather than after the tool's TIMEOUT_S for the whole
run.  The alarm raises a BaseException that is neither an Exception nor a
SystemExit, so hypothesis neither replays nor shrinks the example it stopped.
POSIX only (SIGALRM).
"""
import signal

import pytest

#: The slowest test of the suite takes 4-8 s unmutated (2-CPU x86-64,
#: Python 3.11).
LIMIT_S = 20


class CallTimeout(BaseException):
    """A test call ran longer than LIMIT_S."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise CallTimeout(f"{item.nodeid} ran longer than {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
