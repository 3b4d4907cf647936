"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """`with deadline(s):` fails its body with TimeoutError after s seconds.

    For calls that must return at once on inputs where a slower check
    would never return; SIGALRM interrupts a pure-Python loop.
    """
    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"no return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within
