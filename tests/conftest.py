"""Fixtures shared by the test modules."""

import contextlib
import importlib.util
import signal
import sys
from pathlib import Path

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


@pytest.fixture(scope="session")
def bench_corpus():
    """bench/corpus.py, the benchmark's frozen job corpus, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
