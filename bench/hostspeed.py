"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a small VM that shares its host with other tenants.
There the speed of a fixed pure-Python loop swings by a third from one
second to the next and drifts over minutes, so raw wall times of the
same code spread far wider than any useful regression bound.  Every
timing is therefore taken together with the host's speed at that moment:
a fixed unit of pure-Python work (``unit``, which uses nothing from the
package) is timed around and inside the measured interval, and the
interval's wall time, less the units run inside it, is scaled by
``REF_UNIT_S`` / (mean CPU time of a unit).  The result reads as the
seconds the work would take on the host at its reference speed: a change
to the package moves it, the host's weather mostly does not.

Work in this process is sampled by a SIGALRM timer (``sampling``) that
runs one unit every ``PERIOD_S``.  A child process runs under
``sampled.py``, which arms the same timer in the processes of the child
that do the work and logs their units to files (``arm``, ``load``).
Around every timed interval the benchmark also runs short bursts of
units (``burst``) while nothing else of it runs.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import os
import signal
import statistics
import time
from fractions import Fraction
from pathlib import Path

# Median CPU time of one unit on the reference host (a 2-core x86-64 VM at
# 2.1 GHz) over 20 s of back-to-back units.  Any fixed value would do;
# this one makes a normalised time read close to wall seconds there.
REF_UNIT_S = 0.0005

# one unit every PERIOD_S while sampling: about 2.5 % of the time
PERIOD_S = 0.02
# samples taken on each side of an interval, besides those inside it
SIDE = 3

_A = [(i * 7919) % 1000003 for i in range(34)]
_B = [(i * 104729) % 1000003 for i in range(34)]


def unit() -> int:
    """About half a millisecond of the kind of work the package does:
    integer convolution, dict updates and Fraction arithmetic."""
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    d: dict[int, int] = {}
    for k in range(750):
        d[k % 97] = d.get(k % 97, 0) + k * k
    f = Fraction(0)
    for k in range(1, 60):
        f += Fraction(1, k)
    return out[5] + len(d) + f.numerator % 7


def _timed_unit() -> tuple[float, float]:
    """When a unit started (perf_counter) and the CPU time it took.  CPU
    time, not wall time: a unit in a pool worker that waits for a core
    while the batch process runs would otherwise read as a slow host."""
    start = time.perf_counter()
    cpu = time.thread_time()
    unit()
    return start, time.thread_time() - cpu


class HostSpeed:
    """Timed units over a run, and the intervals they normalise."""

    def __init__(self, logs: Path) -> None:
        # where processes under sampled.py log their units
        self.logs = logs
        logs.mkdir(exist_ok=True)
        self._starts: list[float] = []
        self._durations: list[float] = []

    def sample(self, *_) -> None:
        start, duration = _timed_unit()
        self._starts.append(start)
        self._durations.append(duration)

    def burst(self) -> None:
        """Run SIDE units back to back, now."""
        for _ in range(SIDE):
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """One unit every PERIOD_S while open, and a burst at each end."""
        self.burst()
        saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, saved)
        self.burst()

    def load(self) -> None:
        """Add the units that processes under ``sampled.py`` logged."""
        pairs = list(zip(self._starts, self._durations))
        for log in self.logs.glob("*.txt"):
            for line in log.read_text().splitlines():
                start, duration = line.split()
                pairs.append((float(start), float(duration)))
            log.unlink()
        pairs.sort()
        self._starts = [s for s, _ in pairs]
        self._durations = [d for _, d in pairs]

    def seconds(self, t0: float, t1: float, subtract: bool = True) -> float:
        """Wall time from t0 to t1 at the reference speed: scaled by the
        mean unit time inside the interval and of the SIDE units on each
        side of it.  With `subtract`, the units inside ran in the timed
        thread itself, and their time is taken off first."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        inside = self._durations[lo:hi]
        near = (self._durations[max(0, lo - SIDE):lo] + inside
                + self._durations[hi:hi + SIDE])
        if not near:
            raise RuntimeError("no host-speed sample near a timed interval")
        busy = sum(inside) if subtract else 0.0
        return (t1 - t0 - busy) * REF_UNIT_S / statistics.fmean(near)

    def median_unit_s(self) -> float:
        return statistics.median(self._durations)


def arm(directory: str) -> None:
    """Sample this process from now on, logging each unit to
    ``directory/<pid>.txt`` as "start duration" in perf_counter seconds
    (a clock shared by every process of the machine)."""
    fd = os.open(os.path.join(directory, f"{os.getpid()}.txt"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def sample(*_) -> None:
        start, duration = _timed_unit()
        os.write(fd, f"{start!r} {duration!r}\n".encode())

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    # disarm before shutdown restores the default action, which kills
    atexit.register(signal.setitimer, signal.ITIMER_REAL, 0)
