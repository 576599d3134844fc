"""Host-speed reference: report host times at one fixed reference speed.

The shared host this benchmark was tuned on runs the same code at
speeds up to 2x apart, changing within a second and sometimes staying
slow for minutes.  No statistic over one run's raw timings removes a
slow stretch that lasts the whole run, so every host time the benchmark
registers is scaled to a reference speed instead:

* a fixed piece of pure-Python work (:func:`reference_work`, no
  simulator code, so no change to the simulator can move it) is timed every
  :data:`INTERVAL_S` seconds while a pass runs, from a ``SIGALRM``
  handler (:class:`Speedometer`);
* a timed window's host seconds, minus the reference samples taken
  inside it, are multiplied by :data:`REFERENCE_S` over the mean sample
  in the window (:meth:`Speedometer.scaled`).

The result reads "seconds on a host where a reference sample takes
:data:`REFERENCE_S`".  Samples land uniformly in time, so a window's
mean sample is the host's mean speed over that window.

A pass whose work runs in pool workers is sampled in the workers, where
the work runs: the benchmark process would share the cores with them,
and its samples would time the contention instead of the host.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

#: Seconds between reference samples while a pass runs.
INTERVAL_S = 0.05

#: Steps of the reference work: about 2 ms on an idle core of this host.
STEPS = 180

#: Nominal duration of one reference sample; scaled times are host
#: seconds on a host where a sample takes this long.  Samples taken
#: between slices of simulation run on colder caches than an idle
#: loop; 3 ms is about their typical duration on this host.
REFERENCE_S = 0.003


def reference_work(steps: int = STEPS) -> Fraction:
    """Exact rational arithmetic: short-lived objects and many calls.

    Like the simulator, it is allocation- and call-heavy interpreter
    work, and its timing follows the simulator's across the host's
    speeds about twice as closely as a tight arithmetic loop does.
    """
    x = Fraction(1, 3)
    for i in range(steps):
        x = (x * Fraction(i + 1, i + 2) + Fraction(1, 7)).limit_denominator(
            1000)
    return x


class Speedometer:
    """Samples the reference loop every :data:`INTERVAL_S` while active.

    Use :meth:`watch` around the timed part of a pass.  The samples
    (start, end) are kept across passes, so windows from several passes
    can be scaled afterwards.  With ``spool`` set, processes forked
    while it watches (the pool workers) sample instead of this one and
    append their samples to files there, read back by :meth:`collect`.
    """

    def __init__(self, spool: Optional[Path] = None):
        self.samples = []
        self.spool = spool
        self._log = None
        self._busy = False
        self._previous = None

    def take(self) -> None:
        """Take one sample now."""
        started = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self.samples.append((started, ended))
        if self._log is not None:
            self._log.write(f"{started!r} {ended!r}\n")

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a slow sample outlived the interval
            return
        self._busy = True
        try:
            self.take()
        finally:
            self._busy = False

    def _arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def watch(self):
        """Sample while the block runs (in forked children if spooling)."""
        if self.spool is None:
            self._arm()
        else:
            self.spool.mkdir(parents=True, exist_ok=True)
        _WATCHING.append(self)
        try:
            yield self
        finally:
            _WATCHING.remove(self)
            if self.spool is None:
                self._disarm()

    def collect(self) -> None:
        """Move the forked children's spooled samples into :attr:`samples`."""
        for path in sorted(self.spool.glob("*.samples")):
            for line in path.read_text().splitlines():
                started, ended = line.split()
                self.samples.append((float(started), float(ended)))
            path.unlink()

    def window(self, start: float, end: float):
        """(sample seconds inside [start, end], mean sample for it).

        A window too short to hold a sample borrows the two samples
        nearest its middle.
        """
        inside = [(s, e) for s, e in self.samples
                  if s >= start and e <= end]
        spent = sum(e - s for s, e in inside)
        if not inside:
            middle = (start + end) / 2
            inside = sorted(self.samples,
                            key=lambda se: abs(se[0] - middle))[:2]
        if not inside:
            raise RuntimeError("no reference samples taken")
        return spent, statistics.fmean(e - s for s, e in inside)

    def scaled(self, start: float, end: float, host_s: float,
               share: float = 1.0) -> float:
        """``host_s`` measured in [start, end], at the reference speed.

        ``share`` is the part of the window's sample time that ran in
        the measured process (1/workers for a pool).
        """
        spent, mean = self.window(start, end)
        return max(host_s - spent * share, 0.0) * REFERENCE_S / mean


#: Speedometers watching in this process.
_WATCHING = []


def _sample_in_child() -> None:
    """In a child forked while a spooling speedometer watches: sample."""
    watching = [s for s in _WATCHING if s.spool is not None]
    _WATCHING.clear()
    if not watching:
        return
    child = Speedometer()
    child._log = open(watching[0].spool / f"{os.getpid()}.samples", "a",
                      buffering=1)
    child._arm()


os.register_at_fork(after_in_child=_sample_in_child)
