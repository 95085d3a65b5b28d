"""Timing rescaled by a calibration loop that the program does not touch.

The VM the benchmark was built on runs at two speeds, about 1.6x apart,
and flips between them within a second; how much of a half minute it
spends in the slow state drifts from one period to the next.  Set-up
time read straight off the clock moved by up to 30% between periods of
the same hour, and the median pass of a run by up to 18%.

A ``CalibratedClock`` runs one round of a fixed calibration loop at the
ends of every timed interval and, from a timer signal, every TICK_S
seconds inside it.  It rescales each segment between two rounds by the
mean of those rounds.  A segment's rescaled time is what it
would have taken on a machine on which one round takes CALIBRATION_S,
so the machine's speed cancels and the program's does not: the loop uses
the standard library and numpy alone.  Its work resembles the program's
(CSV rows written and parsed, normal draws, batched 2x2 solves and
``np.add.at`` accumulation), because the slow state slows different work
by different amounts.  The wall time is kept beside the rescaled time.
"""

from __future__ import annotations

import csv
import io
import signal
import time

import numpy as np

# One calibration round takes about this long inside a run on that VM, so
# rescaled seconds read close to wall seconds there.
CALIBRATION_S = 0.0025
# Seconds between rounds inside a timed interval; a round and its untimed
# warm-up take about a tenth of that.
TICK_S = 0.05

_ROWS = [[f"h{i % 97:04d}", f"app{i % 6}", f"2015-{1 + i % 12:02d}", repr(0.1 * i + 1 / 3)]
         for i in range(400)]
_rng = np.random.default_rng(0)
_RHS = _rng.standard_normal((200, 2, 1))
_ROWS_AT = _rng.integers(0, 200, 3000)
_v = _rng.standard_normal((3000, 2))
_OUTER = _v[:, :, None] * _v[:, None, :]


def _loop():
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_ROWS)
    total = 0.0
    for row in csv.reader(io.StringIO(buf.getvalue())):
        _, _, _, kwh = (c.strip() for c in row)
        total += float(kwh)
    np.random.default_rng(0).normal(size=2000).sum()
    for _ in range(3):
        acc = np.tile(np.eye(2), (200, 1, 1))
        np.add.at(acc, _ROWS_AT, _OUTER)
        np.linalg.solve(acc, _RHS)
        np.einsum("nij,njk->nik", acc, _RHS)


def calibrate() -> float:
    """Seconds one round of the calibration loop takes now.  The round
    follows an untimed one, so that what ran before it (and left the
    caches full of its own data) does not change its time."""
    _loop()
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class CalibratedClock:
    """Timed intervals cut into segments by calibration rounds.

    ``start()`` opens an interval and ``stop()`` closes it with a round.
    While an interval is open, a timer signal every ``tick`` seconds
    closes the current segment with a round and opens the next, so a
    long interval is rescaled by the machine's speed throughout, not
    only at its ends.  The rounds are not counted.  ``wall`` sums the
    segments' seconds and ``scaled`` their seconds rescaled to
    CALIBRATION_S per round, each by the mean of the rounds at its ends.
    ``tick=None`` puts rounds at the ends of intervals only.
    """

    def __init__(self, tick: float | None = TICK_S):
        self.tick = tick
        self.wall = self.scaled = 0.0
        self.rounds = 0
        self._round = calibrate()
        self._since = None

    def start(self):
        self._since = time.perf_counter()
        if self.tick:
            self._previous = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)

    def stop(self):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a tick queued before the timer stopped must not meet the
            # default action, which ends the process
            signal.signal(signal.SIGALRM,
                          self._previous if callable(self._previous) else _ignore)
        self._segment()
        self._since = None

    def _on_tick(self, signum, frame):
        if self._since is not None:     # not while a round runs
            self._segment()

    def _segment(self):
        took = time.perf_counter() - self._since
        self._since = None          # a tick during the round finds no segment
        now = calibrate()
        self.wall += took
        self.scaled += took * CALIBRATION_S / (0.5 * (self._round + now))
        self._round = now
        self.rounds += 1
        self._since = time.perf_counter()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


def _ignore(signum, frame):
    pass
