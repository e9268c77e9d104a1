"""Machine-speed calibration: a fixed snippet of work that does not use zenodrive.

The machines this benchmark runs on are shared, and their speed drifts by up
to a factor of two over minutes for identical work, and by tens of percent
from one second to the next (see the README).  Every timing is therefore
scaled to the speed the snippet had on the reference machine::

    scaled = measured * REFERENCE_S / (mean seconds of the snippets run with it)

A program run is sampled while it runs: a timer signal runs the snippet on
the program's own thread every ``INTERVAL_S``, so the samples see the same
core at the same moments as the program.  Their time is taken out of the
measured wall time before scaling.  Set-up times, measured in a child
interpreter, are scaled by the median of bursts of snippets taken between
them.

The snippet mixes the kinds of work the workloads do: batched LAPACK ``eigh``
on 11x11 and 17x17 real-symmetric matrices, a small ``einsum`` contraction
and a pure-Python loop.  It uses numpy only, so a change to zenodrive never
moves it, and a slower program still reads slower.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Seconds one snippet takes on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31 at one thread): a round figure near its median
# there.  Only ratios of scaled times mean anything, so it never changes.
REFERENCE_S = 0.007
INTERVAL_S = 0.1
BURST_SNIPPETS = 60
MAX_CATCH_UP = 20


def _inputs():
    rng = np.random.default_rng(12345)
    small = rng.standard_normal((48, 11, 11))
    large = rng.standard_normal((16, 17, 17))
    return small + small.transpose(0, 2, 1), large + large.transpose(0, 2, 1)


_SMALL, _LARGE = _inputs()


def snippet() -> float:
    total = 0.0
    for batch in (_SMALL, _LARGE):
        values, vectors = np.linalg.eigh(batch)
        overlap = np.einsum("bji,bjk,bkl->bil", vectors, batch, vectors)
        total += float(values[:, 0].sum() + overlap[:, 0, 0].sum())
    acc = 0.0
    for i in range(1000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    return total + acc


def burst() -> float:
    """Mean seconds of one snippet over a burst run now (after one untimed snippet)."""
    snippet()
    started = time.perf_counter()
    for _ in range(BURST_SNIPPETS):
        snippet()
    return (time.perf_counter() - started) / BURST_SNIPPETS


def speed_factor(snippet_s: float) -> float:
    """Reference snippet time over a measured one: below 1 on a slower machine."""
    return REFERENCE_S / snippet_s


class Sampler:
    """Runs the snippet on a timer signal while a timing runs on this thread.

    Use as a context manager around the timed call; afterwards ``spent`` is
    the time the snippets took and ``samples`` how many ran.  A signal that
    arrives inside a long C call runs when the call returns, with one snippet
    for each interval that passed (at most ``MAX_CATCH_UP``).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.samples = 0
        self._previous = None
        self._last = 0.0
        self._busy = False
        snippet()   # warm, before the timing starts

    def _tick(self, signum, frame) -> None:
        # A tick delayed by a long C call stands for every tick it swallowed,
        # so time spent in such calls is sampled as densely as the rest.  A
        # tick that arrives while the snippets run is dropped.
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        due = round((started - self._last) / self.interval)
        count = min(MAX_CATCH_UP, max(1, due))
        for _ in range(count):
            snippet()
        self._last = time.perf_counter()
        self.spent += self._last - started
        self.samples += count
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def snippet_s(self) -> float:
        if self.samples == 0:
            return burst()
        return self.spent / self.samples
