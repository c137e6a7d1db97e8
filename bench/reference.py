"""A fixed reference computation, timed between a pass's operations.

This host shares its cores, and its speed drifts: the same families pass took
3.5 s at one minute and 7.0 s a few minutes later, all of it CPU time. A
reference slice timed next to each stretch of operations measures the speed
of that moment, so that a pass's time can be scaled to one fixed speed.

A slice does the three kinds of work minklat does (pure-Python integer loops,
numpy on short float arrays, 50-digit mpmath arithmetic) and calls nothing of
minklat, so a change to the program does not change the slice.
"""
from __future__ import annotations

import time

import mpmath
import numpy as np

# time of one slice at the speed that scaled figures refer to (see README.md)
NOMINAL_SLICE_S = 0.03


def _integers() -> int:
    acc = 0
    xs = list(range(64))
    for i in range(40_000):
        acc = (acc * 31 + xs[i & 63] * i) % 1_000_003
        if acc & 1:
            xs[i & 63] = acc
    return acc


def _floats() -> float:
    a = np.linspace(-1.0, 1.0, 48)
    acc = 0.0
    for _ in range(120):
        acc += float(np.abs(np.polyval(a, a * 0.5)).max())
    return acc


def _digits():
    with mpmath.workdps(50):
        x = mpmath.mpf(1) / 3
        acc = mpmath.mpf(0)
        for i in range(800):
            acc = acc * x + mpmath.sqrt(x + i)
    return acc


def scaled(seconds: float, before: float, after: float) -> float:
    """A stretch of ``seconds`` between two slices that took ``before`` and
    ``after`` seconds, as it would take at the nominal speed."""
    return seconds * NOMINAL_SLICE_S / ((before + after) / 2.0)


def slice_s() -> float:
    """Wall time of one reference slice."""
    t0 = time.perf_counter()
    _integers()
    _floats()
    _digits()
    return time.perf_counter() - t0
