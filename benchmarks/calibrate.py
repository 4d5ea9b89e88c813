"""Machine-speed calibration for the timed end-to-end metrics.

On a shared VM the speed of a core wanders by 10-20% on every time scale
from tens of milliseconds to minutes, so raw wall times of identical work
spread by about 0.2 of their median between runs a few minutes apart. The
benchmark therefore times a fixed calibration chunk right before and right
after every stretch of program work, and reports that work in
reference-speed seconds:

    seconds * NOMINAL_S / mean(chunk before, chunk after)

The chunk mixes what the program does per step: a batch-64 MLP forward and
backward, batch-1 forwards and a pure-Python loop, on fixed arrays. It uses
numpy only, never swarmbc, so a change to swarmbc moves the program's time
and not the chunk's. ``NOMINAL_S`` is a constant (the chunk's median on a
2-core x86-64 VM), so a reference-speed second is about one second there.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.019
_REPS = 300

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 16))
_T = _rng.standard_normal((64, 2))
_W1 = _rng.standard_normal((16, 16)) * 0.3
_W2 = _rng.standard_normal((16, 2)) * 0.3
_STATES = [_rng.standard_normal(16) for _ in range(8)]


def _chunk() -> float:
    w1, w2, acc = _W1.copy(), _W2.copy(), 0.0
    for _ in range(_REPS):
        h = np.tanh(_X @ w1)
        g = (h @ w2 - _T) / 64.0
        gw2 = h.T @ g
        gw1 = _X.T @ ((g @ w2.T) * (1.0 - h * h))
        w1 -= 1e-3 * gw1
        w2 -= 1e-3 * gw2
        for state in _STATES:
            acc += float(np.tanh(state @ w1) @ w2[:, 0])
        for j in range(40):
            acc += j * 0.5
    return acc


def chunk_seconds() -> float:
    """Wall time of one calibration chunk."""
    t0 = time.perf_counter()
    _chunk()
    return time.perf_counter() - t0


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work converted to reference-speed seconds, given the
    calibration chunk times measured just before and just after it."""
    return seconds * NOMINAL_S / (0.5 * (before + after))


def timed(fn, *args):
    """Call ``fn(*args)`` between two calibration chunks. Returns the result,
    the raw seconds and the reference-speed seconds of the call."""
    before = chunk_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, reference_seconds(seconds, before, chunk_seconds())
