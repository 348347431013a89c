"""A fixed pure-Python reference loop that gauges the machine's speed.

The benchmark runs on a few cores of a shared host.  Whatever shares the
physical cores switches the speed of all Python code between a fast and a
slow state, about 2x apart, many times a minute, with CPU time tracking wall
time.  Raw op times of one workload then differ by 1.6x between runs.  So
the reference call is timed between ops, and each op's wall time is scaled
by NOMINAL_S over the mean time of the reference calls just before and
just after it: the op's time at a fixed machine speed.  On a 150-s log of
`hh-p3-fp` ops this took the spread of 19-s medians from 1.60x to 1.09x.

A change to sodhh cannot move the reference: it uses the standard library
only, with the kind of work sodhh's hot loops do (elimination over Q and
F_p, products through a dict of structure constants), and the garbage
collector is off while it runs, so a large sodhh heap does not slow it.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

# One reference call takes about this long on the machine the baseline was
# recorded on (Intel Xeon, 2.0 GHz, Python 3.11) in its fast state.  Any
# fixed value works: it only sets the scale in which times are reported.
NOMINAL_S = 0.025
# The speed switches within a second, so one call is a noisy gauge of it.
CALLS_PER_GAUGE = 2

_P = 32003
_rng = random.Random(12345)
_MQ = [[Fraction(_rng.randint(-5, 5), _rng.randint(1, 3)) for _ in range(14)]
       for _ in range(14)]
_MP = [[_rng.randrange(_P) for _ in range(40)] for _ in range(40)]
_DIM = 120
_TABLE = {(i, j): {_rng.randrange(_DIM): _rng.randrange(1, _P)}
          for i in range(_DIM) for j in range(_DIM) if _rng.random() < 0.3}
_ELEMS = [{_rng.randrange(_DIM): _rng.randrange(1, _P) for _ in range(12)}
          for _ in range(30)]


def _rank(rows, field):
    """Rank by row reduction; field is "q" (Fractions) or "p" (ints mod p)."""
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m))
                    if (m[i][c] if field == "q" else m[i][c] % _P)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if field == "q" else pow(m[r][c], _P - 2, _P)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv if field == "q" else m[i][c] * inv % _P
            if f:
                if field == "q":
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - f * b) % _P for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _multiply(a, b):
    """Product of two sparse elements through the structure constants."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            for k, c in _TABLE.get((i, j), {}).items():
                out[k] = (out.get(k, 0) + x * y * c) % _P
    return out


def _call():
    products = sum(len(_multiply(a, b)) for a in _ELEMS for b in _ELEMS[:12])
    return _rank(_MQ, "q"), _rank(_MP, "p"), products


# What _call returns: full ranks and the number of nonzero product terms.
EXPECTED = (14, 40, 12255)


def measure():
    """Wall time of one reference call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        got = _call()
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError(f"reference call gave {got}, not {EXPECTED}")
    return elapsed


class Gauge:
    """Scales batches of wall times by the reference speed around them.

    Times are added as they are measured.  `flush` times CALLS_PER_GAUGE
    reference calls and returns the batch scaled by NOMINAL_S over the mean
    of these calls and those that closed the previous batch.
    """

    def __init__(self):
        self.calls = []
        self._means = []
        self._batch = []
        self._gauge()

    def _gauge(self):
        new = [measure() for _ in range(CALLS_PER_GAUGE)]
        self.calls += new
        self._means.append(sum(new) / len(new))

    def add(self, seconds):
        self._batch.append(seconds)

    def pending_s(self):
        return sum(self._batch)

    def flush(self):
        self._gauge()
        scale = NOMINAL_S / ((self._means[-2] + self._means[-1]) / 2)
        scaled = [t * scale for t in self._batch]
        self._batch = []
        return scaled
