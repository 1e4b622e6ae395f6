"""Host-speed normalisation of measured times.

The machines this benchmark runs on are shared, and their speed drifts by
more than the bounds the benchmark must hold: on a 2-core sandbox a fixed
block of pure-Python work ran 25% slower or faster (interquartile range)
from one 30-second window to the next, while the process kept ~99% of a
core.  Longer runs do not average that away, because the drift is slower
than a run.

So after every measured op the benchmark times a fixed probe that never
changes: tuple polynomial products mod a small prime with a dict insert,
the same mix of small allocations, integer arithmetic and calls that the
package does.  Long ops get more probes, about 2% of their time.  An op
time t is reported as t * REF_PROBE_S / p, where p is the median of the
probes within half a second of the op (at least the nine nearest): the time
the op would have taken on a host where the probe takes its reference time.
The raw times are printed too.  Over three minutes of alternating ops and
probes on that sandbox, op time / local probe time varied by 3.5-5%
(interquartile range over 20-second windows) where the raw op time varied
by about 31%; a pure integer loop as the probe tracked the ops far worse.
"""

import bisect
import statistics
import time

PROBE_ROUNDS = 80
REF_PROBE_S = 3.0e-4  # typical probe time on the 2-core reference sandbox, Python 3.11
PROBE_SHARE = 0.02  # probe time after an op, as a share of the op's time
MAX_PROBES = 10
HALF_WINDOW_S = 0.5  # probes this close to an op set its host speed ...
MIN_NEAR = 9  # ... or at least this many of the nearest
SETUP_PROBES = 50  # after the set-up, to normalise set-up time


def _mul(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def probe() -> float:
    """Seconds taken by the fixed probe."""
    t = time.perf_counter()
    acc, seen = (1, 2, 3, 4), {}
    for i in range(PROBE_ROUNDS):
        acc = _mul(acc, (i % 7, 1, 2, 3), 101)[:4]
        seen[acc] = i
    return time.perf_counter() - t


def probes_after(op_s: float) -> int:
    """How many probes follow an op that took op_s seconds."""
    return max(1, min(MAX_PROBES, round(op_s * PROBE_SHARE / REF_PROBE_S)))


def normalise(ops: list, probes: list) -> list:
    """Normalised op times.

    ops are (start, seconds) and probes (start, seconds), both in time order;
    each op time is scaled by REF_PROBE_S over the median of its near probes.
    """
    stamps = [t for t, _ in probes]
    out = []
    for start, dt in ops:
        mid = start + dt / 2
        lo = bisect.bisect_left(stamps, mid - HALF_WINDOW_S)
        hi = bisect.bisect_right(stamps, mid + HALF_WINDOW_S)
        if hi - lo < MIN_NEAR:
            at = bisect.bisect_left(stamps, mid)
            lo = max(0, min(at - MIN_NEAR // 2, len(stamps) - MIN_NEAR))
            hi = lo + MIN_NEAR
        near = statistics.median(d for _, d in probes[lo:hi])
        out.append(dt * REF_PROBE_S / near)
    return out
