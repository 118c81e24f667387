"""How fast the shared host runs right now, from a fixed calibration kernel.

On a shared 2-core x86 host the machine's speed drifts by ±25% within tens
of seconds and by up to a factor of two over minutes, and the simulator's run
times follow that drift: over 156 runs of six scenario kinds, the log of each
run's time correlated with the log of the time of a kernel made of the same
two parts as this one, measured just before and after the run, at r = 0.84
to 0.93.  Dividing by the kernel's time halved the spread of repeated runs
of each kind.

The kernel is the benchmark's own code and never calls `regionsim`, so a
change to the program does not move it.  It mixes the two kinds of work the
simulator does: a heap-and-dict shortest-path search over a small graph that
stays in cache, and building and reading a dict too large for the per-core
caches in a shuffled order.
"""

import gc
import heapq
import random
import time

# the kernel's time on the reference host: a time measured when the kernel
# takes `t` seconds is reported as `time * REFERENCE_S / t`
REFERENCE_S = 0.05

_rng = random.Random(20240917)
_NODES = 600
_ARCS = [[(_rng.randrange(_NODES), 0.5 + _rng.random()) for _ in range(6)]
         for _ in range(_NODES)]
_KEYS = list(range(40_000))
_rng.shuffle(_KEYS)


def _shortest_paths(src: int) -> dict[int, float]:
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ARCS[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    t0 = time.perf_counter()
    for src in range(0, _NODES, 60):
        _shortest_paths(src)
    table = {k: (k * 0.5, k + 1.0, [k]) for k in _KEYS}
    acc = 0.0
    for k in _KEYS:
        a, b, c = table[k]
        acc += a * b + c[0]
    del table
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean kernel time of two runs, after a collection."""
    gc.collect()
    return (kernel_seconds() + kernel_seconds()) / 2


class HostSpeed:
    """Scales a time measured between two calibrations to the reference host.

    Each call of `scale` calibrates once more; the time it is given is
    divided by the mean of that calibration and the one before it, so a run
    is corrected by the host's speed just before and just after it.
    """

    def __init__(self, calibrate=calibrate):
        self._calibrate = calibrate
        self._last = calibrate()

    def scale(self, seconds: float) -> float:
        before, self._last = self._last, self._calibrate()
        return seconds * REFERENCE_S / ((before + self._last) / 2)
