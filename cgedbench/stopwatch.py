"""Timings scaled to a fixed machine speed by an interleaved calibration probe.

The benchmark's host is a few cores of a shared machine whose speed drifts:
the same work runs up to twice as fast in one minute as in the next, and a
slow or fast stretch can outlast a whole run. A probe of fixed pure-Python
and small-array work, of the same kinds cged's search does (heap pushes and
pops, dict updates, element-wise numpy calls on short vectors), is timed
before every timed call and once at the end. Each call's wall time is then
scaled by ``NOMINAL_PROBE_S`` over the mean of the two probes that bracket
it, which reads the machine's speed at that moment. The speed changes
within a second, so only the adjacent probes track it: on 20-second windows
of letter-grid calls, scaling by the bracketing probes cut the spread of
the windows' speeds from 0.25 to 0.05, and scaling by the median of the
probes over a whole window only to 0.09. The probe shares no code with
cged, so a faster cged still shows as a faster figure; only the machine's
own drift cancels.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

perf_counter = time.perf_counter

# the probe's median time on the 2-CPU reference host in its usual state, so
# that scaled figures read as that host's seconds
NOMINAL_PROBE_S = 0.0028


def probe_work() -> None:
    heap: list = []
    counts: dict = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i % 97] = counts.get(i % 97, 0) + i
    while heap:
        heapq.heappop(heap)
    a = np.arange(8.0)
    for _ in range(200):
        a = np.minimum(a + 1.0, a * 0.5)


def probe() -> float:
    start = perf_counter()
    probe_work()
    return perf_counter() - start


class Stopwatch:
    """Times calls by path name, each preceded by a probe of machine speed."""

    def __init__(self) -> None:
        for _ in range(20):  # warm the probe's code paths before it counts
            probe_work()
        self.probes: list[float] = []
        self.calls: list[tuple[str, int, float, int]] = []  # path, ops, s, probe index

    def time(self, path: str, ops: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as ``ops`` operations of ``path``; return its result."""
        self.probes.append(probe())
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((path, ops, perf_counter() - start, len(self.probes) - 1))
        return out

    def close(self) -> None:
        """Probe once more after the last call, so that it has a probe after it too."""
        self.probes.append(probe())

    def _scaled(self, seconds: float, i: int) -> float:
        # probe i ran just before call i, probe i + 1 just after it
        return seconds * NOMINAL_PROBE_S / statistics.fmean(self.probes[i:i + 2])

    def scaled_seconds(self, path: str) -> list[float]:
        """Each call's wall time on ``path``, scaled to the nominal machine speed."""
        return [self._scaled(s, i) for p, _, s, i in self.calls if p == path]

    def wall_seconds(self, path: str) -> list[float]:
        """Each call's unscaled wall time on ``path``."""
        return [s for p, _, s, _ in self.calls if p == path]

    def ops(self, path: str) -> int:
        return sum(n for p, n, _, _ in self.calls if p == path)

    def rate(self, path: str) -> float:
        """Operations per scaled second on ``path``."""
        seconds = sum(self.scaled_seconds(path))
        return self.ops(path) / seconds if seconds > 0 else float("nan")
