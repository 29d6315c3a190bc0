"""Host-speed reference: fixed kernels timed between passes.

The benchmark runs on a few cores of a shared host whose speed drifts by
1.5-2x over minutes (neighbours on the same cores and memory); thread CPU
time drifts with wall time, so no per-run statistic of the program's own
timings removes it.  Between passes the driver therefore times two fixed
kernels that are the benchmark's own code (NumPy and the standard
library, nothing from the program under test):

* a NumPy kernel shaped like the columnar ingest path: a 64-bit mixing
  hash over 16k keys, a split into four groups, a bottom-256 partition of
  each group;
* a pure-Python kernel shaped like the sliding-window path: sorted-list
  inserts, a right-to-left heap sweep that drops dominated entries, and
  dict updates.

A pass's *host factor* is the mean over both kernels of measured time ÷
nominal time, averaged over the measurements just before and just after
the pass: 1.0 on a host that runs the kernels in their nominal times,
above 1.0 on a slower one.  The end-to-end timings divide each pass's
times by its factor, so they read as on the nominal host; a change to
the program moves them, a change in host speed mostly does not.  The
nominal times are the kernels' times on a 2-core x86-64 VM in a quiet
period; they fix the unit and nothing else.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_NUMPY_S", "NOMINAL_PYTHON_S", "numpy_kernel",
           "python_kernel", "host_factor"]

#: Nominal kernel times (seconds), see the module docstring.
NOMINAL_NUMPY_S = 1.0e-3
NOMINAL_PYTHON_S = 8.0e-3

_NUMPY_REPS = 5
_PYTHON_REPS = 3

_rng = np.random.default_rng(0x5EED)
_KEYS = _rng.integers(0, np.int64(1) << 62, size=1 << 14, dtype=np.int64)
_ENTRIES = list(zip(_rng.integers(0, 512, 4096).tolist(),
                    _rng.random(4096).tolist()))
del _rng

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33, _S11, _LOW2 = np.uint64(33), np.uint64(11), np.uint64(3)


def numpy_kernel() -> float:
    """Hash, split and bottom-256 a 16k-key column; returns a checksum."""
    x = _KEYS.view(np.uint64).copy()
    x ^= x >> _S33
    x *= _M1
    x ^= x >> _S33
    x *= _M2
    x ^= x >> _S33
    unit = (x >> _S11).astype(np.float64) * 2.0 ** -53
    group = (x & _LOW2).astype(np.int64)
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(5))
    total = 0.0
    for g in range(4):
        part = unit[order[bounds[g]:bounds[g + 1]]]
        total += float(np.partition(part, 255)[255])
    return total


def python_kernel() -> int:
    """Sorted inserts plus dominance sweeps over 4k entries; returns a size."""
    entries: list[tuple[int, float]] = []
    seen: dict[int, int] = {}
    for entry in _ENTRIES:
        if not entries or entries[-1] <= entry:
            entries.append(entry)
        else:
            bisect.insort(entries, entry)
        seen[entry[0]] = seen.get(entry[0], 0) + 1
        if len(entries) > 64:
            worst: list[float] = []
            kept: list[tuple[int, float]] = []
            for item in reversed(entries):
                if len(worst) < 8:
                    heapq.heappush(worst, -item[1])
                    kept.append(item)
                elif item[1] < -worst[0]:
                    heapq.heapreplace(worst, -item[1])
                    kept.append(item)
            kept.reverse()
            entries = kept
    return len(entries) + len(seen)


def _median_time(kernel, reps: int) -> float:
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        started = clock()
        kernel()
        times.append(clock() - started)
    return statistics.median(times)


def host_factor() -> float:
    """Host slowness now: 1.0 at the nominal kernel times, 2.0 at twice."""
    numpy_s = _median_time(numpy_kernel, _NUMPY_REPS)
    python_s = _median_time(python_kernel, _PYTHON_REPS)
    return 0.5 * (numpy_s / NOMINAL_NUMPY_S + python_s / NOMINAL_PYTHON_S)
