"""Host speed, from a fixed pure-Python loop that uses no repository code.

On a shared host the speed of the CPUs a benchmark is given can swing
by 2x within minutes with nothing else running beside it.  Neighbours on
the same physical cores slow every instruction, in CPU time and wall
time alike, and they slow the probe loop below as much as the program.

:class:`SpeedProbe` times one :func:`probe_chunk` every
:data:`PROBE_PERIOD` seconds in CPU time of its own thread, so another
process running on the same CPU does not lengthen it.  Its
:meth:`~SpeedProbe.slowness` over an interval is the median chunk time
there divided by :data:`PROBE_REF_S`: rates measured in the interval are
multiplied by it, latencies divided, which reports them as on a
reference machine whose chunk takes exactly :data:`PROBE_REF_S`.  A
program change does not move the probe, so a change in a scaled number
is the program's.

The hypervisor can also stop a CPU outright for a while (steal time).
The probe does not see that, and no correction is made for it;
:func:`steal_ticks` only reports it.
"""

from __future__ import annotations

import asyncio
import statistics
import time

#: iterations of one probe chunk
PROBE_ITERS = 20_000
#: CPU seconds of one chunk on the reference machine
PROBE_REF_S = 0.0025
#: seconds between chunks
PROBE_PERIOD = 0.1


def probe_chunk(iters: int = PROBE_ITERS) -> float:
    """CPU seconds this thread takes for the fixed loop."""
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(iters):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 1023] = acc
    return time.thread_time() - start


class SpeedProbe:
    """Samples of the probe chunk's CPU time, by CLOCK_MONOTONIC time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._next = 0.0

    def sample(self) -> None:
        now = time.monotonic()
        self.samples.append((now, probe_chunk()))
        self._next = now + PROBE_PERIOD

    def poll(self) -> None:
        """Sample if a period has passed (for loops that never await)."""
        if time.monotonic() >= self._next:
            self.sample()

    async def run(self) -> None:
        """Sample every period, as a task on the running event loop."""
        while True:
            self.sample()
            await asyncio.sleep(PROBE_PERIOD)

    def slowness(self, start: float, end: float) -> float:
        """Median chunk time in ``[start, end)`` over the reference's;
        the nearest samples stand in for an interval without one."""
        inside = [c for t, c in self.samples if start <= t < end]
        if not inside:
            middle = (start + end) / 2
            inside = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:3]]
        return statistics.median(inside) / PROBE_REF_S


def steal_ticks() -> int:
    """CPU time the hypervisor ran something else while this machine's
    CPUs wanted to run: ``steal`` in /proc/stat, summed over the CPUs, in
    USER_HZ ticks; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0

