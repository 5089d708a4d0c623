"""Timing an operation at a reference CPU speed.

On shared hosts a vCPU's speed changes by up to about 2x from one
fraction of a second to the next (another tenant on the same core), and
for minutes at a time the slow state can dominate; every timing of a run
moves with it.  :class:`Timed` measures that while it times its body: a
``SIGALRM`` handler runs a fixed interpreter loop every
:data:`INTERVAL_S` seconds, on the thread and CPU that run the
operation, and the loop's mean CPU time against
:data:`REFERENCE_PROBE_NS` is the slowdown the operation saw.  CPU time,
not wall time, so that the benchmark's own worker processes taking turns
on a CPU do not count as a slow host.  Wall seconds divided by the
slowdown are seconds at the reference speed.

The handler runs between bytecodes, so samples come from the Python
parts of an operation (which dominate every workload here); the loop
costs about half a percent of the timed time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between speed samples.
INTERVAL_S = 0.01

#: Iterations of the probe loop.
PROBE_LOOPS = 1000

#: Probe nanoseconds on the reference host (a 2-vCPU VM running Python
#: 3.11) in its fast state.
REFERENCE_PROBE_NS = 40_000


def probe_ns() -> int:
    """CPU nanoseconds of one fixed interpreter loop."""
    start = time.thread_time_ns()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return time.thread_time_ns() - start


class Timed:
    """``with Timed() as t: ...`` sets ``t.seconds`` (wall clock),
    ``t.slowdown`` and ``t.at_reference`` (seconds at the reference
    speed).  Main thread only; not reentrant."""

    seconds: float
    slowdown: float
    at_reference: float

    def __enter__(self) -> "Timed":
        self._samples = [probe_ns()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        self._samples.append(probe_ns())

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slowdown = statistics.fmean(self._samples) / REFERENCE_PROBE_NS
        self.at_reference = self.seconds / self.slowdown
