"""Machine-speed calibration: seconds that do not depend on the neighbours.

The boxes this benchmark runs on are small shared VMs whose speed swings by
tens of percent for seconds to minutes at a time (the same pure-Python loop
takes 0.13 to 0.33 s there), far more than the 10-20 % a regression gate has
to resolve.  Wall-clock time alone cannot be steady on such a machine, so
every timed region is interleaved with a fixed *calibration kernel* - heap,
dict, allocation and small numpy operations, the program's own instruction
mix - and each slice of the region between two kernel executions is rescaled
by ``REFERENCE_KERNEL_NS / (how long the kernel took around that slice)``.

The result is time *as it would have been measured on the reference box in
its quiet state*: for an undisturbed run there it equals wall-clock time, and
it is what the time-valued end-to-end metrics report (the raw wall time is
printed next to them).  A change to the program moves calibrated time exactly
as it moves wall time; a noisy neighbour moves only the latter.

Two ways to interleave: a simulated run gets :meth:`Calibration.mark`
scheduled as ordinary engine events at evenly spaced virtual times (the
simulation stands still while the kernel runs, so kernel time is excluded
from the region); a run whose work happens in other OS processes gets a
background thread that marks every ``PERIOD_S`` while this process waits.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import List, Tuple

import numpy

#: The kernel's duration inside a run on the 2-core reference box when
#: nothing disturbs it (caches cold, as they are between two slices).
REFERENCE_KERNEL_NS = 1_700_000
KERNEL_LOOPS = 1500
#: Marks per simulated run (scheduled as engine events).
MARKS = 128
#: Seconds between two marks of the background thread.
PERIOD_S = 0.05

_A = numpy.arange(4096, dtype=numpy.int64)
_B = _A[::-1].copy()


def kernel() -> None:
    """The fixed unit of work whose duration tracks the machine's speed."""
    heap: List[Tuple[float, int, Tuple[int, None]]] = []
    table = {}
    for i in range(KERNEL_LOOPS):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i, (i, None)))
        table[i % 512] = (i, [i, i + 1])
        if i & 3 == 3:
            heapq.heappop(heap)
            numpy.maximum(_A, _B)


class Calibration:
    """Kernel executions around and inside one timed region."""

    def __init__(self) -> None:
        #: ``(start_ns, end_ns)`` of every kernel execution, in time order.
        self.samples: List[Tuple[int, int]] = []

    def mark(self) -> None:
        started = time.perf_counter_ns()
        kernel()
        self.samples.append((started, time.perf_counter_ns()))

    def kernel_s(self) -> float:
        """Seconds spent in the kernel itself."""
        return sum(end - start for start, end in self.samples) / 1e9

    def seconds(self, concurrent: bool) -> Tuple[float, float]:
        """``(raw, calibrated)`` seconds between the first and the last
        mark.  ``concurrent`` says the measured work went on while the
        kernel ran (background marks), so kernel time belongs to the
        region; otherwise it stood still and kernel time is left out."""
        raw = calibrated = 0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            gap = s1 - (s0 if concurrent else e0)
            raw += gap
            calibrated += gap * REFERENCE_KERNEL_NS / (
                ((e0 - s0) + (e1 - s1)) / 2.0)
        return raw / 1e9, calibrated / 1e9

    def background(self) -> "_BackgroundMarks":
        """Context manager: mark now, then every ``PERIOD_S`` from a thread
        until the block ends, then once more."""
        return _BackgroundMarks(self)


class _BackgroundMarks:
    def __init__(self, calibration: Calibration):
        self._calibration = calibration
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._calibration.mark()

    def __enter__(self) -> Calibration:
        self._calibration.mark()
        self._thread.start()
        return self._calibration

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self._calibration.mark()
