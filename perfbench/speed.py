"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same Python code runs up to a
third slower from one minute to the next, which would swamp any change
worth measuring. A :class:`Speedometer` thread times a fixed arithmetic
loop in its own CPU time every 20 ms while a phase is measured; the
phase's slowdown is the mean loop time, over the fastest nine tenths of
the samples (the rest were cut by preemption), against
:data:`REFERENCE_LOOP_S`. Times are reported divided by that slowdown,
i.e. in seconds of a host running at the reference speed.

The mean rather than the median, because the host flips between a fast
and a slow state within a run and a sum of wall times sees the average
of the two; a median picks one state and over-corrects. A loop with
allocation and generator work in it tracked the simulator worse than
this plain one.
"""

from __future__ import annotations

import statistics
import threading
import time

#: Seconds between samples; each sample runs the loop once (~0.4 ms),
#: which costs the measured code about 2% of its time.
INTERVAL_S = 0.02
LOOP_N = 5_000
#: Loop time of the two-vCPU Xeon host the benchmark was built on, when
#: it was quiet: the unit of every reported time.
REFERENCE_LOOP_S = 0.00036
#: Share of the samples, fastest first, that the slowdown averages.
KEEP = 0.9


def loop_time() -> float:
    """Thread CPU seconds of one pass of the fixed loop."""
    t0 = time.thread_time()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.thread_time() - t0


class Speedometer(threading.Thread):
    """Samples :func:`loop_time` from :meth:`start` until :meth:`stop`
    (or over a ``with`` block)."""

    def __init__(self) -> None:
        super().__init__(name="speedometer", daemon=True)
        self.samples: list[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        self.samples.append(loop_time())
        while not self._stop_event.wait(INTERVAL_S):
            self.samples.append(loop_time())

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self) -> float:
        kept = sorted(self.samples)[:max(1, int(KEEP * len(self.samples)))]
        return statistics.fmean(kept) / REFERENCE_LOOP_S

    def calibrated(self, seconds: float) -> float:
        """``seconds`` measured while this ran, at the reference speed."""
        return seconds / self.slowdown()
