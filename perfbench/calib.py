"""Machine-speed calibration: a fixed pure-Python loop timed throughout each run.

On a small shared machine the CPU speed a process gets drifts by tens of
percent within seconds: on a shared 2-vCPU virtual machine a fixed
3M-iteration loop took anywhere from 0.19 s to 0.30 s within one minute, and
the same N = 20 000 `simulate` call took from 5.0 s to 7.6 s within two. Such drift swamps the
changes the benchmark exists to judge, so it reports times in *reference
seconds*: a measured time multiplied by REFERENCE_S / (median loop time
during it and within INTERVAL_S of it). A reference second is what the time
would be on a machine that runs the loop in REFERENCE_S. Raw times stay in
the result record.

The loop is timed every INTERVAL_S from a SIGALRM handler, so samples fall
inside long operations too, not only between them. The handler's own time
(about 2%) is subtracted from the operation it interrupted; in a traced run
it stays inside whichever span was open. On the N = 20 000 workload this
cut the spread of operation times within a run from 6-11% to about 4%
(coefficient of variation). The loop tracks single-threaded work only; this
is one reason the benchmark pins BLAS to one thread.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 50_000
REFERENCE_S = 0.004
INTERVAL_S = 0.25


def loop_seconds() -> float:
    """Time of one run of the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds, given loop times from the same stretch."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Times the loop every INTERVAL_S while active (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, loop seconds)
        self.spent = 0.0  # wall time taken by the handler, to subtract
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        self.samples.append((start, loop_seconds()))
        self.spent += time.perf_counter() - start

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale_between(self, start: float, end: float) -> float:
        """Scale for an interval, from the samples within one INTERVAL_S of it."""
        near = [s for t, s in self.samples if start - INTERVAL_S <= t <= end + INTERVAL_S]
        return scale(near or [s for _, s in self.samples])
