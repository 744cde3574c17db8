"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same work can take from 1x to 2x as long from
one stretch of a second or more to the next, with the process's CPU time
rising along with its wall time, so medians over a run do not remove it. The
benchmark therefore times a small fixed kernel, which never touches
bellforge, right before and right after each op and every ``INTERVAL_S`` of
wall time while an op runs. It rescales each op's time by ``REFERENCE_S``
over the mean of those kernel times, so a time is reported in seconds at the
speed at which the kernel takes ``REFERENCE_S``. Short ops lean on the
samples at their ends, long ones on the samples taken while they ran.
The kernel mixes interpreter work, small numpy calls and large-array numpy
work, as the library does: small-array and large-array work slow down by
different amounts in a slow stretch, and the mix sits between them.

The sampler runs the kernel from a ``SIGALRM`` handler, so it interleaves
with the op in the main thread; its own time is subtracted from the op's.
A change to bellforge cannot move the kernel, so a faster library shows as
smaller rescaled times; the raw wall times are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003
INTERVAL_S = 0.2
_REPEATS = 5


def _kernel() -> float:
    acc = 0
    table = {}
    for i in range(1000):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(15):
        a = np.kron(a[:4, :4], np.eye(2)) + 1.0
        np.linalg.eigh(a + a.T)
    # large arrays too: dense rendering at n >= 7 is bound by memory traffic
    b = np.ones((256, 256), dtype=complex)
    b = b + 0.5 * np.kron(b[:128, :128], np.eye(2, dtype=complex))
    return acc + float(a[0, 0]) + float(b[0, 0].real)


def sample() -> float:
    """Median time of a few kernel runs, in seconds."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while open.

    ``samples`` holds the kernel times; ``spent_wall`` and ``spent_cpu`` the
    total wall and CPU time the timer's samples took from the process.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        self.samples.append(time.perf_counter() - w0)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def boundary(self) -> int:
        """Take a sample between ops; return its index in ``samples``."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def scale_since(self, index: int) -> float:
        """REFERENCE_S over the mean kernel time from sample ``index`` on."""
        return REFERENCE_S / statistics.fmean(self.samples[index:])
