"""Machine-speed probe: turns measured seconds into reference seconds.

The benchmark runs on shared virtual machines whose cores slow down by up
to a third for seconds at a time, independently on each core, because of
other tenants.  Raw wall times of one workload then spread by 15 to 40 %
between runs minutes apart, which hides any change smaller than that.

While a timed call runs, an interval timer interrupts it every ``PERIOD``
seconds and times one probe: a fixed pure-Python loop of arithmetic plus
reads at fixed random offsets of an 8 MiB buffer, so that it slows down
with the core and with the shared caches the way the package's mix of
interpreter and NumPy work does.  A measured time ``t`` is reported as
``t * REFERENCE_PROBE_S / p``, where ``p`` is the trimmed mean of the probe
times taken during the measurement: seconds on a machine that runs the
probe in ``REFERENCE_PROBE_S``.

Costs, the same on every commit: the interruptions add about 2 % to every
measured time, and the buffer adds 8 MiB to the resident memory.  A program
change that shrinks its own cache footprint also speeds up the buffer reads
a little, so it reads slightly less faster than it is.

Only the standard library is used, so set-up probes can sample from the
first line of a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from typing import Iterator

PERIOD = 0.03
ARITHMETIC_STEPS = 4000
BUFFER_BYTES = 8 << 20
BUFFER_READS = 3000
# Probe time that defines one reference second's worth of work; close to
# the typical probe time on the 2-vCPU machine the bounds were set on.
REFERENCE_PROBE_S = 8.5e-4
# Share of the probe samples dropped at each end before averaging.
TRIM = 0.1


class SpeedProbe:
    """Collects probe times while ``sampling()`` is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._buffer = bytearray(BUFFER_BYTES)
        rng = random.Random(0)
        self._offsets = [rng.randrange(BUFFER_BYTES) for _ in range(BUFFER_READS)]

    def probe(self) -> float:
        """Seconds one probe takes now."""
        start = time.perf_counter()
        total = 0
        for i in range(ARITHMETIC_STEPS):
            total += i * i
        buffer = self._buffer
        for offset in self._offsets:
            total += buffer[offset]
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.probe())

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, samples: list[float]) -> float:
        """Factor from measured seconds to reference seconds."""
        ordered = sorted(samples) or [self.probe()]
        cut = int(len(ordered) * TRIM)
        return REFERENCE_PROBE_S / statistics.fmean(ordered[cut : len(ordered) - cut])
