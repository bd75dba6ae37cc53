"""Machine-speed probe.

The host this benchmark was built on changes speed by up to 2x for tens
of seconds at a time, and within a single five-second operation (all
code slows alike, CPU time with it), so a raw time mostly measures the
host. The probe is a fixed computation with the same mix as sncoint's
hot paths (small LAPACK calls plus interpreter work). ``PeriodicProbe``
times it every 50 ms of wall time from a SIGALRM handler in the
benchmark's own process, so it runs on the core the operation runs on,
inside long operations too; the time it takes is left out of the
operation's time. An operation's time multiplied by ``REFERENCE_S`` over
the median probe time around it is its time at the reference speed.
While an operation keeps pool workers busy on every core, a probe beside
them would time the benchmark's own load, so for such workloads the
probe runs only between operations.

On that host the scaled analysis throughput kept within about 4% across
runs whose raw throughput differed by 2x. A probe in another process, on
the other core, tracked the operations' core far less closely.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe time on the reference machine (2-core Xeon at 2.1 GHz, fast spell).
REFERENCE_S = 0.00065
INTERVAL_S = 0.05
# Probes this far either side of an operation also count for it.
MARGIN_S = 0.25

_A = np.random.default_rng(0).standard_normal((250, 5))
_B = np.random.default_rng(1).standard_normal(250)


def probe_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(20):
        q, r = np.linalg.qr(_A)
        np.linalg.solve(r, q.T @ _B)
        np.cumsum(_A, axis=0)
    return time.perf_counter() - t0


class PeriodicProbe:
    """Times the probe every ``INTERVAL_S`` while a ``with`` block runs,
    or, if not ``periodic``, only when ``tick`` is called.

    ``spent`` is the total time taken by probes so far, so a caller can
    subtract the probes that fell inside an interval it timed. Python
    runs the handler between bytecodes of the main thread, never inside
    a numpy call.
    """

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def tick(self, *_) -> None:
        seconds = probe_seconds()
        self.samples.append((time.monotonic(), seconds))
        self.spent += seconds

    def __enter__(self) -> "PeriodicProbe":
        self.tick()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Scale factor to the reference speed for an interval between two
        ``time.monotonic()`` readings."""
        near = [p for t, p in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        near = near or [p for _, p in self.samples]
        return REFERENCE_S / statistics.median(near) if near else 1.0
