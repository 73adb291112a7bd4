"""The machine's speed, sampled while the program runs, to scale timings to a fixed speed.

On a shared machine the same pass can take 27 s or 41 s within the hour:
other tenants slow the core this process runs on, and the operating
system does not count it as stolen time.  So timings are scaled to a
reference speed.  A fixed pure-Python loop (the probe, independent of
agstab) is timed at regular intervals of wall time during the timed
region; REF_PROBE_S over its time is the machine's relative speed at that
moment.  A timing is then its seconds, less the time spent in probes,
times the mean relative speed over the interval: the seconds it would
have taken on a machine where the probe takes REF_PROBE_S.

During a pass the probe runs from a SIGALRM handler, in the main thread
between the program's bytecodes: one process, no threads.  A set-up runs
in its own interpreter (probe.py), which runs the probe just before and
just after the set-up and leaves the time of the first out.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
PROBE_ROUNDS = 1000
REF_PROBE_S = 1.25e-3  # the probe on this machine when it runs fastest (2.0 GHz Xeon)

_PERM = tuple((7 * i + 3) % 13 for i in range(13))


def probe() -> float:
    """Seconds for a fixed loop of tuple, dict and integer work."""
    start = time.perf_counter()
    p = tuple(range(13))
    seen = {}
    acc = 0
    for k in range(PROBE_ROUNDS):
        p = tuple(_PERM[i] for i in p)
        h = hash(p) & 0xFF
        seen[h] = seen.get(h, 0) + 1
        acc = (acc * 31 + sum(p) * k) % 1000003
    return time.perf_counter() - start


class Sampler:
    """Probe samples (start, end, seconds) taken on a timer while on."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        seconds = probe()
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, fallback: float = 1.0) -> float:
        """Seconds from start to end, less probes, at the reference speed.

        fallback is the relative speed to use when no probe fell inside
        the interval (a call shorter than INTERVAL_S).
        """
        inside = [(s, e, p) for s, e, p in self.samples if start <= s and e <= end]
        busy = (end - start) - sum(e - s for s, e, _ in inside)
        return busy * self.speed(start, end, fallback)

    def speed(self, start: float, end: float, fallback: float = 1.0) -> float:
        """Mean relative speed of the probes inside the interval."""
        probes = [p for s, e, p in self.samples if start <= s and e <= end]
        return mean_speed(probes) if probes else fallback


def mean_speed(probes: list[float]) -> float:
    """Mean relative speed of these probe times."""
    return sum(REF_PROBE_S / p for p in probes) / len(probes)
