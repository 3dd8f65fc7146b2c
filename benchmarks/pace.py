"""Machine-speed probe: puts measured times on a common speed scale.

On a shared host the same round can take a third longer or shorter from
one moment to the next, because other tenants load the same cores and
caches; the slow stretches last from a fraction of a second to minutes. A
short reference pass — shuffles, tuples, dicts, string formatting and a
regex — slows down together with the program's own code: interleaved with
GA runs or LLM-loop iterations on the 2-core host the bounds were set on,
0.6 s blocks of reference and work correlated at 0.95 to 0.97, and their
ratio varied 3 times less than the work.

While a timed block runs, a timer signal interrupts it every PERIOD_S and
runs the reference pass. The probes define a speed-corrected clock: it
stands still during a probe, and between two probes it runs at REFERENCE_S
per median duration of the nearby probes. Any interval inside a timed
block — a round, a call, a span — is read off that clock. The reference
never calls the program, so a faster program still reads faster. Only the
standard library is imported here, so the set-up probe can time
``import dsmseq`` with it.
"""

from __future__ import annotations

import bisect
import random
import re
import signal
import time

REFERENCE_S = 0.001  # nominal duration of one reference pass
PERIOD_S = 0.03
WINDOW_S = 0.15

_IDS = [f"task{i:03d}" for i in range(100)]
_ID_RE = re.compile(r"'(task\d+)'")


def reference_pass() -> int:
    rng = random.Random(0)
    table: dict[tuple[str, ...], int] = {}
    for _ in range(12):
        order = _IDS[:]
        rng.shuffle(order)
        table[tuple(order)] = len(_ID_RE.findall(", ".join(f"{{'id': {x!r}}}" for x in order)))
    return len(table)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def _reading(times: list[float], readings: list[float], t: float) -> float:
    i = bisect.bisect_right(times, t)
    if i == 0:
        return readings[0]
    if i == len(times):
        return readings[-1]
    t0, t1 = times[i - 1], times[i]
    return readings[i - 1] + (readings[i] - readings[i - 1]) * (t - t0) / (t1 - t0)


class Pace:
    """Probes taken in one process, as (start, end) pairs in time order."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_pass()
        self.probes.append((start, time.perf_counter()))

    def timed(self, body):
        """Run body() under the probe timer; returns (result, scaled s, raw s)."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            start = time.perf_counter()
            result = body()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        return result, self.scaled(start, end), end - start

    def knots(self) -> tuple[list[float], list[float]]:
        """The speed-corrected clock as a piecewise-linear function.

        Returns times and clock readings: the clock stands still during each
        probe and, between two probes, runs at REFERENCE_S per median
        duration of those two and of every probe within WINDOW_S of the
        stretch's middle.
        """
        mids = [(s + e) / 2 for s, e in self.probes]
        times: list[float] = []
        readings: list[float] = []
        reading = 0.0
        for i, (s1, e1) in enumerate(self.probes):
            if i:
                e0 = self.probes[i - 1][1]
                reach = WINDOW_S + (s1 - e0) / 2
                middle = (e0 + s1) / 2
                first = min(bisect.bisect_left(mids, middle - reach), i - 1)
                last = max(bisect.bisect_right(mids, middle + reach), i + 1)
                near = self.probes[first:last]
                reading += (s1 - e0) * REFERENCE_S / _median([e - s for s, e in near])
            times += [s1, e1]
            readings += [reading, reading]
        return times, readings

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed spent in [start, end] outside probes."""
        times, readings = self.knots()
        return _reading(times, readings, end) - _reading(times, readings, start)

    def median_probe_s(self) -> float:
        return _median([e - s for s, e in self.probes])
