"""The clock the end-to-end metrics are timed on.

On a shared host two things change a run's timings that the program
does not control:

* the host takes the CPU away from the benchmark's thread (steal time,
  preemption), which stretches wall time but not CPU time;
* the CPU itself runs slower or faster (frequency, and cache and core
  sharing with other tenants), which stretches CPU time too.

:class:`HostClock` removes the first by counting only the time the
benchmark's thread ran (its CPU clock) or chose to wait (the time the
event loop blocked in its selector).  It measures the second with a
*probe*: a fixed pure-Python kernel (dicts, sets, tuples, a sort, over
the same constant data every time) that the event loop runs a few
times a second.  The probe's CPU time over ``REFERENCE_PROBE_S`` is the
host's slowdown at that moment; the benchmark divides the times it
measures nearby by it, so every time is reported at the speed of the
reference host.  The probe's own CPU time is taken out of the clock.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Sequence

#: The probe's median CPU time inside benchmark runs on the reference
#: host, a 2-vCPU Intel Xeon virtual machine at 2.1 GHz running
#: CPython 3.11.7 (about 1.1 ms when run alone).  It only sets the
#: scale of the reported times.
REFERENCE_PROBE_S = 0.00115

_rng = random.Random(20130318)
_KEYS = [(_rng.randrange(100_000), _rng.randrange(8)) for __ in range(2_500)]


def _probe_kernel() -> int:
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    seen = {obj for obj, __ in _KEYS}
    kept = [key for key in _KEYS if key[0] in seen and key[1] < 4]
    kept.sort()
    return len(kept) + len(counts)


class HostClock:
    """Thread CPU time plus selector idle time, minus probe time.

    ``idle_source`` is the loop's ``IdleSelector`` (anything with an
    ``idle`` attribute in seconds).
    """

    def __init__(self, idle_source) -> None:
        self.idle_source = idle_source
        #: CPU seconds spent in the probe so far (not on the clock).
        self.probe_s = 0.0
        #: ``(clock time, probe CPU seconds)`` per probe run.
        self.probes: list[tuple[float, float]] = []

    def now(self) -> float:
        return time.thread_time() + self.idle_source.idle - self.probe_s

    def probe(self) -> float:
        """Run the probe once; returns its CPU seconds."""
        at = self.now()
        started = time.thread_time()
        _probe_kernel()
        taken = time.thread_time() - started
        self.probe_s += taken
        self.probes.append((at, taken))
        return taken

    def slowdown(self, times: Sequence[float]) -> float:
        """The host's slowdown given probe CPU times: their median over
        the reference host's."""
        return statistics.median(times) / REFERENCE_PROBE_S

    def slowdown_between(self, start: float, end: float) -> float:
        """The slowdown from the probes run in ``[start, end)`` on this
        clock."""
        times = [taken for at, taken in self.probes if start <= at < end]
        if not times:
            raise ValueError(f"no probe ran between {start:.3f} and {end:.3f}")
        return self.slowdown(times)
