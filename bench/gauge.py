"""A speed gauge sampled while lpo runs, so that timings hold still on a shared host.

On a shared host, other tenants change the speed a process sees: on a 2-core
Xeon VM a fixed pure-Python loop took anywhere from 1x to 2x its fastest
time, the state changing within a fraction of a second and lasting up to
minutes. Timings taken minutes apart then differ by more than most changes
to lpo would.

``Gauge`` is a stopwatch that, while it runs, interrupts the process after
every ``INTERVAL_S`` of its CPU time (``SIGPROF``) to run ``reference_loop``.
The samples, the loop's CPU time, follow the host's speed through the timed
span. ``scaled`` gives the span's time as it would be at reference speed,
where one sample takes ``REFERENCE_S``: the CPU part divided by the mean
sample over REFERENCE_S, the waiting part (sleeps, I/O) kept as measured,
and the samples' own time taken out. Waiting does not include steal time,
when the hypervisor ran another tenant instead of this machine: it is
neither the process's CPU time nor time lpo chose to wait. A stopwatch may
be started and stopped several times; it adds up the spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time

INTERVAL_S = 0.02     # CPU time between samples
LOOP = 200            # iterations of the reference loop per sample
REFERENCE_S = 0.0008  # one sample's CPU time at reference speed


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds a fixed loop of JSON encoding, hashing and dict inserts takes now.

    The CPU time is this thread's, so time the thread spent descheduled, and
    other threads' work, do not count as slowness.
    """
    wall, cpu = time.perf_counter(), time.thread_time()
    seen = {}
    for i in range(LOOP):
        text = json.dumps({"id": i, "text": f"example {i}"})
        seen[hashlib.sha256(text.encode()).hexdigest()] = text
    return time.perf_counter() - wall, time.thread_time() - cpu


def steal_time() -> float:
    """Seconds of steal time of the whole machine so far, or 0 where /proc/stat is missing.

    With one busy process, as in the benchmark, it is that process's.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Gauge:
    """Wall and CPU time of the spans it was running for, with speed samples."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []  # CPU time of each reference_loop()
        self.sampled_s = 0.0            # wall time of all of them
        self.wall_s = self.cpu_s = self.steal_s = 0.0
        self._sampling = False

    def _take(self, signum, frame) -> None:
        # a timer expiring during a sample would nest a second sample inside it
        if self._sampling:
            return
        self._sampling = True
        try:
            wall, cpu = reference_loop()
            self.sampled_s += wall
            self.samples.append(cpu)
        finally:
            self._sampling = False

    def __enter__(self) -> Gauge:
        if self.sample:
            self._previous = signal.signal(signal.SIGPROF, self._take)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._steal = steal_time()
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._wall
        self.cpu_s += time.process_time() - self._cpu
        self.steal_s += steal_time() - self._steal
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)

    @property
    def own_wall_s(self) -> float:
        """Wall time of the spans without the samples."""
        return self.wall_s - self.sampled_s

    def scaled(self) -> float:
        """The spans' time at reference speed."""
        wall = self.own_wall_s
        if not self.samples:
            return wall
        busy = min(self.cpu_s - sum(self.samples), wall)
        waited = max(0.0, wall - busy - self.steal_s)
        return busy * REFERENCE_S * len(self.samples) / sum(self.samples) + waited
