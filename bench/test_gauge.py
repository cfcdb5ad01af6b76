"""The speed gauge rescales CPU time, keeps waiting time and samples only CPU time.

Run with ``python -m pytest bench``.
"""

import signal
import time

import gauge


def test_scaled_rescales_cpu_and_keeps_waiting():
    g = gauge.Gauge(sample=False)
    g.samples = [2 * gauge.REFERENCE_S] * 125  # 0.2 s at half the reference speed
    g.sampled_s = 0.2
    g.wall_s, g.cpu_s = 1.2, 0.8                # 0.6 s busy and 0.4 s waiting besides
    assert abs(g.own_wall_s - 1.0) < 1e-9
    assert abs(g.scaled() - (0.6 / 2 + 0.4)) < 1e-9
    g.steal_s = 0.1                             # a tenth of a second of it was stolen
    assert abs(g.scaled() - (0.6 / 2 + 0.3)) < 1e-9


def test_without_samples_scaled_is_wall_time():
    g = gauge.Gauge(sample=False)
    with g:
        time.sleep(0.01)
    assert not g.samples
    assert g.scaled() == g.own_wall_s == g.wall_s


def test_samples_are_taken_on_cpu_time_only():
    handler = signal.getsignal(signal.SIGPROF)
    with gauge.Gauge() as sleeping:
        time.sleep(0.1)
    with gauge.Gauge() as busy:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert not sleeping.samples
    assert busy.samples
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == handler
