"""Host-speed probe: a fixed piece of pure-Python work, timed while the
benchmark measures.

The benchmark runs on a shared VM whose speed swings by 1.5x within
seconds with other tenants' load, on each vCPU independently, so raw
seconds of the same operation spread by 20-35% from run to run.  The
probe does the same small amount of work every time (``Fraction``
products, tuple keys in a dict: the kind of work ``borbits`` does), so
its duration measures how fast the host runs Python at that moment.

During an operation a ``Sampler`` runs the probe from a SIGALRM handler
every ``INTERVAL_S`` of wall time, in the operation's own thread, so
the samples see the same host speed as the operation does.  Rescaling
the operation's seconds by ``REFERENCE_S`` over the probe's harmonic
mean duration gives its time at reference speed: the time it takes on
a host where one probe takes ``REFERENCE_S``.  The harmonic mean is
the right average for samples spaced evenly in wall time: work done is
the integral of speed, and speed is 1 / probe duration.
"""

import signal
import time
from fractions import Fraction

# the probe's duration on the 2-vCPU VM the benchmark was written on,
# when that host is at its usual speed; any constant would do, this one
# keeps seconds at reference speed close to that host's wall seconds
REFERENCE_S = 0.0004

# wall seconds between two probes during an operation: ~2% of its time
INTERVAL_S = 0.02

# probes run back to back to measure speed outside an operation
BURST = 8

_BASE = tuple(tuple(Fraction(3 * i + j + 1, j + 2) for j in range(3)) for i in range(3))


def work() -> int:
    """The probe's fixed work; the result only keeps it from being idle."""
    counts = {}
    for i in range(300):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + 1
    m = _BASE
    for _ in range(2):
        m = tuple(tuple(sum(m[i][k] * _BASE[k][j] for k in range(3)) for j in range(3))
                  for i in range(3))
    return len(counts) + m[0][0].denominator


def timed() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def burst(count: int = BURST) -> list[float]:
    """``count`` probe durations, back to back, after one untimed warm-up."""
    work()
    return [timed() for _ in range(count)]


def harmonic_mean(durations: list[float]) -> float:
    return len(durations) / sum(1.0 / d for d in durations)


def at_reference(seconds: float, durations: list[float]) -> float:
    """``seconds`` measured while the probe took ``durations``, rescaled
    to reference speed."""
    return seconds * REFERENCE_S / harmonic_mean(durations)


class Sampler:
    """Times the probe every ``INTERVAL_S`` while active; the durations
    accumulate in ``durations``."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.durations.append(timed())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
