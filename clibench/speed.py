"""Speed-normalised timing.

The machine this benchmark was written on runs in speed phases: the same
pure-Python work takes up to 1.7 times longer for a second or more at a
time, and the phases of its two CPUs are unrelated, so only a probe in
the timed process itself sees the speed the program got. `Timer`
therefore times a fixed reference unit right before the timed region,
every INTERVAL seconds inside it (from a SIGALRM handler, which runs
between two bytecodes of the program), and right after it. The time
spent in the in-flight samples is taken out of the measured time, and
the rest is multiplied by the mean of R0 / r over the samples, where r
is a sample's duration and R0 the nominal duration of the unit: the
result is the time on a machine that always runs the unit in R0.
"""

from __future__ import annotations

import signal
import time

MASK64 = (1 << 64) - 1
REFERENCE_STEPS = 1000
# nominal seconds for one reference unit: about its median on the machine
# the README describes, so rescaled times read close to raw ones there
R0 = 1.0e-3
INTERVAL = 0.05


def reference_unit():
    """Fixed pure-Python work of the program's kind: int bit operations,
    dict probes and small tuple allocations."""
    x = 0x9E3779B97F4A7C15
    table = {}
    acc = 0
    for i in range(REFERENCE_STEPS):
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        key = (x & 511, i & 3)
        table[key] = table.get(key, 0) + 1
        acc += (x & -x).bit_length()
    return acc, len(table)


def time_reference():
    t = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t


class Timer:
    """Context manager: raw and speed-normalised seconds of its body."""

    def __enter__(self):
        self.samples = [time_reference()]
        self.inflight = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.start = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        r = time_reference()
        self.samples.append(r)
        self.inflight += r

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw_s = time.perf_counter() - self.start - self.inflight
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.samples.append(time_reference())
        self.factor = sum(R0 / r for r in self.samples) / len(self.samples)
        self.rescaled_s = self.raw_s * self.factor
        return False
