"""Wall time scaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over tens of seconds, with CPU time drifting alike, so raw times from runs
a minute apart are not comparable.  A fixed pure-Python loop, timed just
between measurements (at most INTERVAL_S apart), gives the current speed:
a measured time t counts as t * REF_S / (that loop's time), i.e. seconds at
the speed where the loop takes REF_S.  The loop does not use rcworm, so a
change to the program cannot move it; raw times are kept in the result file.

Set-up times are mostly process start-up, which that loop tracks poorly.
They are scaled by spawn_factor() instead: how long a bare interpreter takes
to start and exit, against REF_SPAWN_S.
"""

import statistics
import subprocess
import sys
import time

REF_S = 0.005
INTERVAL_S = 0.1
# A bare interpreter's start-up at the loop's reference speed (REF_S), as
# measured on a shared 2-vCPU virtual machine, so that scaled set-up times
# read as seconds on the same scale as the rest.
REF_SPAWN_S = 0.068


def reference_seconds():
    """Time of a fixed loop of dict, tuple and integer work (about REF_S)."""
    table = {}
    started = time.perf_counter()
    for i in range(20000):
        table[i & 255] = (i, table.get((i * 7) & 255, (0,))[0] + 1)
    return time.perf_counter() - started


def factor_now(samples=3):
    """REF_S over the median of a few reference loops: the current speed
    factor, less jittery than one loop's."""
    return REF_S / statistics.median(reference_seconds() for _ in range(samples))


def spawn_factor(samples=3):
    """REF_SPAWN_S over the median time of a few `python -c pass` processes."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - started)
    return REF_SPAWN_S / statistics.median(times)


class Scale:
    """Reference-loop samples taken at most INTERVAL_S apart between ops.

    mark() is called before each op; factors() then gives each op the mean
    of the samples just before and just after it, as REF_S / loop time."""

    def __init__(self):
        self.samples = []
        self.taken = float("-inf")
        self.marks = []

    def _sample(self):
        self.samples.append(REF_S / reference_seconds())
        self.taken = time.perf_counter()

    def mark(self):
        if time.perf_counter() - self.taken >= INTERVAL_S:
            self._sample()
        self.marks.append(len(self.samples) - 1)

    def factors(self):
        self._sample()
        s = self.samples
        return [(s[k] + s[k + 1]) / 2 for k in self.marks]
