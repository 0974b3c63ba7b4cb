"""Host-speed calibration inside a pass.

The host's speed drifts by tens of percent, over seconds and over minutes,
and differs between its CPUs.  A pass therefore measures the speed where
and while it runs: a timer interrupts it every SAMPLE_EVERY_S, and the
signal handler times one sample of a fixed piece of work of the kinds
ffrace does (small and big integers, tuples, dicts, lists, a NumPy
tally).  The pauses
are taken out of the pass's times (clock() is a pause-free clock), and the
samples' mean CPU time scales them to reference seconds: the time the pass
would have taken had one sample taken REFERENCE_S.
"""

import gc
import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.1
LOOPS = 2_000
REFERENCE_S = 0.003
BIG_MODULUS = (1 << 521) - 1


class HostSpeed:
    def __init__(self):
        self.samples = 0
        self.sample_cpu_s = 0.0   # CPU time of the samples themselves
        self.pause_s = 0.0        # wall time spent sampling
        self.pause_cpu_s = 0.0
        self.array = np.arange(1 << 16, dtype=np.int64) * 40503

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self):
        """Monotonic seconds, without the time spent sampling."""
        return time.monotonic() - self.pause_s

    def _on_timer(self, _signum, _frame):
        # the sample's allocations must not start a collection of the
        # program's heap, whose cost depends on the program, not the host
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        cpu = time.process_time()
        self._work()
        cpu_end = time.process_time()
        if collecting:
            gc.enable()
        self.samples += 1
        self.sample_cpu_s += cpu_end - cpu
        self.pause_cpu_s += time.process_time() - cpu
        self.pause_s += time.monotonic() - start

    def _work(self):
        table = {}
        items = []
        row = [0] * 64
        x, big = 1, 1
        for i in range(LOOPS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            key = (x >> 24, i & 15)
            table[key] = table.get(key, 0) + x
            items.append((x, key))
            big = (big * 3 + x) % BIG_MODULUS
            row[i & 63] += big >> 500
        np.bincount(self.array & 0xFFF)

    def factor(self):
        """Reference seconds per measured second (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * self.samples / self.sample_cpu_s
