"""The host's speed, sampled while a pass runs, to take host noise out of its times.

On a shared host the same Python work runs at speeds that step between
levels up to ~1.8x apart and stay at each for seconds to tens of seconds,
with each vCPU stepping on its own (other tenants share its core).  A pass's
raw time then says as much about the host as about halfcube, and a reference
loop timed before or after a pass, or in another process, misses the steps
the pass itself ran into.

The sampler therefore measures the host inside the pass: every
``INTERVAL_S`` of wall time a SIGALRM handler, which Python runs in the
worker's main thread between two bytecodes of halfcube's work, times one
fixed chunk of reference work on the same vCPU at the same moment.  A pass
that does work W in time T at speed s(t) has W = T * (mean of s over T), and
the samples are spread evenly over T, so

    factor = mean over samples of REFERENCE_S / chunk time   (< 1 while slow)
    normalised time = (raw time - time spent in chunks) * factor

is the time the pass would have taken on a host that runs one chunk in
REFERENCE_S.  The chunk is pure interpreter work (tuple-keyed dict lookups
and small-integer arithmetic, no allocation).  On the host the benchmark was
tuned on, log pass time against log mean chunk speed has slope 0.9-1.0 and
correlation 0.85-0.92, and normalising cut the spread of identical passes
(quartiles over median) from 14-26% to about 3-7%; mean chunk *time* instead
of mean speed, or a chunk that also loaded from a few MB of memory, tracked
less well.  A change to halfcube does not change the chunks, so a pass that
does less work reads faster at any host speed.  Sampling costs about 0.3% of
a pass, and that time is taken out of every figure.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
CHUNK_STEPS = 300
# Any fixed value would do; this is about one chunk's time, interleaved with
# halfcube's work, on the 2-vCPU Xeon host the benchmark was tuned on in a
# fast phase, so normalised times there read close to raw ones.
REFERENCE_S = 50e-6

# fixed scattered keys (importing random here would add to setup_s)
_KEYS = [((i * 40503 + 17) % 4099, (i * 9973 + 5) % 4093) for i in range(CHUNK_STEPS)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def chunk():
    """One fixed piece of reference work."""
    acc = 0
    table = _TABLE
    for key in _KEYS:
        acc = (acc * 31 + table[key]) % 1000003
    return acc


class Sampler:
    """Times one reference chunk every INTERVAL_S of wall time while started."""

    def __init__(self, on_chunk=None):
        self.on_chunk = on_chunk  # called with each chunk's wall seconds
        self.wall = []
        self.cpu = []
        self._previous = None

    def sample(self):
        w0, c0 = time.perf_counter(), time.thread_time()
        chunk()
        dc, dw = time.thread_time() - c0, time.perf_counter() - w0
        self.wall.append(dw)
        self.cpu.append(dc)
        if self.on_chunk is not None:
            self.on_chunk(dw)

    def start(self, interval=INTERVAL_S):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def spent_s(self):
        return sum(self.wall)

    @property
    def spent_cpu_s(self):
        return sum(self.cpu)

    def factors(self):
        """(wall factor, cpu factor): the mean sampled speed relative to the reference.

        (1.0, 1.0) without samples.  The CPU clock can read 0 for a chunk the
        scheduler never charged, so the CPU factor leaves such samples out.
        """
        if not self.wall:
            return 1.0, 1.0
        wall = sum(REFERENCE_S / d for d in self.wall) / len(self.wall)
        cpu = [REFERENCE_S / d for d in self.cpu if d > 0]
        return wall, sum(cpu) / len(cpu) if cpu else 1.0
