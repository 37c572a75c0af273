"""CPU time at a fixed reference speed, measured with an in-process speed probe.

On a shared host the speed of one CPU second swings by a third or more
within seconds, as other tenants load the physical core and its caches,
so raw CPU times of the same work spread widely from run to run. The
probe tracks that speed while the measured code runs: a SIGPROF timer
interrupts the main thread every `INTERVAL_S` of its CPU time, and the
handler times a fixed snippet of interpreter work. Each stretch of CPU
time between two probes is scaled by the speed its closing probe saw,

    reference seconds = sum(stretch * REFERENCE_S / probe duration),

which is the CPU time the same work would take at the speed where one
probe lasts `REFERENCE_S`. Probe time itself is left out.

The process must run its work on the main thread alone (BLAS pinned to
one thread): the CPU clock is the main thread's, and the probe only sees
that thread's speed.
"""

import signal
import time
from typing import List, Tuple

INTERVAL_S = 0.005  # CPU time between two probes
SNIPPET_STEPS = 300
# Probe duration at the reference speed: about its median on the reference
# machine (2-vCPU VM, Intel Xeon, Python 3.11). Only the scale of the
# results depends on it.
REFERENCE_S = 6.0e-5

_clock = time.thread_time
_table: dict = {}


def _snippet() -> float:
    """Time one fixed piece of dict and integer work; returns its CPU time."""
    t0 = _clock()
    table = _table
    for i in range(SNIPPET_STEPS):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return _clock() - t0


class SpeedProbe:
    """Measure the main thread's CPU time between start() and stop()."""

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []  # (start, duration)
        self._t0 = 0.0

    def _sample(self, *_signal_args) -> None:
        t = _clock()
        self._samples.append((t, _snippet()))

    def start(self) -> None:
        if signal.getsignal(signal.SIGPROF) not in (signal.SIG_DFL, None):
            raise RuntimeError("SIGPROF already has a handler")
        self._samples.clear()
        signal.signal(signal.SIGPROF, self._sample)
        self._t0 = _clock()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Tuple[float, float, int]:
        """(CPU seconds, reference seconds, probes) since start; probes excluded."""
        t_end = _clock()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        # One closing probe gives the last stretch (or a call shorter than
        # one interval) a speed.
        samples = self._samples + [(t_end, _snippet())]
        cpu = ref = 0.0
        last = self._t0
        for t, dur in samples:
            stretch = max(t - last, 0.0)
            cpu += stretch
            ref += stretch * REFERENCE_S / max(dur, 1e-9)
            last = t + dur
        return cpu, ref, len(samples)
