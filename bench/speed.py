"""Host-speed probe: scales measured times to a CPU of fixed speed.

On a shared host the speed of a CPU swings by up to 1.5x, in spells of one
to sixty seconds, as other tenants load the machine.  A run of twenty
seconds then measures the neighbours as much as the program.  The probe
runs a fixed piece of work (zlib compression and interpreter bytecode, the
two kinds of work the program does) on the thread doing the measured work,
every :data:`INTERVAL_S`, and times it in thread CPU time.  A span of work
is then charged ``wall time x REFERENCE_S / probe time``: the time it would
have taken on a CPU on which the probe takes :data:`REFERENCE_S`.

Interleaved this way, probe and program slow down together.  Over 150 s of
``DetectionPipeline.run(256)`` repetitions on a noisy 2-vCPU host, the
coefficient of variation of a repetition's time was 0.142 as measured and
0.033 scaled.  The probe shares no code with the program, so a change that
makes the program faster shows in full.  Probe time is left out of the
span it interrupts.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import time
import zlib
from pathlib import Path

#: Probe time on the reference CPU: the median probe time on the host this
#: benchmark was calibrated on (2-vCPU VM, 2.1 GHz) in its fast spells.
REFERENCE_S = 0.00015
#: Seconds between probes; slow spells last a second or more.
INTERVAL_S = 0.05
#: A shorter span takes its speed from the probes of a window this long
#: around it, so that a 50 ms operation is not scaled by one probe.
MIN_WINDOW_S = 0.5

_rng = random.Random(20131)
_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789=&"
_BLOCKS = [bytes(_rng.choice(_ALPHABET) for __ in range(600)) for __ in range(4)]


def probe() -> int:
    """The fixed work.  It allocates no container object, so it never sets
    off a garbage collection of the program's objects."""
    total = 0
    for block in _BLOCKS:
        total += len(zlib.compress(block, 9))
    for i in range(1500):
        total += (i * 7) % 13
    return total


class SpeedProbe:
    """Probe samples ``(start, end, probe seconds)``; times are ``perf_counter``
    values, which every process on the host shares.

    :meth:`start` samples from a ``SIGALRM`` timer, whose handler runs on the
    main thread between two bytecodes of whatever it is doing; that thread
    must be the one doing the measured work, or, in a server, share its CPU.
    """

    def __init__(self, samples: list[tuple[float, float, float]] | None = None) -> None:
        self.samples: list[tuple[float, float, float]] = samples or []

    def sample(self) -> None:
        start = time.perf_counter()
        probe()  # warms caches and branch predictors; the second call is timed
        cpu = time.thread_time()
        probe()
        cpu = time.thread_time() - cpu
        self.samples.append((start, time.perf_counter(), cpu))  # one append: atomic to signals

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.samples), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SpeedProbe":
        return cls([tuple(s) for s in json.loads(Path(path).read_text(encoding="utf-8"))])

    def _starts(self) -> list[float]:
        return [s[0] for s in self.samples]

    def overhead(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` spent probing."""
        starts = self._starts()
        inside = self.samples[bisect.bisect_left(starts, start) : bisect.bisect_left(starts, end)]
        return sum(s[1] - s[0] for s in inside)

    def speed(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end)`` relative to the reference CPU
        (above 1: faster), from the probes inside it, or else from the
        nearest probe on either side.  Spans shorter than
        :data:`MIN_WINDOW_S` are widened to it about their middle."""
        widen = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        starts = self._starts()
        lo, hi = bisect.bisect_left(starts, start - widen), bisect.bisect_left(starts, end + widen)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        if lo == hi:
            raise ValueError("no probe samples")
        return sum(REFERENCE_S / s[2] for s in self.samples[lo:hi]) / (hi - lo)

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end)`` would take on the reference CPU, probes excluded."""
        return (end - start - self.overhead(start, end)) * self.speed(start, end)
