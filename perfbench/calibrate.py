"""Machine-speed calibration for the untraced runs.

The benchmark's reference machine is a shared 2-vCPU host whose speed drifts
by 20-30% over minutes, for every process alike. A fixed reference kernel,
timed in short slices interleaved with the workload, slows down and speeds up
with it: over 10-s windows of a verified request loop the program's own rate
spread by 0.13 while its ratio to the kernel's rate spread by 0.02. So every
timing of an untraced run is also expressed at a fixed reference speed:

    normalised time = measured time * REFERENCE_SLICE_S / (median slice time)

A ``SpeedProbe`` runs one slice from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time on the main thread, and keeps a clock that leaves
the slices out, so neither the program's measured time nor its request
latencies include them. The kernel is pure Python with ``hashlib``, independent
of the program, and runs with the collector off, so neither the program's
code nor its heap size changes what a slice costs.
"""

import gc
import hashlib
import signal
import statistics
import time

# median slice time on the reference machine (2 vCPUs, Python 3.11.7); only a
# scale, so normalised numbers read close to the measured ones there
REFERENCE_SLICE_S = 0.0100
INTERVAL_S = 0.2
MIN_SLICES = 5  # an interval with fewer is scaled by the nearest MIN_SLICES
WINDOW_S = 2.0  # a long phase is scaled window by window, as the speed drifts


class _Node:
    __slots__ = ("key", "left", "right", "digest")

    def __init__(self, key, left, right, digest):
        self.key, self.left, self.right, self.digest = key, left, right, digest


def reference_kernel(rounds: int = 40) -> bytes:
    """Fixed work shaped like the program's: SHA-256 of short inputs, small
    objects, a binary hash tree, dict inserts and lookups."""
    sha = hashlib.sha256
    table = {}
    acc = b"\x00" * 32
    for r in range(rounds):
        nodes = []
        for i in range(64):
            acc = sha(acc + i.to_bytes(4, "big")).digest()
            nodes.append(_Node(acc[:8], None, None, acc))
            table[acc[:4]] = (i, r)
        while len(nodes) > 1:
            nodes = [
                _Node(a.key, a, b, sha(b"\x01" + a.digest + b.digest).digest())
                for a, b in zip(nodes[::2], nodes[1::2])
            ]
        for key in list(table)[-64:]:
            table.get(key)
    return acc


class SpeedProbe:
    """Times reference slices during a phase; scales that phase's timings."""

    def __init__(self):
        self.spent = 0.0  # wall time spent in slices so far
        self.slices: list[tuple[float, float]] = []  # (program clock at slice, slice seconds)
        self._previous = None

    def _slice(self, *_signal):
        entered = time.perf_counter()
        at = entered - self.spent
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.slices.append((at, took))
        self.spent += time.perf_counter() - entered

    def now(self) -> float:
        """Wall clock less the time spent in slices."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t - spent

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_SLICE_S over the median slice time in [start, end] of ``now``."""
        inside = [took for at, took in self.slices if start <= at <= end]
        if len(inside) < MIN_SLICES:
            middle = (start + end) / 2
            nearest = sorted(self.slices, key=lambda s: abs(s[0] - middle))[:MIN_SLICES]
            inside = [took for _, took in nearest]
        return REFERENCE_SLICE_S / statistics.median(inside)

    def windows(self, start: float, end: float) -> list[tuple[float, float, float]]:
        """[start, end] cut into WINDOW_S pieces: (from, to, scale of that piece)."""
        cuts = [start]
        while end - cuts[-1] >= 1.5 * WINDOW_S:
            cuts.append(cuts[-1] + WINDOW_S)
        cuts.append(end)
        return [(a, b, self.scale(a, b)) for a, b in zip(cuts, cuts[1:])]

    def normalised(self, start: float, end: float) -> float:
        """Length of [start, end] at reference speed, each window at its own speed."""
        return sum((b - a) * scale for a, b, scale in self.windows(start, end))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.slices) < MIN_SLICES:  # short phases still get a scale
            self._slice()
