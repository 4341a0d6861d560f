"""Calibrated time: wall time scaled to a reference speed of the machine.

The virtual machines this benchmark runs on share their host.  A fixed
pure-Python loop timed back to back on one of them runs up to twice as
slow in some stretches as in others, with CPU time equal to wall time and
no steal: the host slows the virtual CPU itself, and the slow and fast
stretches last seconds to minutes.  A raw wall time therefore moves with
the host as much as with the program.

A :class:`SpeedProbe` times a fixed loop of the benchmark's own (the
*probe*) between requests, outside every timed span, and scales each
request's wall time by ``NOMINAL_PROBE_S`` over the probe's time next to
it.  The probe is timed in CPU time of its own thread, so other processes
sharing its CPU (a server finishing a write-back) do not slow it, while
the host's slowdown does.  It runs with the garbage collector off and
touches none of the program's code, so a change to the program cannot
change it.  Every workload prints its raw wall-time figures beside the
calibrated ones.
"""

from __future__ import annotations

import gc
import random
import time

#: The probe's CPU time in a quiet stretch of the 2-vCPU x86 VM the
#: benchmark was written on.  Calibrated times read as wall times on that
#: machine at that speed; the constant only sets the scale.
NOMINAL_PROBE_S = 0.0032

#: Probe once per this much wall time between requests.
PROBE_EVERY_S = 0.1

#: A request is scaled by the median of this many probes nearest to it.
NEAREST = 5


def _probe_graph() -> tuple[int, ...]:
    rng = random.Random(20240611)
    n = 40
    adj = [0] * n
    for _ in range(110):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


_ADJ = _probe_graph()


def probe_work() -> int:
    """Bitset sweeps, dict and tuple traffic, like the enumerator's loops."""
    adj = _ADJ
    n = len(adj)
    seen_by: dict[tuple[int, int], int] = {}
    total = 0
    for r in range(6):
        for s in range(n):
            seen = 1 << s
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    new = adj[u] & ~seen
                    while new:
                        low = new & -new
                        seen |= low
                        nxt.append(low.bit_length() - 1)
                        new ^= low
                frontier = nxt
            key = (s, seen & 0xFFFF)
            seen_by[key] = seen_by.get(key, r) + 1
            total += bin(seen).count("1")
    return total + len(seen_by)


class SpeedProbe:
    """Probe samples of one run and the scale factors they give."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall midpoint, CPU s)
        self._last = float("-inf")
        for _ in range(3):  # the interpreter specializes the loop first
            probe_work()

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            cpu = time.thread_time()
            probe_work()
            cpu = time.thread_time() - cpu
            now = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((wall + now) / 2, cpu))
        self._last = now

    def burst(self) -> None:
        """Probe three times in a row: around a set-up, which runs for up
        to a second with no probe inside it."""
        for _ in range(3):
            self.probe()

    def tick(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_PROBE_S`` over the median time of the ``NEAREST``
        probes nearest to the span ``[start, end]``."""
        if not self.samples:
            raise RuntimeError("no probe samples")
        mid = (start + end) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        cpu = sorted(s[1] for s in nearest)
        return NOMINAL_PROBE_S / cpu[len(cpu) // 2]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> str:
        cpu = sorted(s[1] for s in self.samples)
        if not cpu:
            return "speed probe: no samples"
        return (
            f"speed probe: n={len(cpu)} median {1000 * cpu[len(cpu) // 2]:.3f} ms "
            f"min {1000 * cpu[0]:.3f} max {1000 * cpu[-1]:.3f} "
            f"(nominal {1000 * NOMINAL_PROBE_S:.3f} ms)"
        )
