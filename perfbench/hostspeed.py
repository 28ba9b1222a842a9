"""Program time at a fixed reference host speed.

The benchmark's reference host is a 2-core share of a Xeon server whose
speed wanders with its neighbours' load: the same pure-Python loop ran
from 0.081 to 0.116 s (median over ten-second windows) within two
minutes. Raw medians of program time spread wider than the benchmark's
bounds over ten runs, however long each run is.

The benchmark therefore times program work in segments and runs a short
fixed kernel, the probe, between them. A segment's seconds are scaled by
``REFERENCE_PROBE_S`` over the mean of the probes on either side, so the
result is the segment's duration on a host on which the probe takes
``REFERENCE_PROBE_S``. The probe uses nothing from ``repro``: a change to
the program moves the scaled time exactly as much as the raw time. The
probe mixes what the program spends its time on: small objects on a heap
and in a dict, method calls, a walk through a heap much larger than the
caches, and numpy FFTs over a stick block. Under a slow neighbour the
cache-resident part slows more than the program and the walk less; their
sum tracks it best.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "SegmentClock", "probe"]

#: Probe seconds on the reference host (median of warm probes).
REFERENCE_PROBE_S = 0.015

_BLOCK = (np.arange(64 * 128).reshape(64, 128) % 17).astype(np.complex128)


class _Event:
    __slots__ = ("t", "key", "value", "next")

    def __init__(self, t: float, key: int, value: float) -> None:
        self.t = t
        self.key = key
        self.value = value
        self.next: _Event | None = None

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def _build_heap(n: int = 200_000, lookups: int = 20_000) -> tuple[_Event, list[int], dict[int, _Event]]:
    """``n`` events chained in a fixed shuffled order, and a table over a
    quarter of them."""
    values = [float(v) for v in range(1024)]
    events = [_Event(0.0, 0, values[i & 1023]) for i in range(n)]
    order = np.random.default_rng(0).permutation(n)
    for i, j in zip(order, np.roll(order, -1)):
        events[i].next = events[j]
    table = {i * 7919 % 1_000_003: events[i] for i in range(0, n, 4)}
    return events[0], list(table)[:lookups], table


_HEAD, _KEYS, _TABLE = _build_heap()


def _walk(steps: int = 15_000) -> float:
    event, acc = _HEAD, 0.0
    for _ in range(steps):
        event.t += event.value * 0.5
        acc += event.t
        event = event.next
    for key in _KEYS:
        acc += _TABLE[key].value
    return acc


def _kernel(n: int = 8000, ffts: int = 12) -> float:
    queue: list = []
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        event = _Event(i * 0.37 % 11.0, i & 63, float(i))
        heapq.heappush(queue, (event.t, i, event))
        totals[event.key] = totals.get(event.key, 0.0) + event.advance(0.5)
        if len(queue) > 32:
            t, _, first = heapq.heappop(queue)
            acc += first.value * t
    for _ in range(ffts):
        acc += float(np.abs(np.fft.fft(_BLOCK, axis=1)).sum())
    return acc


def probe() -> float:
    """Seconds of one probe, with the garbage collector held off so the
    program's heap size does not reach into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        _walk()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SegmentClock:
    """Accumulates program time between probes, raw and scaled.

    ``start`` probes and opens a segment, ``split`` closes it, probes and
    opens the next, ``stop`` closes the last one. Probe time is in neither
    total.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._probe_s = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self.raw_s = self.scaled_s = 0.0
        self._probe_s = probe()
        self._t0 = time.perf_counter()

    def split(self) -> None:
        segment = time.perf_counter() - self._t0
        before, self._probe_s = self._probe_s, probe()
        self.raw_s += segment
        self.scaled_s += segment * 2.0 * REFERENCE_PROBE_S / (before + self._probe_s)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Close the last segment; ``(raw, scaled)`` seconds since ``start``."""
        self.split()
        return self.raw_s, self.scaled_s
