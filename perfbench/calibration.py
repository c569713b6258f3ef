"""Timing at a reference CPU speed.

The machines this benchmark runs on share their cores with other jobs:
the same single-threaded Python loop runs up to twice as slow for
stretches of several seconds, so raw wall times of one run spread by
tens of percent. A fixed calibration kernel with the instruction mix of
a graph search (heap, set and dict operations and small numpy dot
products; no ``repro`` code) is therefore sampled at short intervals
along a timed stretch. The time between two samples, multiplied by
``REF_S`` over their mean, is that time at reference speed: the speed of
a core that runs the kernel in ``REF_S`` seconds. Stretches that cannot
be sampled closely take the median factor of the whole run instead.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

# The kernel's time on an unloaded core of a 4-core x86-64 VM (CPython
# 3.11, numpy 1.26). A constant: it only fixes the unit.
REF_S = 0.002


class Calibrator:
    def __init__(self) -> None:
        g = np.random.default_rng(20241017)
        self._vecs = g.normal(size=(256, 32)).astype(np.float32)
        self._adj = g.integers(-1, 256, (256, 16)).astype(np.int32)
        self.spent = 0.0  # seconds spent in the kernel so far
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; its wall time in seconds.

        A greedy walk over a fixed random graph whose edge loop iterates
        numpy int32 scalars, as Algorithm-1 edge selection does: kernels
        without that loop tracked the search's slowdowns three times
        less closely.
        """
        t0 = time.perf_counter()
        vecs, adj = self._vecs, self._adj
        q = vecs[0]
        seen = {0}
        heap = [(0.0, 0)]
        for _ in range(20):
            if not heap:
                break
            _, u = heapq.heappop(heap)
            fresh = []
            for v in adj[u]:
                if v < 0:
                    continue
                if 0 <= v <= 255 and v not in seen:
                    seen.add(int(v))
                    fresh.append(int(v))
            for v in fresh:
                d = vecs[v] - q
                heapq.heappush(heap, (float(np.dot(d, d)), v))
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append(dt)
        return dt

    def run_factor(self) -> float:
        """Multiplier taking a time to reference speed by the median of
        every sample so far, for a stretch that was not sampled closely:
        it follows the machine's speed over the run."""
        return REF_S / float(np.median(self.samples))

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a time measured between two samples to
        reference speed."""
        return REF_S / ((before + after) / 2)

    def time_within(self, owner, names: tuple[str, ...], fn, every: int):
        """Run ``fn()``, taking a sample at its start, before every
        ``every``-th call of any ``owner.<name>``, and at its end. Each
        stretch between two samples is scaled by their mean. Returns the
        result and the seconds at reference speed and raw, both without
        the samples' own time."""
        marks: list[tuple[float, float, float]] = []  # (start, end, sample)
        calls = [0]

        def mark() -> None:
            t0 = time.perf_counter()
            d = self.sample()
            marks.append((t0, time.perf_counter(), d))

        def hooked(inner):
            def call(*args, **kwargs):
                calls[0] += 1
                if calls[0] % every == 0:
                    mark()
                return inner(*args, **kwargs)

            return call

        saved = {name: getattr(owner, name) for name in names}
        for name, f in saved.items():
            setattr(owner, name, hooked(f))
        try:
            mark()
            out = fn()
            mark()
        finally:
            for name, f in saved.items():
                setattr(owner, name, f)
        raw = ref = 0.0
        for (_, end, d0), (start, _, d1) in zip(marks, marks[1:]):
            raw += start - end
            ref += (start - end) * self.factor(d0, d1)
        return out, ref, raw
