"""Speed normalization: a fixed reference kernel timed around every operation.

The vCPUs this benchmark was tuned on switch between two speeds, roughly
every second, so raw wall time does not repeat.  Each timed operation is
therefore bracketed by two timings of a fixed kernel, and its wall time is
scaled by the kernel's nominal time over the kernel's measured time (the
mean of the two brackets).  A normalized second is a second at the speed
where the kernel takes ``NOMINAL_KERNEL_S``.

The kernel mixes the three kinds of work the operations do: interpreted
Python, allocation and hashing, and numpy passes over arrays larger than the
cache.  A pure small-array numpy loop slowed down 2.0x between the two
speeds while the operations slowed 1.1-1.4x, so it over-corrected; the mixed
kernel slows about 1.5x and tracks them closer (README.md, "Normalization").
"""

from __future__ import annotations

import time

import numpy as np

# Fast-clock time of ``kernel`` on the reference machine (2 vCPU, Python
# 3.11.7, numpy 2.4.6): the 5th percentile of 3.8k timings over 20 s.
NOMINAL_KERNEL_S = 4.1e-3
_STREAM = np.linspace(-1.0, 1.0, 250_000)
_SCRATCH = np.empty_like(_STREAM)


def kernel() -> float:
    """Fixed mixed work; it never changes."""
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 7
    table = {}
    for i in range(3_000):
        table[str(i)] = i
    for i in range(3_000):
        acc += table[str(i)]
    total = float(acc)
    for shift in (0.25, 0.5, 0.75, 1.0):
        # Preallocated output: no page faults, so the allocator's state
        # cannot change the kernel's time.
        np.subtract(_STREAM, shift, out=_SCRATCH)
        np.abs(_SCRATCH, out=_SCRATCH)
        total += float(_SCRATCH.sum())
    return total


def kernel_time() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Timed:
    """Raw and normalized wall time of one bracketed interval."""

    __slots__ = ("raw", "factor")

    def __init__(self, raw: float, factor: float):
        self.raw = raw
        self.factor = factor

    @property
    def norm(self) -> float:
        return self.raw * self.factor


def timed(fn):
    """Run ``fn`` between two kernel timings; return (result, exc, Timed).

    An exception from the normmin package is returned, not raised, so the
    caller can count it as a failed operation.
    """
    from normmin import NormMinError

    before = kernel_time()
    exc = None
    result = None
    t0 = time.perf_counter()
    try:
        result = fn()
    except NormMinError as err:
        exc = err
    raw = time.perf_counter() - t0
    after = kernel_time()
    return result, exc, Timed(raw, NOMINAL_KERNEL_S / (0.5 * (before + after)))


class PhaseClock:
    """Normalized time of consecutive phases, with a kernel at each boundary.

    Used for set-up, which starts before numpy is imported: the first phase is
    scaled by the kernel at its end only.
    """

    def __init__(self, start: float):
        self._last_end = start
        self._last_kernel = None
        self.raw = 0.0
        self.norm = 0.0

    def mark(self) -> None:
        end = time.perf_counter()
        k = kernel_time()
        ref = k if self._last_kernel is None else 0.5 * (k + self._last_kernel)
        raw = end - self._last_end
        self.raw += raw
        self.norm += raw * NOMINAL_KERNEL_S / ref
        self._last_kernel = k
        self._last_end = time.perf_counter()
