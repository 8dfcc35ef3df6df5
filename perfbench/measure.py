"""Host-speed normalisation and the statistics the benchmark reports.

On a shared 2-core Intel Xeon host, where other tenants use the same
cores, speed drifts by a factor of up to 1.8 over tens of seconds.  A
fixed pure-Python kernel, run in short bursts between operations, tracks
that drift: in a probe the ratio of an operation's time to the kernel's
stayed within 3% while both swung by 65%.  Every reported time is
therefore the measured time scaled to a host on which one kernel call
takes ``KERNEL_REF_S`` ("normalised seconds"); raw times are printed
alongside.

The kernel allocates little.  A variant that also built many small
objects gave wider spreads over ten seeds (census ``wall_s`` 9% against
5%), so it was dropped.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# Kernel time that defines a normalised second: a quiet period on a
# shared 2-core Intel Xeon host under Python 3.11.
KERNEL_REF_S = 0.0033
BURST_EVERY_S = 0.25
BURST_REPS = 3


def kernel(n=3000):
    """Fixed mix of the operations trinorm spends its time on: list and
    dict traffic, tuple keys, small-int arithmetic and function calls."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts = {}
    acc = 0
    for i in range(n):
        a, b = find(i), find((i * 7919) % n)
        if a != b:
            parent[a] = b
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
        acc ^= (i * i) >> 3
    return acc + len(sorted(counts.items()))


class HostClock:
    """Kernel bursts interleaved with the measured work.

    ``normalised`` converts an interval to normalised seconds using the
    bursts taken just before and just after it, and any taken inside it,
    whose time it leaves out.  So the caller takes a burst before each
    measured call (``maybe_burst``) and one at the end.
    """

    def __init__(self):
        self.bursts = []          # (start, end, median kernel seconds)
        self.marks = []           # intervals recorded by ``timed``
        self._last = -math.inf

    def burst(self):
        start = perf_counter()
        times = []
        for _ in range(BURST_REPS):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        end = perf_counter()
        self.bursts.append((start, end, statistics.median(times)))
        self._last = end

    def maybe_burst(self):
        if perf_counter() - self._last >= BURST_EVERY_S:
            self.burst()

    now = staticmethod(perf_counter)

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between bursts, appending its interval to
        ``marks``; returns its result."""
        self.maybe_burst()
        t0 = perf_counter()
        result = fn(*args)
        self.marks.append((t0, perf_counter()))
        return result

    def segments(self, t0, t1):
        """The pieces of [t0, t1] outside any burst taken inside it, each
        with the kernel time around it: the mean of the bursts on either
        side, the last before t0 and the first after t1 included."""
        inner = [b for b in self.bursts if b[0] >= t0 and b[1] <= t1]
        before = [k for s, e, k in self.bursts if e <= t0][-1:]
        after = [k for s, e, k in self.bursts if s >= t1][:1]
        ks = (before or [None]) + [k for _, _, k in inner] + (after or [None])
        bounds = [t0] + [x for s, e, _ in inner for x in (s, e)] + [t1]
        out = []
        for j in range(len(inner) + 1):
            near = [k for k in ks[j:j + 2] if k is not None]
            if not near:
                raise RuntimeError("no host-speed burst near an interval")
            out.append((bounds[2 * j + 1] - bounds[2 * j],
                        sum(near) / len(near)))
        return out

    def raw(self, t0, t1):
        """Seconds of [t0, t1] not spent in bursts."""
        return sum(d for d, _ in self.segments(t0, t1))

    def normalised(self, t0, t1):
        return sum(d * KERNEL_REF_S / k for d, k in self.segments(t0, t1))

    def factor(self):
        """Median slowdown of the host over the run (1.0 = reference)."""
        return statistics.median(k for _, _, k in self.bursts) / KERNEL_REF_S


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it, or
    (None, beyond) when fewer than ten samples lie beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    beyond = len(xs) - rank
    return (xs[rank - 1] if beyond >= 10 else None), beyond


def size_exponent(points):
    """Least-squares slope of log(time) against log(size) over
    (size, time) points, one per rung."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
