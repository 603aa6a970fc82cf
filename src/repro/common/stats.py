"""Lightweight statistics primitives used by the site manager (§4).

The site manager "collects performance data about the local site, e. g. the
workload, memory load, number of executable microframes in the queue" — these
counters and timers are its raw material, and the benchmark harness reads
them to report message counts, migrations, steals, and busy time.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple


@dataclass(slots=True)
class Counter:
    """A monotonically increasing event counter with a value accumulator."""

    count: int = 0
    total: float = 0.0

    def add(self, value: float = 1.0) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Counter") -> None:
        self.count += other.count
        self.total += other.total


@dataclass(slots=True)
class Gauge:
    """A sampled level: remembers the latest value and the peak seen.

    Used for instantaneous quantities a counter cannot express — e.g. the
    live transport's per-peer send-queue depth, where the high-water mark
    tells whether backpressure was ever close.
    """

    value: float = 0.0
    peak: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def merge(self, other: "Gauge") -> None:
        # Cross-site merge: instantaneous levels sampled on different sites
        # are not ordered in time, so neither overwriting nor summing is
        # meaningful — keep the max so a merged gauge reads "worst level any
        # site reported", consistent with the peak semantics.
        if other.value > self.value:
            self.value = other.value
        if other.peak > self.peak:
            self.peak = other.peak


class Histogram:
    """Fixed-bucket histogram with tail percentiles (p50/p95/max).

    Means hide tails — one 50 ms steal-latency outlier disappears in a
    thousand 0.5 ms ones — so latency-like quantities are recorded here.
    Buckets are log-spaced, quarter-decade resolution, spanning 1 µs to
    100 s (virtual or wall seconds); everything above overflows into the
    last bucket, and the exact maximum is tracked separately.  Percentiles
    report the upper bound of the bucket containing the rank, clamped to
    the observed maximum, so they are conservative (never under-report).
    """

    #: bucket upper bounds, 10^(-6) .. 10^2 in steps of 10^(1/4)
    BOUNDS: Tuple[float, ...] = tuple(10.0 ** (e / 4.0)
                                      for e in range(-24, 9))

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self) -> None:
        self.buckets = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank."""
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            cum += n
            if cum >= rank:
                if i < len(self.BOUNDS):
                    return min(self.BOUNDS[i], self.max)
                return self.max
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    def merge(self, other: "Histogram") -> None:
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> Dict[str, float]:
        return {"count": float(self.count), "mean": self.mean,
                "p50": self.p50, "p95": self.p95, "max": self.max}

    def __repr__(self) -> str:
        return (f"Histogram(n={self.count} p50={self.p50:g} "
                f"p95={self.p95:g} max={self.max:g})")


class StatSet:
    """A named collection of counters, cheap to create and merge.

    >>> s = StatSet()
    >>> s.inc("messages_sent")
    >>> s.add("bytes_sent", 128)
    >>> s["messages_sent"].count
    1
    """

    __slots__ = ("_counters", "_gauges", "_hists", "_lock")

    def __init__(self, locked: bool = False) -> None:
        """``locked=True`` serializes mutations — needed by the live TCP
        transport, whose reader/writer/heartbeat threads all count events;
        the single-threaded sim keeps the lock-free fast path."""
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._hists: Dict[str, Histogram] = {}
        self._lock: Optional[threading.Lock] = (
            threading.Lock() if locked else None)

    def __getitem__(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def inc(self, name: str) -> None:
        self.add(name, 1.0)

    def add(self, name: str, value: float) -> None:
        # Counters sit on the per-message hot path (the live transport's
        # locked ones too); both branches inline __getitem__ + Counter.add
        # to avoid three calls per counted event.
        lock = self._lock
        if lock is None:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.count += 1
            counter.total += value
            return
        with lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.count += 1
            counter.total += value

    def get(self, name: str) -> Counter:
        """Read-only access that does not create the counter."""
        return self._counters.get(name, Counter())

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def set_gauge(self, name: str, value: float) -> None:
        lock = self._lock
        if lock is None:
            self.gauge(name).set(value)
            return
        with lock:
            self.gauge(name).set(value)

    def hist(self, name: str) -> Histogram:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        lock = self._lock
        if lock is None:
            self.hist(name).observe(value)
            return
        with lock:
            self.hist(name).observe(value)

    def merge(self, other: "StatSet") -> None:
        for name, counter in other._counters.items():
            self[name].merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other._hists.items():
            self.hist(name).merge(hist)

    def items(self) -> Iterator[Tuple[str, Counter]]:
        return iter(sorted(self._counters.items()))

    def hist_items(self) -> Iterator[Tuple[str, Histogram]]:
        return iter(sorted(self._hists.items()))

    def as_dict(self) -> Dict[str, float]:
        out = {name: c.total for name, c in self._counters.items()}
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
            out[f"{name}_peak"] = gauge.peak
        for name, hist in self._hists.items():
            for key, value in hist.as_dict().items():
                out[f"{name}_{key}"] = value
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={c.total:g}" for k, c in self.items())
        return f"StatSet({inner})"
