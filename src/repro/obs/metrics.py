"""Metric primitives: counters, gauges, histograms.

The harness's observability events fall into three shapes: things that
happen (``templates.run`` — a :class:`Counter`), levels that are
(``run.wall_s`` — a :class:`Gauge`), and distributions over many samples
(``iteration.steps`` — a :class:`Histogram` keeping count/sum/min/max
rather than raw samples, so a million-iteration run costs four floats).

A :class:`MetricsRegistry` owns the instruments by name.  It snapshots to
plain dicts (for the JSONL sink and for marshalling out of process-pool
workers) and merges snapshots back in (counters add, gauges last-write,
histograms fold), which is how per-worker metrics become one run-wide view.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A streaming distribution: count, sum, min, max."""

    __slots__ = ("name", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def fold(self, count: int, total: float,
             lo: Optional[float], hi: Optional[float]) -> None:
        with self._lock:
            self.count += count
            self.sum += total
            if lo is not None and (self.min is None or lo < self.min):
                self.min = lo
            if hi is not None and (self.max is None or hi > self.max):
                self.max = hi


class MetricsRegistry:
    """Named instruments plus snapshot/merge for cross-process transport."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self.counters.get(name)
            if instrument is None:
                instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self.gauges.get(name)
            if instrument is None:
                instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self.histograms.get(name)
            if instrument is None:
                instrument = self.histograms[name] = Histogram(name)
        return instrument

    # ------------------------------------------------- transport (pickleable)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self.counters.items()},
                "gauges": {n: g.value for n, g in self.gauges.items()},
                "histograms": {
                    n: (h.count, h.sum, h.min, h.max)
                    for n, h in self.histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, (count, total, lo, hi) in snapshot.get("histograms", {}).items():
            self.histogram(name).fold(count, total, lo, hi)

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


# ---------------------------------------------------------------------------
# null instruments (tracing disabled: every operation is a cheap no-op)
# ---------------------------------------------------------------------------


class _NullInstrument:
    __slots__ = ()
    name = ""
    value = 0
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Registry stand-in used by :class:`repro.obs.trace.NullTracer`."""

    counters: Dict[str, Counter] = {}
    gauges: Dict[str, Gauge] = {}
    histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: dict) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_METRICS = NullMetrics()
