"""Compile cache: memoise ``Compiler.compile`` across suite runs.

The harness compiles the same generated program many times: repeated
iterations of one phase share a :class:`CompiledProgram` already, but the
Fig. 8 version sweeps, the Titan node sweeps and benchmark rounds recompile
byte-identical sources over and over.  A :class:`CompileCache` keyed on
``(source, language, name, behavior)`` makes every repeat a dictionary
lookup.  ``CompilerBehavior`` is a frozen (hashable) dataclass, so keying on
the whole behaviour — rather than just its label — guarantees two
implementations can never alias each other's cache entries.

Compile *errors* are cached too (negative caching): a vendor version that
rejects a directive rejects it identically on every attempt, and the
error-heavy beta sweeps benefit the most.

The cache is thread-safe and single-flight: concurrent lookups of one
key share one compile, so a key is compiled (and counted as a miss) once
however many threads race for it.  Under the ``process`` policy each
worker process holds its own cache, and the engine aggregates hit
counters from the per-phase flags carried by the results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from repro.compiler.errors import CompileError, CompilerCrashError

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.behavior import CompilerBehavior
    from repro.compiler.pipeline import CompiledProgram, Compiler

#: default number of entries kept (LRU beyond this); one full-suite run
#: against one behaviour needs ~2 entries per template (functional + cross)
DEFAULT_MAXSIZE = 4096


@dataclass
class CacheOutcome:
    """Result of a cached compile: exactly one of program/error is set."""

    program: Optional["CompiledProgram"]
    error: Optional[CompileError]
    hit: bool


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache counters.

    Taken under the cache lock, so ``hits + misses == lookups`` always
    holds *within one snapshot* — reading the ``hits``/``misses``
    attributes separately from another thread can tear (one counter
    from before a concurrent update, the other from after) and report
    totals that don't sum to the number of lookups.
    """

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompileCache:
    """Bounded LRU cache of compile results (successes and errors)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, Tuple[object, object]]" = OrderedDict()
        #: key -> Future of the (program, error) pair being compiled now
        self._inflight: "dict[tuple, Future]" = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        return self.stats().hit_rate

    def stats(self) -> CacheStats:
        """Snapshot hits/misses/entries atomically (see CacheStats)."""
        with self._lock:
            return CacheStats(
                hits=self.hits, misses=self.misses, entries=len(self._entries)
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------ api

    @staticmethod
    def key(source: str, language: str, name: str,
            behavior: "CompilerBehavior") -> tuple:
        return (source, language, name, behavior)

    def get_or_compile(
        self,
        compiler: "Compiler",
        source: str,
        language: str,
        name: str,
        tracer=None,
    ) -> CacheOutcome:
        """Compile through the cache; never raises.

        A cached :class:`CompileError` counts as a hit — the second
        rejection is exactly as informative as the first and much cheaper.
        A *non*-``CompileError`` exception (an internal compiler crash) is
        accounted as a miss, wrapped in :class:`CompilerCrashError` and
        surfaced as the outcome's error — never cached, never raised.

        Single-flight: the first lookup of a key compiles it (one miss);
        lookups racing it wait for that compile and count as hits.  They
        receive its outcome, a crash included — the next lookup after the
        crash compiles afresh.

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives
        ``compile.cache_hit``/``compile.cache_miss`` events and counters;
        cached errors are hits, fresh errors additionally bump
        ``compile.errors``.
        """
        k = self.key(source, language, name, compiler.behavior)
        observe = tracer is not None and tracer.enabled
        with self._lock:
            entry = self._entries.get(k)
            flight = None
            if entry is not None:
                self._entries.move_to_end(k)
                self.hits += 1
            else:
                flight = self._inflight.get(k)
                if flight is not None:
                    self.hits += 1
                else:
                    self.misses += 1
                    self._inflight[k] = Future()
        if entry is not None or flight is not None:
            if entry is None:
                entry = flight.result()
            program, error = entry
            if observe:
                tracer.event("compile.cache_hit", template=name,
                             language=language)
                tracer.metrics.counter("compile.cache_hits").inc()
            return CacheOutcome(program=program, error=error, hit=True)
        if observe:
            tracer.event("compile.cache_miss", template=name,
                         language=language)
            tracer.metrics.counter("compile.cache_misses").inc()
        cacheable = True
        try:
            entry = (compiler.compile(source, language, name), None)
        except CompileError as err:
            entry = (None, err)
            if observe:
                tracer.metrics.counter("compile.errors").inc()
        except Exception as err:  # internal compiler crash: keep the contract
            # The miss is accounted (the attempt really went to the
            # compiler) but nothing is cached: a transient crash must not
            # poison future compiles of the same source the way a
            # negative-cached diagnostic would.
            if observe:
                tracer.event("compile.crashed", template=name,
                             language=language, error=repr(err))
                tracer.metrics.counter("compile.crashes").inc()
            crash = CompilerCrashError(
                f"internal compiler crash: {err!r}", cause=err
            )
            entry, cacheable = (None, crash), False
        except BaseException as err:  # interrupted: release the waiters too
            with self._lock:
                flight = self._inflight.pop(k)
            flight.set_exception(err)
            raise
        self._land(k, entry, cacheable)
        return CacheOutcome(program=entry[0], error=entry[1], hit=False)

    def _land(self, k: tuple, entry: Tuple[object, object],
              cacheable: bool) -> None:
        """Finish the key's flight: store ``entry`` (unless it is a crash)
        and hand it to every waiter."""
        with self._lock:
            if cacheable:
                self._entries[k] = entry
                self._entries.move_to_end(k)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            flight = self._inflight.pop(k)
        flight.set_result(entry)
