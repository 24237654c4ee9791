"""The :class:`FaultInjector`: deterministic fault decisions at run time.

One injector is built per runner (one per process-pool worker) from the
:class:`~repro.faults.plan.FaultPlan` carried by the harness config.  All
decisions reduce to::

    Random(f"{seed}|{site}|{key}").random() < rate
    and (persistent or attempt_offset + attempt < max_fires)

``random.Random`` seeded with a string hashes it with SHA-512 (CPython's
``version=2`` seeding), so the decision is stable across processes and
interpreter runs — no ``PYTHONHASHSEED`` dependence.

The *attempt* is ambient: the engine's retry wrapper brackets each attempt
of a work unit in :meth:`FaultInjector.attempt`, and every site check in
that dynamic extent sees the attempt number (thread-local, so an attempt
scope never leaks into another thread).
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional


class InjectedFault(RuntimeError):
    """Base class of every injected failure; carries its site name."""

    site = "?"


class InjectedCompilerCrash(InjectedFault):
    """An internal compiler crash — deliberately *not* a CompileError."""

    site = "compile"


class InjectedRuntimeCrash(InjectedFault):
    """A transient harness-level crash during an iteration — deliberately
    *not* an AccRuntimeError, so it is never classified as a test verdict."""

    site = "iteration"


class InjectedJournalTear(InjectedFault):
    """A simulated crash mid-journal-append: the writer leaves a torn
    (half-written, unterminated) record on disk and this escapes to the
    top level like the process dying would.  The resume path's torn-tail
    truncation is what heals it."""

    site = "journal"


class FaultInjector:
    """Fires the sites of one :class:`~repro.faults.plan.FaultPlan`.

    ``sleeper`` (default :func:`time.sleep`) performs injected stalls and
    is injectable so tests can fake the clock.
    """

    enabled = True

    def __init__(self, plan, sleeper: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.sleeper = sleeper
        self._local = threading.local()

    # -------------------------------------------------------- attempt scope

    @contextmanager
    def attempt(self, unit_key: str, attempt: int):
        """Bracket one attempt of a work unit; site checks inside see it."""
        prev = getattr(self._local, "attempt", None)
        self._local.attempt = attempt
        try:
            yield
        finally:
            self._local.attempt = prev

    def current_attempt(self) -> int:
        attempt = getattr(self._local, "attempt", None)
        return 0 if attempt is None else attempt

    # ----------------------------------------------------------- decisions

    def fires(self, site: str, rate: float, key: str,
              attempt: Optional[int] = None) -> bool:
        """Deterministic decision for one site invocation."""
        if rate <= 0.0:
            return False
        plan = self.plan
        if attempt is None:
            attempt = self.current_attempt()
        if not plan.persistent and plan.attempt_offset + attempt >= plan.max_fires:
            return False
        return random.Random(f"{plan.seed}|{site}|{key}").random() < rate

    # --------------------------------------------------------------- sites

    def compile_site(self, key: str) -> None:
        """Called by :class:`FaultyCompiler` before every real compile."""
        if self.fires("compile", self.plan.compile_crash, key):
            raise InjectedCompilerCrash(
                f"injected internal compiler crash (key={key!r})"
            )

    def iteration_site(self, key: str) -> None:
        """Called before each iteration; may stall, then may crash."""
        if self.fires("stall", self.plan.stall, key):
            self.sleeper(self.plan.stall_s)
        if self.fires("iteration", self.plan.iteration_crash, key):
            raise InjectedRuntimeCrash(
                f"injected transient runtime crash (key={key!r})"
            )

    def worker_site(self, key: str, attempt: int) -> bool:
        """Should this process-pool worker die now?  (The caller performs
        the ``os._exit`` — only ever inside a pool worker.)"""
        return self.fires("worker", self.plan.worker_death, key,
                          attempt=attempt)

    def journal_site(self, key: str, generation: int) -> bool:
        """Should this journal append tear?  (The JournalWriter performs
        the partial write and raises :class:`InjectedJournalTear`.)  The
        journal's resume generation is the attempt number, so a torn
        write does not recur after the campaign is resumed."""
        return self.fires("journal", self.plan.journal_torn, key,
                          attempt=generation)

    # ------------------------------------------------------ server sites

    def conn_site(self, key: str, attempt: int) -> bool:
        """Should the server drop this connection mid-frame?  (A prefix
        of the response line is written, then the socket closes.)"""
        return self.fires("conn", self.plan.conn_drop, key, attempt=attempt)

    def frame_site(self, key: str, attempt: int) -> bool:
        """Should the server garble this ``repro.server/v1`` line?  (The
        frame's bytes are corrupted but the stream keeps its newline
        framing; the client treats it as a transport fault.)"""
        return self.fires("frame", self.plan.frame_garble, key,
                          attempt=attempt)

    def slow_client_site(self, key: str, attempt: int) -> bool:
        """Should this tail subscriber stall?  (The server's tail
        coroutine sleeps ``stall_s`` before draining its queue, the way a
        slow client would stop reading — the bounded subscriber queue
        evicts oldest and counts the drops.)"""
        return self.fires("slow_client", self.plan.slow_client, key,
                          attempt=attempt)


class NullInjector:
    """The default injector: nothing ever fires, nothing is allocated."""

    enabled = False
    plan = None

    @contextmanager
    def attempt(self, unit_key: str, attempt: int):
        yield

    def current_attempt(self) -> int:
        return 0

    def fires(self, site: str, rate: float, key: str,
              attempt: Optional[int] = None) -> bool:
        return False

    def compile_site(self, key: str) -> None:
        pass

    def iteration_site(self, key: str) -> None:
        pass

    def worker_site(self, key: str, attempt: int) -> bool:
        return False

    def journal_site(self, key: str, generation: int) -> bool:
        return False

    def conn_site(self, key: str, attempt: int) -> bool:
        return False

    def frame_site(self, key: str, attempt: int) -> bool:
        return False

    def slow_client_site(self, key: str, attempt: int) -> bool:
        return False


NULL_INJECTOR = NullInjector()


class FaultyCompiler:
    """Proxy around a :class:`~repro.compiler.pipeline.Compiler` that fires
    the ``compile`` site before delegating.

    The injected exception is raised *from inside* ``compile`` so the
    compile cache's never-raises contract is exercised exactly as a real
    internal compiler crash would exercise it.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def behavior(self):
        return self.inner.behavior

    def compile(self, source: str, language: str = "c",
                name: str = "<test>"):
        self.injector.compile_site(name)
        return self.inner.compile(source, language, name)

    def validate(self, facts):
        return self.inner.validate(facts)
