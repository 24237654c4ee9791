"""Per-layer tracing for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer of the
``repro`` package from outside it — class attributes for methods, and
every module binding of a module-level function — so the program's own
files stay untouched.  Each wrapper records one span per call in a
per-thread buffer: layer, parent span, start, end, self time (duration
minus the time covered by its child spans) and one layer-specific
integer (interpreter steps, bytes moved, cache hit, source hash).
Spans stay in memory until :meth:`LayerTracer.write` dumps them; the
per-layer metrics are folded from them by :meth:`LayerTracer.summary`.

Buffers are per thread, so concurrent campaigns (the server's pool
threads) never lose an update and the counts repeat exactly.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional

#: the layers, in report order; a span's layer is its index here
LAYERS = (
    "templates.generate",
    "frontend.parse",
    "compiler.validate",
    "compiler.cache",
    "compiler.lower",
    "compiler.interp",
    "compiler.exec_model",
    "accsim.memory",
    "accsim.asyncq",
    "journal.append",
    "harness.report",
    "harness.engine",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: latency samples recorded by the load generator itself, not by a
#: wrapper: the client's submit round trip and submit-to-campaign.start
SAMPLES = ("server.submit", "server.queue_wait")


class _Buffer:
    """One thread's spans, as parallel arrays of machine integers."""

    def __init__(self, thread: str):
        self.thread = thread
        self.layer = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.extra = array("q")
        #: open spans: [index, child_ns]
        self.stack: List[list] = []

    def __len__(self) -> int:
        return len(self.layer)


class LayerTracer:
    """Span recorder behind the installed wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._samples: Dict[str, List[float]] = {name: [] for name in SAMPLES}

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def sample(self, name: str, seconds: float) -> None:
        """Record one latency sample of a client-side measurement."""
        with self._lock:
            self._samples[name].append(seconds)

    def wrap(self, layer: str, fn: Callable,
             extra: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """A wrapper recording one ``layer`` span per call of ``fn``.

        ``before(args)`` runs before the call and its result is handed
        to ``extra(state, args, result)``, whose integer is stored with
        the span; with ``before`` alone, its own integer is stored, so
        calls that raise keep it too.
        """
        layer_id = _LAYER_ID[layer]
        clock = time.perf_counter_ns
        get_buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            index = len(buf.layer)
            buf.layer.append(layer_id)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.start.append(0)
            buf.end.append(0)
            buf.self_ns.append(0)
            buf.extra.append(0)
            frame = [index, 0]
            stack.append(frame)
            state = None
            if before is not None:
                state = before(args)
                if extra is None:
                    buf.extra[index] = state
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                buf.start[index] = start
                buf.end[index] = end
                buf.self_ns[index] = duration - frame[1]
            if extra is not None:
                buf.extra[index] = extra(state, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- results

    def span_count(self) -> int:
        return sum(len(buf) for buf in self._buffers)

    def summary(self) -> Dict[str, float]:
        """Fold the spans into the per-layer metrics (name -> value)."""
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        extra = [0] * len(LAYERS)
        sources = set()
        journal_ns: List[int] = []
        parse_id = _LAYER_ID["frontend.parse"]
        journal_id = _LAYER_ID["journal.append"]
        for buf in self._buffers:
            for i in range(len(buf)):
                lid = buf.layer[i]
                calls[lid] += 1
                self_ns[lid] += buf.self_ns[i]
                extra[lid] += buf.extra[i]
                if lid == parse_id:
                    sources.add(buf.extra[i])
                elif lid == journal_id:
                    journal_ns.append(buf.end[i] - buf.start[i])

        def layer(name: str):
            lid = _LAYER_ID[name]
            return calls[lid], self_ns[lid] / 1e9, extra[lid]

        out: Dict[str, float] = {}
        for name in LAYERS:
            n, busy, _ = layer(name)
            if name == "compiler.cache":
                out[f"{name}.lookups"] = n
            elif name != "harness.engine":
                out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = busy
        n, _, _ = layer("frontend.parse")
        out["frontend.parse.calls_per_source"] = (
            n / len(sources) if sources else 0.0)
        n, _, hits = layer("compiler.cache")
        out["compiler.cache.hit_ratio"] = hits / n if n else 0.0
        out["compiler.interp.steps"] = layer("compiler.interp")[2]
        out["accsim.memory.bytes"] = layer("accsim.memory")[2]
        out["journal.append.p50_ms"] = (
            statistics.median(journal_ns) / 1e6 if journal_ns else 0.0)
        with self._lock:
            for name in SAMPLES:
                values = self._samples[name]
                out[f"{name}.p50_ms"] = (
                    statistics.median(values) * 1e3 if values else 0.0)
        return out

    def write(self, path: str) -> None:
        """Dump every span as one tab-separated line (ns timestamps)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("thread\tspan\tparent\tlayer\tstart_ns\tend_ns\t"
                     "self_ns\textra\n")
            for t, buf in enumerate(self._buffers):
                for i in range(len(buf)):
                    # thread names repeat across pools: prefix the buffer
                    fh.write(f"{t}:{buf.thread}\t{i}\t{buf.parent[i]}\t"
                             f"{LAYERS[buf.layer[i]]}\t{buf.start[i]}\t"
                             f"{buf.end[i]}\t{buf.self_ns[i]}\t"
                             f"{buf.extra[i]}\n")


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _rebind_function(fn: Callable, wrapper: Callable) -> List[tuple]:
    """Point every loaded module's binding of ``fn`` at ``wrapper``;
    returns the ``(module, name, fn)`` bindings moved (callers that did
    ``from m import fn`` hold their own binding)."""
    moved = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is fn:
                setattr(module, name, wrapper)
                moved.append((module, name, fn))
    return moved


def _steps(state, args, result) -> int:
    return result.steps


def _cache_hit(state, args, result) -> int:
    return 1 if result.hit else 0


def _source_hash(args) -> int:
    return hash(args[0])


def _bytes_before(args) -> int:
    memory = args[0]
    return memory.bytes_to_device + memory.bytes_to_host


def _bytes_moved(state, args, result) -> int:
    memory = args[0]
    return memory.bytes_to_device + memory.bytes_to_host - state


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap every traced entry point of the ``repro`` package; returns a
    function that puts the originals back.

    Imports the modules first, so every ``from m import f`` binding that
    exists in the program is rebound; raises if an entry point is gone
    (the traced run must not silently measure nothing).
    """
    import repro.harness.report as report
    import repro.minic as minic
    import repro.minifort as minifort
    import repro.templates as templates
    from repro.accsim.asyncq import AsyncQueues
    from repro.accsim.memory import DeviceMemory
    from repro.compiler import closures
    from repro.compiler.cache import CompileCache
    from repro.compiler.exec_model import AccExecutor
    from repro.compiler.pipeline import Compiler, ProgramRunner
    from repro.harness.runner import ValidationRunner
    from repro.journal.wal import JournalWriter
    import repro.cli  # noqa: F401  (its bindings of the renderers)
    import repro.server.protocol  # noqa: F401

    functions = [
        ("templates.generate", templates.generate_functional, None),
        ("templates.generate", templates.generate_cross, None),
        ("frontend.parse", minic.parse_program, _source_hash),
        ("frontend.parse", minifort.parse_program, _source_hash),
        ("compiler.lower", closures.lower_program, None),
        ("harness.report", report.render_text, None),
        ("harness.report", report.render_csv, None),
        ("harness.report", report.render_html, None),
    ]
    originals: List[tuple] = []
    for layer, fn, before in functions:
        moved = _rebind_function(fn, tracer.wrap(layer, fn, before=before))
        if not moved:
            raise RuntimeError(f"no binding of {fn.__qualname__} to trace")
        originals.extend(moved)

    methods = [
        ("compiler.validate", Compiler, "validate", None, None),
        ("compiler.cache", CompileCache, "get_or_compile", _cache_hit, None),
        ("compiler.interp", ProgramRunner, "run", _steps, None),
        ("compiler.exec_model", AccExecutor, "exec_construct", None, None),
        ("compiler.exec_model", AccExecutor, "exec_acc_loop", None, None),
        ("compiler.exec_model", AccExecutor, "exec_standalone", None, None),
        ("accsim.memory", DeviceMemory, "enter", _bytes_moved, _bytes_before),
        ("accsim.memory", DeviceMemory, "exit", _bytes_moved, _bytes_before),
        ("accsim.memory", DeviceMemory, "update_host", _bytes_moved,
         _bytes_before),
        ("accsim.memory", DeviceMemory, "update_device", _bytes_moved,
         _bytes_before),
        ("accsim.asyncq", AsyncQueues, "wait", None, None),
        ("accsim.asyncq", AsyncQueues, "wait_all", None, None),
        ("journal.append", JournalWriter, "append", None, None),
        ("harness.engine", ValidationRunner, "run_suite", None, None),
    ]
    for layer, cls, name, extra, before in methods:
        fn = cls.__dict__[name]
        setattr(cls, name, tracer.wrap(layer, fn, extra=extra, before=before))
        originals.append((cls, name, fn))

    def uninstall() -> None:
        for owner, name, original in originals:
            setattr(owner, name, original)

    return uninstall
