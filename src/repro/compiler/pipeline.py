"""Compilation pipeline: frontend -> validation -> executable.

``Compiler.compile`` parses the source with the language's frontend and runs
a semantic validation pass that produces the paper's *compile-time* error
class: unknown or version-gated directives/clauses, features the simulated
vendor does not support, the CAPS constant-expression restriction (Fig. 9),
missing runtime routines, user procedure calls inside compute regions (1.0
has no ``routine`` directive — Section V-C "Procedure calls"), and
``default(none)`` violations (2.0).

A successful compile yields a :class:`CompiledProgram` that can be run many
times — each run gets a fresh simulated machine, matching the harness's
repeat-M-iterations methodology.

Neither parsing nor most of validation depends on the behaviour, so every
compile goes through the process-wide :data:`PARSE_MEMO`: a source is
parsed once, its behaviour-independent :class:`ValidationFacts` are
extracted once, and ``validate`` only applies the behaviour to them.  The
Fig. 8 sweeps compile each source under every version of a vendor.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union,
)

from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR
from repro.compiler.closures import lower_program
from repro.compiler.errors import CompileError, UnsupportedFeatureError
from repro.compiler.interp import ExecutionLimits, ExecutionResult, Interpreter, builtin_names
from repro.frontend.errors import FrontendError
from repro.ir.acc import Directive
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Call,
    DeclStmt,
    Ident,
    IntLit,
    Program,
    SourceLocation,
    walk,
)
from repro.spec.versions import ACC_20

# ---------------------------------------------------------------------------
# clause allowance table — owned by the static checker so the simulated
# compilers and `repro lint` can never disagree about legality
# ---------------------------------------------------------------------------

from repro.staticcheck.legality import (  # noqa: E402
    ALLOWED_CLAUSES,
    V20_CLAUSES as _V20_CLAUSES,
    V20_DIRECTIVES as _V20_DIRECTIVES,
)

_PARALLELISM_SIZE_CLAUSES = ("num_gangs", "num_workers", "vector_length")

#: runtime routines known to the 1.0 runtime library
_KNOWN_ROUTINES = {
    "acc_get_num_devices", "acc_set_device_type", "acc_get_device_type",
    "acc_set_device_num", "acc_get_device_num", "acc_async_test",
    "acc_async_test_all", "acc_async_wait", "acc_async_wait_all",
    "acc_init", "acc_shutdown", "acc_on_device", "acc_malloc", "acc_free",
}


@dataclass
class CompiledProgram:
    """The output of a successful compile: runnable any number of times."""

    program: Program
    behavior: CompilerBehavior
    source: str = ""
    warnings: List[str] = field(default_factory=list)

    def run(
        self,
        env_vars: Optional[Dict[str, str]] = None,
        limits: Optional[ExecutionLimits] = None,
        rng_seed: int = 12345,
    ) -> ExecutionResult:
        """Execute on a fresh simulated machine (one harness iteration)."""
        return ProgramRunner(self).run(env_vars, limits, rng_seed)


class ProgramRunner:
    """Batched per-phase executor for one compiled program.

    The harness runs every phase M times.  Everything that is a pure
    function of (program, behavior) is built here once and shared across
    those iterations: the closure lowering of the program
    (:func:`repro.compiler.closures.lower_program`) and the machine's
    :class:`ExecProfile` (read-only at runtime).  The lowering lives as
    long as the runner, so a campaign holds one phase's lowering at a
    time.  Every iteration still gets a *fresh* :class:`Machine` and
    interpreter, so device counters, globals and RNG state match a cold
    run exactly.
    """

    def __init__(self, compiled: CompiledProgram):
        from repro.accsim.device import ExecProfile

        self.compiled = compiled
        behavior = compiled.behavior
        self._profile = ExecProfile(
            default_num_gangs=behavior.default_num_gangs,
            default_num_workers=behavior.default_num_workers,
            default_vector_length=behavior.default_vector_length,
            worker_ignored=behavior.worker_ignored,
            mapping=behavior.mapping_description,
        )
        self._lowered = lower_program(compiled.program)

    def run(
        self,
        env_vars: Optional[Dict[str, str]] = None,
        limits: Optional[ExecutionLimits] = None,
        rng_seed: int = 12345,
    ) -> ExecutionResult:
        from repro.accsim.machine import Machine

        behavior = self.compiled.behavior
        machine = Machine(
            accel_count=1,
            accel_device_type=behavior.concrete_device_type,
            profile=self._profile,
        )
        interp = Interpreter(
            self.compiled.program,
            behavior=behavior,
            machine=machine,
            env_vars=env_vars,
            rng_seed=rng_seed,
            lowered=self._lowered,
        )
        return interp.run(limits=limits)


# ---------------------------------------------------------------------------
# parse memo: one parse per source per process, whatever the behaviour
# ---------------------------------------------------------------------------

#: entries the process-wide parse memo keeps (LRU beyond this).  The
#: shipped corpus has 432 distinct sources — functional and cross
#: variants, both languages, the 1.0, 2.0 and combination suites — so no
#: sweep over it ever evicts one.
PARSE_MEMO_SIZE = 1024

_COMPUTE_KINDS = ("parallel", "kernels", "parallel loop", "kernels loop")


class _Clause(NamedTuple):
    name: str
    loc: SourceLocation
    #: a ``num_gangs``/``num_workers``/``vector_length`` argument that is
    #: not an integer literal (rejected by CAPS < 3.1.0, Fig. 9)
    sized: bool
    op: Optional[str]


class _Directive(NamedTuple):
    kind: str
    loc: SourceLocation
    clauses: Tuple[_Clause, ...]


class _Region(NamedTuple):
    """A compute region: its user-procedure calls (walk order, up to
    ``error``) and its first behaviour-independent error — a call to an
    unknown function, else a ``default(none)`` violation — as
    ``(message, loc)``."""

    user_calls: Tuple[Tuple[str, SourceLocation], ...]
    error: Optional[Tuple[str, SourceLocation]]


@dataclass(frozen=True)
class ValidationFacts:
    """What :meth:`Compiler.validate` reads of a program, extracted once
    per source: plain immutable data, shared by every compile of it."""

    #: directives and compute regions, in the order they are checked
    steps: Tuple[Union[_Directive, _Region], ...]
    #: functions carrying a 2.0 ``routine`` directive
    routines: FrozenSet[str]
    #: every ``acc_*`` call, for the link check
    runtime_calls: Tuple[Tuple[str, SourceLocation], ...]


def _validation_facts(program: Program) -> ValidationFacts:
    user_functions = {fn.name for fn in program.functions}
    builtin = set(builtin_names())
    steps: List[Union[_Directive, _Region]] = []
    runtime_calls = []
    for fn in program.functions:
        steps.extend(_directive_facts(d) for d in fn.declares)
        for node in walk(fn.body):
            if isinstance(node, (AccConstruct, AccLoop, AccStandalone)):
                steps.append(_directive_facts(node.directive))
                if (not isinstance(node, AccStandalone)
                        and node.directive.kind in _COMPUTE_KINDS):
                    body = node.body if isinstance(node, AccConstruct) else node.loop
                    steps.append(_region_facts(
                        node.directive, body, program, user_functions, builtin))
            elif isinstance(node, Call) and node.name.startswith("acc_"):
                runtime_calls.append((node.name, node.loc))
    routines = frozenset(
        fn.name for fn in program.functions
        if any(d.kind == "routine" for d in fn.declares)
    )
    return ValidationFacts(tuple(steps), routines, tuple(runtime_calls))


def _directive_facts(d: Directive) -> _Directive:
    return _Directive(d.kind, d.loc, tuple(
        _Clause(
            c.name, c.loc,
            c.name in _PARALLELISM_SIZE_CLAUSES and c.expr is not None
            and not isinstance(c.expr, IntLit),
            c.op,
        )
        for c in d.clauses
    ))


def _region_facts(d: Directive, body, program: Program,
                  user_functions: Set[str], builtin: Set[str]) -> _Region:
    """1.0 cannot call user procedures inside compute regions; nothing
    can call an unknown function."""
    user_calls = []
    for node in walk(body):
        if isinstance(node, Call):
            if node.name in user_functions:
                user_calls.append((node.name, node.loc))
            elif node.name not in builtin:
                return _Region(tuple(user_calls), (
                    f"call to unknown function {node.name!r}", node.loc))
    return _Region(tuple(user_calls), _default_none_violation(d, body, program))


def _default_none_violation(d: Directive, body, program: Program):
    """2.0 ``default(none)``: every referenced outer variable needs an
    explicit data attribute.  The first violation as (message, loc)."""
    clause = d.clause("default")
    if clause is None or clause.op != "none":
        return None
    explicit: Set[str] = set()
    for c in d.clauses:
        explicit.update(c.var_names)
    declared = {
        decl.name
        for node in walk(body)
        if isinstance(node, DeclStmt)
        for decl in node.decls
    }
    loop_vars = {
        node.var for node in walk(body) if hasattr(node, "var") and hasattr(node, "bound")
    }
    known_globals = {g.name for g in program.globals}
    for node in walk(body):
        if isinstance(node, Ident):
            name = node.name
            if (
                name not in explicit
                and name not in declared
                and name not in loop_vars
                and not name.startswith("acc_device_")
                and name not in known_globals
            ):
                return (f"default(none): variable {name!r} lacks an explicit "
                        "data attribute", node.loc)
    return None


class _Failure(NamedTuple):
    """A memoised frontend error, raised afresh on every hit."""

    cls: type
    message: str
    loc: SourceLocation


def _frontend(language: str):
    # looked up on the frontend package at call time, not bound here, so
    # a rebinding of ``parse_program`` there (instrumentation) applies
    if language == "c":
        from repro import minic as frontend
    elif language == "fortran":
        from repro import minifort as frontend
    else:
        raise UnsupportedFeatureError(f"unknown language {language!r}")
    return frontend.parse_program


class ParseMemo:
    """Bounded, thread-safe LRU of parses keyed by
    ``(source, language, name)``.

    An entry holds the program pickled, so every caller gets a private
    tree — no compile, behaviour or thread can see another's mutations —
    plus its :class:`ValidationFacts`, which are immutable and shared.
    A :class:`FrontendError` is held as data and raised afresh on each
    hit.  Two threads missing one key at once both parse it; the results
    are identical and the later store wins.
    """

    def __init__(self, maxsize: int = PARSE_MEMO_SIZE):
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def parse(self, source: str, language: str,
              name: str) -> Tuple[Program, ValidationFacts]:
        """A private tree of ``source`` and its facts.  Raises what the
        frontend raised, or :class:`UnsupportedFeatureError` for an
        unknown language."""
        parse_program = _frontend(language)
        key = (source, language, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if type(entry) is _Failure:
            raise entry.cls(entry.message, entry.loc)
        if entry is not None:
            blob, facts = entry
            return pickle.loads(blob), facts
        try:
            program = parse_program(source, filename=name, name=name)
        except FrontendError as err:
            self._store(key, _Failure(type(err), err.message, err.loc))
            raise
        facts = _validation_facts(program)
        try:
            blob = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
        except RecursionError:  # nested deeper than pickle goes: not kept
            return program, facts
        self._store(key, (blob, facts))
        return program, facts

    def _store(self, key: tuple, entry: object) -> None:
        with self._lock:
            # evict first: a lock-free len() never sees maxsize + 1
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
            self._entries[key] = entry
            self._entries.move_to_end(key)


#: the process-wide memo every :class:`Compiler` and the linter parse
#: through
PARSE_MEMO = ParseMemo()


class Compiler:
    """An OpenACC implementation: frontends + validation + simulator."""

    def __init__(self, behavior: CompilerBehavior = REFERENCE_BEHAVIOR):
        self.behavior = behavior

    # ------------------------------------------------------------- compile

    def compile(self, source: str, language: str = "c", name: str = "<test>") -> CompiledProgram:
        if not self.behavior.supports_language(language):
            raise UnsupportedFeatureError(
                f"{self.behavior.label} has no {language} frontend"
            )
        try:
            program, facts = PARSE_MEMO.parse(source, language, name)
        except FrontendError as err:
            raise CompileError(str(err)) from err
        warnings = self.validate(facts)
        return CompiledProgram(
            program=program, behavior=self.behavior, source=source,
            warnings=warnings,
        )

    # ------------------------------------------------------------ validation

    def validate(self, facts: ValidationFacts) -> List[str]:
        """Apply this behaviour to a program's validation facts; raises
        the first violation in source order."""
        behavior = self.behavior
        routines = facts.routines if behavior.spec_version >= ACC_20 else ()
        for step in facts.steps:
            if type(step) is _Directive:
                self._check_directive(step)
                continue
            for name, loc in step.user_calls:
                if name not in routines:
                    raise UnsupportedFeatureError(
                        f"call to user procedure {name!r} inside a compute "
                        "region (OpenACC 1.0 has no `routine` directive)",
                        loc,
                    )
            if step.error is not None:
                raise CompileError(*step.error)
        # link check: runtime routines must exist in this implementation
        for name, loc in facts.runtime_calls:
            if name not in _KNOWN_ROUTINES:
                raise CompileError(f"unknown runtime routine {name}", loc)
            if name in behavior.unsupported_routines:
                raise UnsupportedFeatureError(
                    f"{behavior.label} does not provide {name}", loc
                )
        return []

    def _check_directive(self, d: _Directive) -> None:
        behavior = self.behavior
        if d.kind in _V20_DIRECTIVES and behavior.spec_version < ACC_20:
            raise UnsupportedFeatureError(
                f"`{d.kind}` requires OpenACC 2.0 "
                f"({behavior.label} implements {behavior.spec_version})",
                d.loc,
            )
        if d.kind in behavior.unsupported_directives:
            raise UnsupportedFeatureError(
                f"{behavior.label} does not support the `{d.kind}` directive",
                d.loc,
            )
        allowed = ALLOWED_CLAUSES.get(d.kind)
        if allowed is None:
            raise CompileError(f"unknown directive `{d.kind}`", d.loc)
        for clause in d.clauses:
            if clause.name in _V20_CLAUSES and behavior.spec_version < ACC_20:
                raise UnsupportedFeatureError(
                    f"clause `{clause.name}` requires OpenACC 2.0", clause.loc
                )
            if clause.name not in allowed and clause.name not in _V20_CLAUSES:
                raise CompileError(
                    f"clause `{clause.name}` is not valid on `{d.kind}`",
                    clause.loc,
                )
            if (d.kind, clause.name) in behavior.unsupported_clauses:
                raise UnsupportedFeatureError(
                    f"{behavior.label} does not support `{clause.name}` on "
                    f"`{d.kind}`",
                    clause.loc,
                )
            if behavior.require_constant_parallelism_exprs and clause.sized:
                # CAPS < 3.1.0 (Section V-B, Fig. 9)
                raise CompileError(
                    f"{behavior.label}: `{clause.name}` requires a constant "
                    "expression",
                    clause.loc,
                )
            if clause.name == "reduction" and clause.op is None:
                raise CompileError("reduction clause without operator", clause.loc)
