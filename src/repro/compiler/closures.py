"""Closure compilation: how every campaign executes a program.

The reference interpreter (:mod:`repro.compiler.interp`) walks the AST for
every statement of every iteration: each step pays a ``type()`` dispatch,
and each name pays an :class:`~repro.compiler.interp.Env` chain walk.  The
harness runs every template M times per behavior, so that per-node cost
dominates campaign wall-clock.

This module lowers a :class:`~repro.ir.astnodes.Program` **once** into
nested Python closures.  Every statement/expression becomes a pre-bound
callable ``f(I, S)`` where ``I`` is the per-run :class:`Interpreter`
(mutable state: steps, limits, globals, output, machine) and ``S`` is the
current scope.  Lowering is a pure function of the AST — closures never
capture an interpreter — so one :class:`LoweredProgram` is shared across
a phase's M iterations (:class:`~repro.compiler.pipeline.ProgramRunner`
lowers once per phase and drops the lowering with the runner).

Two lowering tiers:

* **Tier A (slot frames)** — host function bodies.  A compile-time lexical
  resolver mirrors exactly where the tree walker would create
  ``env.child()`` scopes and assigns every declaration site a distinct
  integer slot in a flat per-call frame (a plain Python list).  Name uses
  become ``S[slot]`` loads; unresolved names fall through to
  ``I.globals`` — correct because local scopes can only ever contain
  parameters, ``DeclStmt`` declarations and loop variables (implicit
  assignment targets are defined at global scope, and
  :class:`~repro.compiler.exec_model.AccExecutor` never defines into an
  env it was handed, only into children it creates).

* **Tier B (env closures)** — statements and expressions executed by the
  OpenACC execution model through ``interp.exec_stmt``/``eval``/
  ``exec_for`` with an :class:`Env` it built (region bodies, clause
  expressions).  These are lowered on demand and memoised per node, with
  the same ``Env`` semantics as the tree walker.

At the boundary between the tiers, an OpenACC statement inside a Tier-A
function body materialises a *bridge* ``Env`` whose ``vars`` hold the
lexically visible frame cells (chained to ``I.globals``), and hands it to
the executor — the executor sees exactly the env chain the tree walker
would have given it.

The hard constraint is observable equivalence with the tree walker: step
accounting, error strings (they appear in suite reports) and evaluation
order are mirrored exactly; ``tests/test_closures.py`` enforces identical
:class:`ExecutionResult`s over the full shipped corpus, with the tree
walker (an :class:`Interpreter` built without a lowering) as the oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.values import ArrayValue, Cell, DevicePointer, coerce_scalar
from repro.compiler.interp import (
    _BUILTINS,
    _MallocResult,
    _as_int,
    _cell_scalar,
    _default_lower,
    _truthy,
    _trunc_div,
    BreakSignal,
    ContinueSignal,
    Env,
    ReturnSignal,
    binary_value,
)
from repro.ir.astnodes import (
    AccConstruct,
    AccLoop,
    AccStandalone,
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Cast,
    Conditional,
    Continue,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Function,
    Ident,
    If,
    Index,
    IntLit,
    Program,
    Return,
    Stmt,
    StringLit,
    Unary,
    VarDecl,
    While,
)
from repro.ir.types import SIZEOF

#: acc statement kinds are never memoised: combined directives synthesise a
#: fresh ``AccLoop`` node per execution (see ``AccExecutor.exec_acc_loop``),
#: so an ``id()``-keyed cache would grow without bound — and their lowering
#: is a single trivial closure anyway.
_ACC_STMTS = (AccConstruct, AccLoop, AccStandalone)

#: bases for which ``coerce_scalar`` is the identity on an exact ``int``
#: (must track the int family in :func:`repro.accsim.values.coerce_scalar`)
_INT_BASES = frozenset(("int", "long", "char", "bool"))


def _hot_binary(op: str, left, right) -> Optional[Callable]:
    """A fully inlined closure for a binary op over *leaf* operands.

    ``left``/``right`` are ``('slot', i)`` (frame-resolved Ident) or
    ``('const', v)`` (numeric literal) descriptors.  Each emitted closure
    computes exactly what the hand-specialised operators in
    ``_lower_binary`` compute, minus two operand-closure calls — the single
    biggest win of the backend, since ``i = i + 1`` and ``a[i] < n``-style
    spines dominate interpreter step counts.
    """
    lk, lv = left
    rk, rv = right
    if lk == "slot" and rk == "slot":
        a, b = lv, rv
        if op == "+":
            return lambda I, S: S[a].value + S[b].value
        if op == "-":
            return lambda I, S: S[a].value - S[b].value
        if op == "*":
            return lambda I, S: S[a].value * S[b].value
        if op == "==":
            return lambda I, S: 1 if S[a].value == S[b].value else 0
        if op == "!=":
            return lambda I, S: 1 if S[a].value != S[b].value else 0
        if op == "<":
            return lambda I, S: 1 if S[a].value < S[b].value else 0
        if op == "<=":
            return lambda I, S: 1 if S[a].value <= S[b].value else 0
        if op == ">":
            return lambda I, S: 1 if S[a].value > S[b].value else 0
        if op == ">=":
            return lambda I, S: 1 if S[a].value >= S[b].value else 0
        return None
    if lk == "slot":
        a, k = lv, rv
        if op == "+":
            return lambda I, S: S[a].value + k
        if op == "-":
            return lambda I, S: S[a].value - k
        if op == "*":
            return lambda I, S: S[a].value * k
        if op == "==":
            return lambda I, S: 1 if S[a].value == k else 0
        if op == "!=":
            return lambda I, S: 1 if S[a].value != k else 0
        if op == "<":
            return lambda I, S: 1 if S[a].value < k else 0
        if op == "<=":
            return lambda I, S: 1 if S[a].value <= k else 0
        if op == ">":
            return lambda I, S: 1 if S[a].value > k else 0
        if op == ">=":
            return lambda I, S: 1 if S[a].value >= k else 0
        return None
    if rk == "slot":
        k, b = lv, rv
        if op == "+":
            return lambda I, S: k + S[b].value
        if op == "-":
            return lambda I, S: k - S[b].value
        if op == "*":
            return lambda I, S: k * S[b].value
        if op == "==":
            return lambda I, S: 1 if k == S[b].value else 0
        if op == "!=":
            return lambda I, S: 1 if k != S[b].value else 0
        if op == "<":
            return lambda I, S: 1 if k < S[b].value else 0
        if op == "<=":
            return lambda I, S: 1 if k <= S[b].value else 0
        if op == ">":
            return lambda I, S: 1 if k > S[b].value else 0
        if op == ">=":
            return lambda I, S: 1 if k >= S[b].value else 0
        return None
    # const op const: these nine operators are total over numbers, so
    # folding at lowering time is observationally identical
    if op == "+":
        v = lv + rv
    elif op == "-":
        v = lv - rv
    elif op == "*":
        v = lv * rv
    elif op == "==":
        v = 1 if lv == rv else 0
    elif op == "!=":
        v = 1 if lv != rv else 0
    elif op == "<":
        v = 1 if lv < rv else 0
    elif op == "<=":
        v = 1 if lv <= rv else 0
    elif op == ">":
        v = 1 if lv > rv else 0
    elif op == ">=":
        v = 1 if lv >= rv else 0
    else:
        return None
    return lambda I, S: v


def _hot_cond(op: str, left, right) -> Optional[Callable]:
    """Truth-context variant of :func:`_hot_binary` for comparisons: skips
    the 0/1 materialisation (``_truthy(1 if l < r else 0)`` *is* ``l < r``).
    """
    lk, lv = left
    rk, rv = right
    if lk == "slot" and rk == "slot":
        a, b = lv, rv
        if op == "==":
            return lambda I, S: S[a].value == S[b].value
        if op == "!=":
            return lambda I, S: S[a].value != S[b].value
        if op == "<":
            return lambda I, S: S[a].value < S[b].value
        if op == "<=":
            return lambda I, S: S[a].value <= S[b].value
        if op == ">":
            return lambda I, S: S[a].value > S[b].value
        if op == ">=":
            return lambda I, S: S[a].value >= S[b].value
        return None
    if lk == "slot":
        a, k = lv, rv
        if op == "==":
            return lambda I, S: S[a].value == k
        if op == "!=":
            return lambda I, S: S[a].value != k
        if op == "<":
            return lambda I, S: S[a].value < k
        if op == "<=":
            return lambda I, S: S[a].value <= k
        if op == ">":
            return lambda I, S: S[a].value > k
        if op == ">=":
            return lambda I, S: S[a].value >= k
        return None
    if rk == "slot":
        k, b = lv, rv
        if op == "==":
            return lambda I, S: k == S[b].value
        if op == "!=":
            return lambda I, S: k != S[b].value
        if op == "<":
            return lambda I, S: k < S[b].value
        if op == "<=":
            return lambda I, S: k <= S[b].value
        if op == ">":
            return lambda I, S: k > S[b].value
        if op == ">=":
            return lambda I, S: k >= S[b].value
        return None
    return None


# ---------------------------------------------------------------------------
# compile-time scope resolver (Tier A)
# ---------------------------------------------------------------------------


class _FrameScope:
    """Lexical scope stack mapping names to frame slots during lowering.

    ``push``/``pop`` mirror every point where the tree walker would create
    an ``env.child()``; each declaration site gets a fresh slot, so
    shadowing works and re-executing a block (loop bodies) simply rebinds
    the same slots — observationally identical to a fresh child env because
    a slot-resolved use always executes after its declaration (the language
    has no goto; uses lowered *before* a declaration resolve to the outer
    binding, exactly as the runtime chain walk would).
    """

    __slots__ = ("_stack", "nslots")

    def __init__(self) -> None:
        self._stack: List[Dict[str, int]] = [{}]
        self.nslots = 0

    def push(self) -> None:
        self._stack.append({})

    def pop(self) -> None:
        self._stack.pop()

    def declare(self, name: str) -> int:
        slot = self.nslots
        self.nslots += 1
        self._stack[-1][name] = slot
        return slot

    def resolve(self, name: str) -> Optional[int]:
        for scope in reversed(self._stack):
            slot = scope.get(name)
            if slot is not None:
                return slot
        return None

    def visible(self) -> Tuple[Tuple[str, int], ...]:
        """All visible (name, slot) bindings, inner scopes shadowing outer."""
        merged: Dict[str, int] = {}
        for scope in self._stack:
            merged.update(scope)
        return tuple(merged.items())


# ---------------------------------------------------------------------------
# lowered artifacts
# ---------------------------------------------------------------------------


class LoweredFunction:
    """One function body lowered to a frame-based closure."""

    __slots__ = ("fn", "nslots", "param_slots", "entry_visible", "body")

    def __init__(self, fn: Function, nslots: int, param_slots: List[int],
                 entry_visible: Tuple[Tuple[str, int], ...], body: Callable):
        self.fn = fn
        self.nslots = nslots
        self.param_slots = param_slots
        self.entry_visible = entry_visible
        self.body = body


def invoke_function(I, lowered: LoweredFunction, args: Sequence[object]):
    """Call protocol for a lowered function (mirrors ``call_function``)."""
    fn = lowered.fn
    if len(args) != len(fn.params):
        raise AccRuntimeError(
            f"{fn.name}: expected {len(fn.params)} arguments, got {len(args)}"
        )
    frame: List[Optional[Cell]] = [None] * lowered.nslots
    for slot, param, arg in zip(lowered.param_slots, fn.params, args):
        if isinstance(arg, Cell):
            frame[slot] = arg  # by-reference (Fortran)
        else:
            frame[slot] = Cell(arg, type=param.type, name=param.name)
    env = _bridge_env(I, frame, lowered.entry_visible)
    I.acc.enter_function(fn, env)
    try:
        lowered.body(I, frame)
        result: object = 0
    except ReturnSignal as signal:
        result = signal.value if signal.value is not None else 0
    finally:
        I.acc.exit_function(fn)
    return result


def _bridge_env(I, frame: List[Optional[Cell]],
                visible: Tuple[Tuple[str, int], ...]) -> Env:
    """An Env over the lexically visible frame cells, chained to globals."""
    env = Env(parent=I.globals)
    env_vars = env.vars
    for name, slot in visible:
        cell = frame[slot]
        if cell is not None:
            env_vars[name] = cell
    return env


class LoweredProgram:
    """A program lowered once, runnable by any number of interpreters."""

    def __init__(self, program: Program):
        self.program = program
        self.functions: Dict[str, LoweredFunction] = {}
        for fn in program.functions:
            lowerer = _Lowerer(program, frame=True, lowered_fns=self.functions)
            self.functions[fn.name] = lowerer.lower_function(fn)
        self._env_lowerer = _Lowerer(program, frame=False,
                                     lowered_fns=self.functions)
        # Tier-B memos, keyed by node identity.  The node itself is pinned
        # in the value so a collected node can never recycle a key's id().
        # Benign data race under the GIL: worst case a node lowers twice.
        self._stmts: Dict[int, Tuple[Stmt, Callable]] = {}
        self._exprs: Dict[int, Tuple[Expr, Callable]] = {}
        self._fors: Dict[int, Tuple[For, Callable]] = {}

    # Tier-B entry points (dispatch targets of Interpreter.exec_stmt/eval/
    # exec_for when the executor calls back in with an Env).

    def stmt_closure(self, stmt: Stmt) -> Callable:
        if isinstance(stmt, _ACC_STMTS):
            return self._env_lowerer.lower_stmt(stmt)
        entry = self._stmts.get(id(stmt))
        if entry is None or entry[0] is not stmt:
            entry = (stmt, self._env_lowerer.lower_stmt(stmt))
            self._stmts[id(stmt)] = entry
        return entry[1]

    def expr_closure(self, expr: Expr) -> Callable:
        entry = self._exprs.get(id(expr))
        if entry is None or entry[0] is not expr:
            entry = (expr, self._env_lowerer.lower_expr(expr))
            self._exprs[id(expr)] = entry
        return entry[1]

    def for_closure(self, loop: For) -> Callable:
        entry = self._fors.get(id(loop))
        if entry is None or entry[0] is not loop:
            entry = (loop, self._env_lowerer.lower_for_core(loop))
            self._fors[id(loop)] = entry
        return entry[1]


def lower_program(program: Program) -> LoweredProgram:
    """Lower every function of ``program`` into closures (Tier A) and set
    up the on-demand Tier-B lowerer.  Pure: safe to share and reuse."""
    return LoweredProgram(program)


# ---------------------------------------------------------------------------
# the lowerer
# ---------------------------------------------------------------------------


def _op_fn(op: str, node) -> Callable:
    """A two-argument combiner mirroring ``binary_value`` for one operator."""
    if op == "+":
        return lambda left, right: left + right
    if op == "-":
        return lambda left, right: left - right
    if op == "*":
        return lambda left, right: left * right
    if op == "/":
        def _div(left, right):
            if right == 0:
                raise AccRuntimeError(f"division by zero at {node.loc}")
            if isinstance(left, int) and isinstance(right, int):
                return _trunc_div(left, right)
            return left / right
        return _div
    if op == "%":
        def _mod(left, right):
            if right == 0:
                raise AccRuntimeError(f"modulo by zero at {node.loc}")
            return left - _trunc_div(left, right) * right
        return _mod
    if op == "==":
        return lambda left, right: 1 if left == right else 0
    if op == "!=":
        return lambda left, right: 1 if left != right else 0
    if op == "<":
        return lambda left, right: 1 if left < right else 0
    if op == "<=":
        return lambda left, right: 1 if left <= right else 0
    if op == ">":
        return lambda left, right: 1 if left > right else 0
    if op == ">=":
        return lambda left, right: 1 if left >= right else 0
    return lambda left, right: binary_value(op, left, right, node)


class _Lowerer:
    """Lowers statements/expressions to closures over ``(I, S)``.

    ``frame=True`` is Tier A (``S`` is a slot frame, names resolved at
    lowering time); ``frame=False`` is Tier B (``S`` is an :class:`Env`,
    names resolved by chain walk at runtime, same as the tree walker).
    """

    def __init__(self, program: Program, frame: bool,
                 lowered_fns: Optional[Dict[str, LoweredFunction]] = None):
        self.program = program
        self.language = program.language
        self.functions = {fn.name: fn for fn in program.functions}
        self.frame = frame
        self.sc = _FrameScope() if frame else None
        # shared (still-filling) LoweredProgram.functions dict: call sites
        # resolve through it at runtime, skipping the call_function bounce
        self.lowered_fns = lowered_fns

    # -------------------------------------------------------------- function

    def lower_function(self, fn: Function) -> LoweredFunction:
        sc = self.sc
        param_slots = [sc.declare(p.name) for p in fn.params]
        entry_visible = sc.visible()
        # the function body block gets no step bump (exec_block has none)
        body = self._lower_block_body(fn.body)
        return LoweredFunction(
            fn=fn, nslots=sc.nslots, param_slots=param_slots,
            entry_visible=entry_visible, body=body,
        )

    def _lower_block_body(self, block: Block) -> Callable:
        """The inside of a block: child scope + statements, no step bump."""
        if self.frame:
            self.sc.push()
            stmt_cs = tuple(self.lower_stmt(s) for s in block.stmts)
            self.sc.pop()
            # frame scoping is entirely lowering-time, so short bodies
            # collapse to direct calls with no runtime scope work at all
            if len(stmt_cs) == 1:
                return stmt_cs[0]
            if len(stmt_cs) == 2:
                first, second = stmt_cs

                def run(I, S):
                    first(I, S)
                    second(I, S)
                return run
            if not stmt_cs:
                return lambda I, S: None

            def run(I, S):
                for c in stmt_cs:
                    c(I, S)
            return run

        stmt_cs = tuple(self.lower_stmt(s) for s in block.stmts)

        def run(I, S):
            scope = S.child()
            for c in stmt_cs:
                c(I, scope)
        return run

    # ------------------------------------------------------------ statements

    def lower_stmt(self, stmt: Stmt) -> Callable:
        kind = type(stmt)
        if kind is Block:
            return self._lower_block_stmt(stmt)
        if kind is DeclStmt:
            return self._lower_decl_stmt(stmt)
        if kind is Assign:
            return self._lower_assign(stmt)
        if kind is ExprStmt:
            return self._lower_expr_stmt(stmt)
        if kind is If:
            return self._lower_if(stmt)
        if kind is For:
            return self._lower_for_stmt(stmt)
        if kind is While:
            return self._lower_while(stmt)
        if kind is Return:
            return self._lower_return(stmt)
        if kind is Break:
            return self._lower_break(stmt)
        if kind is Continue:
            return self._lower_continue(stmt)
        if kind is AccConstruct:
            return self._lower_acc(stmt, "exec_construct")
        if kind is AccLoop:
            return self._lower_acc(stmt, "exec_acc_loop")
        if kind is AccStandalone:
            return self._lower_acc(stmt, "exec_standalone")
        message = f"cannot execute statement {kind.__name__}"
        loc = stmt.loc

        def run(I, S):  # pragma: no cover - parser produces no other kinds
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise AccRuntimeError(message)
        return run

    def _lower_block_stmt(self, stmt: Block) -> Callable:
        loc = stmt.loc
        if self.frame:
            # fuse the node's step bump with the statement loop: one closure
            # per block execution instead of a bump wrapper plus a body run
            self.sc.push()
            stmt_cs = tuple(self.lower_stmt(s) for s in stmt.stmts)
            self.sc.pop()
            if len(stmt_cs) == 1:
                inner = stmt_cs[0]

                def run(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(
                            f"step budget {I.limits.max_steps} exceeded at {loc}"
                        )
                    inner(I, S)
                return run

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                for c in stmt_cs:
                    c(I, S)
            return run

        inner = self._lower_block_body(stmt)

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            inner(I, S)
        return run

    def _lower_decl_stmt(self, stmt: DeclStmt) -> Callable:
        decl_cs = tuple(self._lower_decl(d) for d in stmt.decls)
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            for c in decl_cs:
                c(I, S)
        return run

    def _lower_decl(self, decl: VarDecl) -> Callable:
        """One declaration; mirrors ``Interpreter._declare`` exactly."""
        name = decl.name
        typ = decl.type
        if decl.dims:
            dim_cs = tuple(self.lower_expr(d) for d in decl.dims)
            lower_cs = tuple(
                self.lower_expr(l) if l is not None else None
                for l in (decl.lowers or [None] * len(decl.dims))
            )
            default_lower = _default_lower(self.language)
            init_c = self.lower_expr(decl.init) if decl.init is not None else None
            base = typ.base

            def make(I, S):
                shape = [_as_int(c(I, S)) for c in dim_cs]
                lowers = [
                    (_as_int(c(I, S)) if c is not None else default_lower)
                    for c in lower_cs
                ]
                fill = init_c(I, S) if init_c is not None else None
                return ArrayValue(shape, base, lowers, fill=fill)
        elif typ.pointer > 0:
            init_c = self.lower_expr(decl.init) if decl.init is not None else None

            def make(I, S):
                return init_c(I, S) if init_c is not None else None
        else:
            init_c = self.lower_expr(decl.init) if decl.init is not None else None
            base = typ.base
            zero = coerce_scalar(base, 0)

            def make(I, S):
                if init_c is not None:
                    return coerce_scalar(base, init_c(I, S))
                return zero

        # declare *after* lowering the initialiser: an init referencing the
        # same name sees the outer binding, as at runtime
        if self.frame:
            slot = self.sc.declare(name)

            def run(I, S):
                S[slot] = Cell(make(I, S), type=typ, name=name)
            return run

        def run(I, S):
            S.define(name, Cell(make(I, S), type=typ, name=name))
        return run

    def _lower_assign(self, stmt: Assign) -> Callable:
        value_c = self.lower_expr(stmt.value)
        target = stmt.target
        loc = stmt.loc
        combine = _op_fn(stmt.op, stmt) if stmt.op else None

        if isinstance(target, Ident):
            name = target.name
            slot = self.sc.resolve(name) if self.frame else None
            if slot is not None and combine is None:
                # hottest statement shape: plain assignment to a local.  A
                # slot-resolved target's cell always exists by the time the
                # assignment runs (its declaration executes first — no goto),
                # and an exact ``int`` assigned to an int-family scalar cell
                # makes ``coerce_scalar`` the identity, so the common case is
                # a single attribute store.
                def run(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(
                            f"step budget {I.limits.max_steps} exceeded at {loc}"
                        )
                    value = value_c(I, S)
                    cell = S[slot]
                    ctype = cell.type
                    if value.__class__ is int and ctype is not None \
                            and ctype.pointer == 0:
                        base = ctype.base
                        if base in _INT_BASES:
                            cvc = cell.value.__class__
                            if cvc is not ArrayValue and cvc is not DevicePointer:
                                cell.value = value
                                return
                    base = ctype.base if ctype is not None and ctype.pointer == 0 else None
                    if isinstance(value, (int, float)) and not isinstance(
                        cell.value, (ArrayValue, DevicePointer)
                    ):
                        cell.value = coerce_scalar(base, value)
                    else:
                        cell.value = value
                return run
            getter = self._cell_ref(name)

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                cell = getter(I, S)
                if cell is None:
                    # implicit int definition at global scope (see the tree
                    # walker's exec_assign for the rationale)
                    cell = I.globals.define(name, Cell(0, name=name))
                if combine is not None:
                    value = combine(_cell_scalar(cell), value)
                ctype = cell.type
                base = ctype.base if ctype is not None and ctype.pointer == 0 else None
                if isinstance(value, (int, float)) and not isinstance(
                    cell.value, (ArrayValue, DevicePointer)
                ):
                    cell.value = coerce_scalar(base, value)
                else:
                    cell.value = value
            return run

        if isinstance(target, Index):
            resolver = self._lower_index_resolver(target)

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                array, indices = resolver(I, S)
                if combine is not None:
                    value = combine(array.get(indices), value)
                array.set(indices, value)
            return run

        if isinstance(target, Unary) and target.op == "*":
            operand_c = self.lower_expr(target.operand)
            target_loc = target.loc

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                value = value_c(I, S)
                pointee = operand_c(I, S)
                array = _pointer_array(pointee, target_loc)
                if combine is not None:
                    value = combine(array.get([array.lowers[0]]), value)
                array.set([array.lowers[0]], value)
            return run

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            value_c(I, S)
            raise AccRuntimeError(f"invalid assignment target at {loc}")
        return run

    def _lower_expr_stmt(self, stmt: ExprStmt) -> Callable:
        expr_c = self.lower_expr(stmt.expr)
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            expr_c(I, S)
        return run

    def _lower_if(self, stmt: If) -> Callable:
        cond_c = self._lower_cond(stmt.cond)
        loc = stmt.loc
        if self.frame:
            self.sc.push()
            then_c = self.lower_stmt(stmt.then)
            self.sc.pop()
            other_c = None
            if stmt.other is not None:
                self.sc.push()
                other_c = self.lower_stmt(stmt.other)
                self.sc.pop()

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                if cond_c(I, S):
                    then_c(I, S)
                elif other_c is not None:
                    other_c(I, S)
            return run

        then_c = self.lower_stmt(stmt.then)
        other_c = self.lower_stmt(stmt.other) if stmt.other is not None else None

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            if cond_c(I, S):
                then_c(I, S.child())
            elif other_c is not None:
                other_c(I, S.child())
        return run

    def _lower_while(self, stmt: While) -> Callable:
        cond_c = self._lower_cond(stmt.cond)
        loc = stmt.loc
        if self.frame:
            self.sc.push()
            body_c = self.lower_stmt(stmt.body)
            self.sc.pop()

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                while cond_c(I, S):
                    I.steps += 1
                    if I.steps > I._max_steps:
                        raise ExecutionTimeout(f"step budget exceeded at {loc}")
                    try:
                        body_c(I, S)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue
            return run

        body_c = self.lower_stmt(stmt.body)

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            while cond_c(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(f"step budget exceeded at {loc}")
                try:
                    body_c(I, S.child())
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        return run

    def _lower_for_stmt(self, loop: For) -> Callable:
        core = self.lower_for_core(loop)
        loc = loop.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            core(I, S)
        return run

    def lower_for_core(self, loop: For) -> Callable:
        """The loop itself, without the statement-node step bump (this is
        also the dispatch target of ``Interpreter.exec_for``, which the
        tree walker likewise runs without a node bump)."""
        start_c = self.lower_expr(loop.start)
        bound_c = self.lower_expr(loop.bound)
        step_c = self.lower_expr(loop.step)
        inclusive = loop.inclusive
        var = loop.var
        loc = loop.loc

        if self.frame:
            self.sc.push()
            outer_slot = self.sc.resolve(var)
            var_slot = self.sc.declare(var) if outer_slot is None else None
            body_c = self.lower_stmt(loop.body)
            self.sc.pop()

            def run(I, S):
                start = _as_int(start_c(I, S))
                bound = _as_int(bound_c(I, S))
                step = _as_int(step_c(I, S))
                if step == 0:
                    raise AccRuntimeError(f"zero loop step at {loc}")
                if step > 0:
                    stop = bound + 1 if inclusive else bound
                else:
                    stop = bound - 1 if inclusive else bound
                if outer_slot is not None:
                    cell = S[outer_slot]
                else:
                    # the tree walker's scope.lookup falls through to the
                    # globals; only a nowhere-defined var gets a fresh cell
                    cell = I.globals.lookup(var)
                    if cell is None:
                        cell = Cell(0, name=var)
                    S[var_slot] = cell
                max_steps = I._max_steps
                for i in range(start, stop, step):
                    I.steps += 1
                    if I.steps > max_steps:
                        raise ExecutionTimeout(f"step budget exceeded at {loc}")
                    cell.value = i
                    try:
                        body_c(I, S)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue
            return run

        body_c = self.lower_stmt(loop.body)

        def run(I, S):
            start = _as_int(start_c(I, S))
            bound = _as_int(bound_c(I, S))
            step = _as_int(step_c(I, S))
            if step == 0:
                raise AccRuntimeError(f"zero loop step at {loc}")
            if step > 0:
                stop = bound + 1 if inclusive else bound
            else:
                stop = bound - 1 if inclusive else bound
            scope = S.child()
            cell = scope.lookup(var)
            if cell is None:
                cell = scope.define(var, Cell(0, name=var))
            max_steps = I._max_steps
            for i in range(start, stop, step):
                I.steps += 1
                if I.steps > max_steps:
                    raise ExecutionTimeout(f"step budget exceeded at {loc}")
                cell.value = i
                try:
                    body_c(I, scope.child())
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        return run

    def _lower_return(self, stmt: Return) -> Callable:
        value_c = self.lower_expr(stmt.value) if stmt.value is not None else None
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise ReturnSignal(value_c(I, S) if value_c is not None else None)
        return run

    def _lower_break(self, stmt: Break) -> Callable:
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise BreakSignal()
        return run

    def _lower_continue(self, stmt: Continue) -> Callable:
        loc = stmt.loc

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            raise ContinueSignal()
        return run

    def _lower_acc(self, stmt: Stmt, method: str) -> Callable:
        loc = stmt.loc
        if self.frame:
            visible = self.sc.visible()

            def run(I, S):
                I.steps += 1
                if I.steps > I._max_steps:
                    raise ExecutionTimeout(
                        f"step budget {I.limits.max_steps} exceeded at {loc}"
                    )
                env = _bridge_env(I, S, visible)
                getattr(I.acc, method)(stmt, env)
            return run

        def run(I, S):
            I.steps += 1
            if I.steps > I._max_steps:
                raise ExecutionTimeout(
                    f"step budget {I.limits.max_steps} exceeded at {loc}"
                )
            getattr(I.acc, method)(stmt, S)
        return run

    # ----------------------------------------------------------- expressions

    def lower_expr(self, expr: Expr) -> Callable:
        kind = type(expr)
        if kind is IntLit or kind is FloatLit or kind is StringLit:
            value = expr.value
            return lambda I, S: value
        if kind is Ident:
            return self._lower_ident(expr)
        if kind is Index:
            resolver = self._lower_index_resolver(expr)

            def run(I, S):
                array, indices = resolver(I, S)
                return array.get(indices)
            return run
        if kind is Binary:
            return self._lower_binary(expr)
        if kind is Unary:
            return self._lower_unary(expr)
        if kind is Conditional:
            cond_c = self._lower_cond(expr.cond)
            then_c = self.lower_expr(expr.then)
            other_c = self.lower_expr(expr.other)

            def run(I, S):
                if cond_c(I, S):
                    return then_c(I, S)
                return other_c(I, S)
            return run
        if kind is Call:
            return self._lower_call(expr)
        if kind is Cast:
            return self._lower_cast(expr)
        message = f"cannot evaluate expression {kind.__name__}"

        def run(I, S):  # pragma: no cover - mirrors the tree walker
            raise AccRuntimeError(message)
        return run

    def _cell_ref(self, name: str) -> Callable:
        """A closure resolving ``name`` to its Cell (or None if undefined)."""
        if self.frame:
            slot = self.sc.resolve(name)
            if slot is not None:
                return lambda I, S: S[slot]
            return lambda I, S: I.globals.lookup(name)
        return lambda I, S: S.lookup(name)

    def _lower_ident(self, expr: Ident) -> Callable:
        name = expr.name
        loc = expr.loc
        if self.frame:
            slot = self.sc.resolve(name)
            if slot is not None:
                def run(I, S):
                    return S[slot].value
                return run

            def run(I, S):
                cell = I.globals.lookup(name)
                if cell is None:
                    raise AccRuntimeError(
                        f"undefined variable {name!r} at {loc}"
                    )
                return cell.value
            return run

        def run(I, S):
            cell = S.lookup(name)
            if cell is None:
                raise AccRuntimeError(f"undefined variable {name!r} at {loc}")
            return cell.value
        return run

    def _lower_index_resolver(self, expr: Index) -> Callable:
        """Mirror of ``Interpreter._resolve_index``: (I, S) -> (array, ix)."""
        index_cs = tuple(self.lower_expr(ix) for ix in expr.indices)
        loc = expr.loc
        base = expr.base
        if isinstance(base, Ident):
            name = base.name
            getter = self._cell_ref(name)

            def resolve(I, S):
                cell = getter(I, S)
                if cell is None:
                    raise AccRuntimeError(f"undefined array {name!r} at {loc}")
                value = cell.value
                if isinstance(value, DevicePointer):
                    elem = cell.type.base if cell.type is not None else "int"
                    value = value.as_array(elem)
                if not isinstance(value, ArrayValue):
                    raise AccRuntimeError(
                        f"variable {name!r} is not an array at {loc}"
                    )
                indices = [_as_int(c(I, S)) for c in index_cs]
                return value, indices
            return resolve

        base_c = self.lower_expr(base)

        def resolve(I, S):
            value = base_c(I, S)
            if isinstance(value, DevicePointer):
                value = value.as_array("int")
            if not isinstance(value, ArrayValue):
                raise AccRuntimeError(f"indexing a non-array at {loc}")
            indices = [_as_int(c(I, S)) for c in index_cs]
            return value, indices
        return resolve

    def _leaf(self, expr: Expr):
        """Operand descriptor for inlining: ``('const', v)`` for a numeric
        literal, ``('slot', i)`` for a frame-resolved Ident, else None."""
        kind = type(expr)
        if kind is IntLit or kind is FloatLit:
            return ("const", expr.value)
        if kind is Ident and self.frame:
            slot = self.sc.resolve(expr.name)
            if slot is not None:
                return ("slot", slot)
        return None

    def _lower_cond(self, expr: Expr) -> Callable:
        """Lower ``expr`` for a truth context (if/while/?:/!/&&/||).

        Comparisons skip the 0/1 materialisation and the ``_truthy`` call —
        the truth value of ``1 if l < r else 0`` is exactly ``l < r``.
        Anything else falls back to ``_truthy`` over the expression value.
        """
        kind = type(expr)
        if kind is Binary:
            op = expr.op
            if op in ("==", "!=", "<", "<=", ">", ">="):
                lleaf = self._leaf(expr.left)
                rleaf = self._leaf(expr.right)
                if lleaf is not None and rleaf is not None:
                    hot = _hot_cond(op, lleaf, rleaf)
                    if hot is not None:
                        return hot
                left_c = self.lower_expr(expr.left)
                right_c = self.lower_expr(expr.right)
                if op == "==":
                    return lambda I, S: left_c(I, S) == right_c(I, S)
                if op == "!=":
                    return lambda I, S: left_c(I, S) != right_c(I, S)
                if op == "<":
                    return lambda I, S: left_c(I, S) < right_c(I, S)
                if op == "<=":
                    return lambda I, S: left_c(I, S) <= right_c(I, S)
                if op == ">":
                    return lambda I, S: left_c(I, S) > right_c(I, S)
                return lambda I, S: left_c(I, S) >= right_c(I, S)
            if op == "&&":
                a = self._lower_cond(expr.left)
                b = self._lower_cond(expr.right)
                return lambda I, S: a(I, S) and b(I, S)
            if op == "||":
                a = self._lower_cond(expr.left)
                b = self._lower_cond(expr.right)
                return lambda I, S: a(I, S) or b(I, S)
        elif kind is Unary and expr.op == "!":
            inner = self._lower_cond(expr.operand)
            return lambda I, S: not inner(I, S)
        value_c = self.lower_expr(expr)
        return lambda I, S: _truthy(value_c(I, S))

    def _lower_binary(self, expr: Binary) -> Callable:
        op = expr.op
        if op == "&&":
            a = self._lower_cond(expr.left)
            b = self._lower_cond(expr.right)
            return lambda I, S: 1 if a(I, S) and b(I, S) else 0
        if op == "||":
            a = self._lower_cond(expr.left)
            b = self._lower_cond(expr.right)
            return lambda I, S: 1 if a(I, S) or b(I, S) else 0
        lleaf = self._leaf(expr.left)
        rleaf = self._leaf(expr.right)
        if lleaf is not None and rleaf is not None:
            hot = _hot_binary(op, lleaf, rleaf)
            if hot is not None:
                return hot
        left_c = self.lower_expr(expr.left)
        right_c = self.lower_expr(expr.right)
        # hand-specialised hot operators (identical to binary_value)
        if op == "+":
            return lambda I, S: left_c(I, S) + right_c(I, S)
        if op == "-":
            return lambda I, S: left_c(I, S) - right_c(I, S)
        if op == "*":
            return lambda I, S: left_c(I, S) * right_c(I, S)
        if op == "==":
            return lambda I, S: 1 if left_c(I, S) == right_c(I, S) else 0
        if op == "!=":
            return lambda I, S: 1 if left_c(I, S) != right_c(I, S) else 0
        if op == "<":
            return lambda I, S: 1 if left_c(I, S) < right_c(I, S) else 0
        if op == "<=":
            return lambda I, S: 1 if left_c(I, S) <= right_c(I, S) else 0
        if op == ">":
            return lambda I, S: 1 if left_c(I, S) > right_c(I, S) else 0
        if op == ">=":
            return lambda I, S: 1 if left_c(I, S) >= right_c(I, S) else 0
        combine = _op_fn(op, expr)
        return lambda I, S: combine(left_c(I, S), right_c(I, S))

    def _lower_unary(self, expr: Unary) -> Callable:
        op = expr.op
        operand_c = self.lower_expr(expr.operand)
        loc = expr.loc
        if op == "*":
            def run(I, S):
                array = _pointer_array(operand_c(I, S), loc)
                return array.get([array.lowers[0]])
            return run
        if op == "-":
            return lambda I, S: -operand_c(I, S)
        if op == "!":
            cond_c = self._lower_cond(expr.operand)
            return lambda I, S: 0 if cond_c(I, S) else 1
        if op == "~":
            return lambda I, S: ~int(operand_c(I, S))

        def run(I, S):  # pragma: no cover - mirrors the tree walker
            operand_c(I, S)
            raise AccRuntimeError(f"unknown unary operator {op!r} at {loc}")
        return run

    def _lower_cast(self, expr: Cast) -> Callable:
        operand_c = self.lower_expr(expr.operand)
        typ = expr.type
        if typ.pointer > 0:
            size = SIZEOF.get(typ.base, 8)
            base = typ.base

            def run(I, S):
                value = operand_c(I, S)
                if isinstance(value, _MallocResult):
                    return ArrayValue((value.nbytes // size,), base)
                return value  # pointer-to-pointer casts are identity here
            return run
        base = typ.base

        def run(I, S):
            value = operand_c(I, S)
            if isinstance(value, _MallocResult):
                raise AccRuntimeError("malloc result used without pointer cast")
            return coerce_scalar(base, value)
        return run

    def _lower_call(self, expr: Call) -> Callable:
        name = expr.name
        loc = expr.loc
        # user functions take precedence (same resolution order as eval_call)
        fn = self.functions.get(name)
        if fn is not None:
            arg_cs = []
            for param, arg in zip(fn.params, expr.args):
                if self.language == "fortran" and isinstance(arg, Ident):
                    arg_cs.append(self._lower_byref_arg(arg))
                else:
                    arg_cs.append(self.lower_expr(arg))
            arg_cs = tuple(arg_cs)
            mismatch = len(expr.args) != len(fn.params)
            mismatch_msg = (
                f"{name}: expected {len(fn.params)} args, got {len(expr.args)}"
            )
            lowered_fns = self.lowered_fns
            if lowered_fns is not None and not mismatch:

                def run(I, S):
                    args = [c(I, S) for c in arg_cs]
                    lf = lowered_fns.get(name)
                    if lf is not None:
                        return invoke_function(I, lf, args)
                    return I.call_function(fn, args)
                return run

            def run(I, S):
                args = [c(I, S) for c in arg_cs]
                if mismatch:
                    raise AccRuntimeError(mismatch_msg)
                return I.call_function(fn, args)
            return run

        handler = _BUILTINS.get(name)
        if handler is not None:
            arg_cs = tuple(self.lower_expr(a) for a in expr.args)

            def run(I, S):
                return handler(I, [c(I, S) for c in arg_cs], expr)
            return run

        def run(I, S):
            raise AccRuntimeError(f"call to unknown function {name!r} at {loc}")
        return run

    def _lower_byref_arg(self, arg: Ident) -> Callable:
        """A Fortran bare-variable argument: pass the Cell by reference."""
        name = arg.name
        loc = arg.loc
        getter = self._cell_ref(name)

        def run(I, S):
            cell = getter(I, S)
            if cell is None:
                raise AccRuntimeError(f"undefined variable {name!r} at {loc}")
            return cell
        return run


def _pointer_array(value, loc) -> ArrayValue:
    if isinstance(value, DevicePointer):
        return value.as_array("int")
    if isinstance(value, ArrayValue):
        return value
    raise AccRuntimeError(f"dereference of a non-pointer at {loc}")
