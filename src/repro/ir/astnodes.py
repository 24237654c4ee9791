"""Language-agnostic abstract syntax tree.

The mini-C and mini-Fortran parsers both produce this AST; the interpreter,
the OpenACC lowering and the vendor bug-injection hooks all operate on it.
Nodes are plain dataclasses; no behaviour lives here beyond generic traversal
(:func:`walk`) so that compiler passes stay free to interpret structure as
they need.  They are slotted (no per-instance ``__dict__``, so no ad-hoc
attributes): smaller trees, and faster to restore from the pickles the
compiler's parse memo keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Union

from repro.ir.types import Type


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """Position of a construct in the original (generated) source file."""

    filename: str = "<unknown>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __reduce__(self):
        # every node of a pickled tree carries one: the constructor
        # restores it faster than the frozen-slots state protocol does
        return SourceLocation, (self.filename, self.line, self.column)


@dataclass(slots=True)
class Node:
    """Base class for all AST nodes."""

    loc: SourceLocation = field(default_factory=SourceLocation, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class FloatLit(Expr):
    value: float
    # Whether the literal was written single precision (``1.0f`` in C,
    # default ``real`` in Fortran); drives rounding in the interpreter.
    single: bool = False


@dataclass(slots=True)
class StringLit(Expr):
    value: str


@dataclass(slots=True)
class Ident(Expr):
    name: str


@dataclass(slots=True)
class Slice(Expr):
    """An array section ``[start:length]`` (only valid inside data clauses)."""

    start: Optional[Expr]
    length: Optional[Expr]


@dataclass(slots=True)
class Index(Expr):
    """Array subscript ``base[i0][i1]...`` / ``base(i0, i1)``."""

    base: Expr
    indices: List[Expr]


@dataclass(slots=True)
class Call(Expr):
    name: str
    args: List[Expr]


@dataclass(slots=True)
class Unary(Expr):
    op: str  # '-', '+', '!', '~'
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # arithmetic, comparison, logical, bitwise, '%', '**'
    left: Expr
    right: Expr


@dataclass(slots=True)
class Conditional(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(slots=True)
class Cast(Expr):
    type: Type
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class VarDecl(Node):
    """A single declared variable (possibly an array).

    ``dims`` holds per-dimension *extents*; ``lowers`` the per-dimension
    lower bounds (C arrays are 0-based with ``lowers`` empty, Fortran arrays
    default to 1-based and may declare explicit bounds like ``a(0:n-1)``).
    """

    name: str
    type: Type
    dims: List[Expr] = field(default_factory=list)  # empty for scalars
    init: Optional[Expr] = None
    lowers: List[Optional[Expr]] = field(default_factory=list)


@dataclass(slots=True)
class DeclStmt(Stmt):
    decls: List[VarDecl] = field(default_factory=list)


@dataclass(slots=True)
class Assign(Stmt):
    """``target op= value``; ``op`` is '' for plain assignment."""

    target: Expr  # Ident or Index
    value: Expr
    op: str = ""  # '', '+', '-', '*', '/', '%', '&', '|', '^'


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass(slots=True)
class For(Stmt):
    """A canonical counted loop.

    Both C ``for(i = lo; i < hi; i++)`` and Fortran ``do i = lo, hi`` are
    normalised to this shape; the bounds are re-evaluated on entry.
    ``step`` may be negative.  ``inclusive`` distinguishes Fortran ``do``
    (upper bound included) from the C idiom (excluded, with ``<``/``<=``
    folded into ``bound``/``inclusive``).
    """

    var: str
    start: Expr
    bound: Expr
    step: Expr
    body: Stmt
    inclusive: bool = False


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# OpenACC statements.  The directive payload itself lives in repro.ir.acc;
# the import is deferred to avoid a cycle.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AccConstruct(Stmt):
    """A structured construct: ``parallel``, ``kernels``, ``data``,
    ``host_data`` — a directive applied to a following block."""

    directive: "repro.ir.acc.Directive"
    body: Stmt


@dataclass(slots=True)
class AccLoop(Stmt):
    """A ``loop`` (or combined ``parallel loop`` / ``kernels loop``)
    directive attached to the immediately following :class:`For`."""

    directive: "repro.ir.acc.Directive"
    loop: For


@dataclass(slots=True)
class AccStandalone(Stmt):
    """An executable directive with no body: ``update``, ``wait``,
    ``cache``, ``enter data`` / ``exit data`` (2.0)."""

    directive: "repro.ir.acc.Directive"


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FuncParam(Node):
    name: str
    type: Type
    is_array: bool = False


@dataclass(slots=True)
class Function(Node):
    name: str
    return_type: Type
    params: List[FuncParam] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    # declare directives attached at function scope
    declares: List["repro.ir.acc.Directive"] = field(default_factory=list)


@dataclass(slots=True)
class Program(Node):
    """A standalone translation unit as produced by the test generator."""

    functions: List[Function] = field(default_factory=list)
    globals: List[VarDecl] = field(default_factory=list)
    language: str = "c"  # 'c' or 'fortran'
    name: str = "<anonymous>"

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    @property
    def main(self) -> Function:
        return self.function("main")


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def _children(node: Node) -> Iterator[Node]:
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of ``node`` and all AST descendants.

    Directive payloads (clauses, data refs) are :class:`Node` subclasses as
    well and are therefore included.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(_children(current))))
