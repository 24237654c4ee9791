"""Compiler diagnostics.

The harness distinguishes the paper's two error classes (Section V):
compile-time errors terminate compilation and produce no executable
(:class:`CompileError`), while runtime errors surface during execution
(exceptions from :mod:`repro.accsim.errors`) — or, worst, don't surface at
all ("wrong code bugs ... generate wrong results in silence").
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ir.astnodes import SourceLocation


class CompileError(Exception):
    """Compilation failed (unsupported feature, bad clause expression, ...)."""

    def __init__(self, message: str, loc: Optional[SourceLocation] = None):
        self.loc = loc or SourceLocation()
        self.message = message
        super().__init__(f"{self.loc}: {message}")

    def __reduce__(self):
        # ``args`` holds the rendered text: rebuild from the parts instead
        return self.__class__, (self.message, self.loc)


class UnsupportedFeatureError(CompileError):
    """The (possibly simulated vendor) compiler does not implement a feature."""


class CompilerCrashError(CompileError):
    """The compiler itself crashed — an infrastructure fault, not a
    diagnostic.

    Raised by nothing in the compiler proper: :class:`CompileCache`
    synthesises it when ``Compiler.compile`` escapes with a
    non-:class:`CompileError` exception, so callers that only understand
    compile failures still get one — while resilience-aware callers (the
    validation runner) can recognise the crash and escalate it to the
    engine's retry layer instead of charging it to the implementation
    under test.
    """

    def __init__(self, message: str, loc: Optional[SourceLocation] = None,
                 cause: Union[BaseException, str, None] = None):
        super().__init__(message, loc)
        self.cause = cause

    def __reduce__(self):
        # the cause may not pickle; its repr always does
        cause = self.cause
        if cause is not None and not isinstance(cause, str):
            cause = repr(cause)
        return self.__class__, (self.message, self.loc, cause)
