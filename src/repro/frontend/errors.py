"""Frontend error types.

These surface as *compile-time* errors in the harness — the paper's
Section V distinguishes compile-time errors ("assertion violations or other
internal compilation errors", e.g. using a feature the compiler does not yet
support) from the more vicious silent runtime errors.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.astnodes import SourceLocation


class FrontendError(Exception):
    """Base class for lexing/parsing failures."""

    def __init__(self, message: str, loc: Optional[SourceLocation] = None):
        self.loc = loc or SourceLocation()
        super().__init__(f"{self.loc}: {message}")
        self.message = message

    def __reduce__(self):
        # ``args`` holds the rendered text: rebuild from the parts instead
        return self.__class__, (self.message, self.loc)


class LexError(FrontendError):
    pass


class ParseError(FrontendError):
    pass
