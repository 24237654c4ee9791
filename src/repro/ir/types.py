"""Scalar and array types shared by the mini-C and mini-Fortran frontends.

The type system is deliberately small: the OpenACC validation corpus only
needs integer and floating scalars, fixed/variable length arrays of those,
and opaque device pointers.  Types are interned value objects so they can be
compared with ``==`` and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Type:
    """A scalar/pointer type.

    Attributes
    ----------
    base:
        One of ``"int"``, ``"long"``, ``"float"``, ``"double"``, ``"char"``,
        ``"bool"``, ``"void"``.
    pointer:
        Pointer depth (``int*`` has ``pointer == 1``).
    """

    base: str
    pointer: int = 0

    def pointer_to(self) -> "Type":
        """Return the type of a pointer to this type."""
        return Type(self.base, self.pointer + 1)

    def deref(self) -> "Type":
        """Return the pointee type; raises on non-pointers."""
        if self.pointer == 0:
            raise ValueError(f"cannot dereference non-pointer type {self}")
        return Type(self.base, self.pointer - 1)

    @property
    def is_integer(self) -> bool:
        return self.pointer == 0 and self.base in ("int", "long", "char", "bool")

    @property
    def is_floating(self) -> bool:
        return self.pointer == 0 and self.base in ("float", "double")

    @property
    def is_numeric(self) -> bool:
        return self.is_integer or self.is_floating

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.base + "*" * self.pointer


INT = Type("int")
LONG = Type("long")
FLOAT = Type("float")
DOUBLE = Type("double")
CHAR = Type("char")
BOOL = Type("bool")
VOID = Type("void")

#: C ``sizeof`` of each scalar base type in bytes: the mini-C ``sizeof``
#: operator and every typed view of raw ``malloc``/``acc_malloc`` bytes
SIZEOF = {"int": 4, "long": 8, "float": 4, "double": 8, "char": 1, "bool": 4}

#: surface-syntax names accepted by the mini-C parser
C_TYPE_NAMES = {
    "int": INT,
    "long": LONG,
    "float": FLOAT,
    "double": DOUBLE,
    "char": CHAR,
    "void": VOID,
}

#: Fortran declaration keywords mapped onto the shared type lattice.
FORTRAN_TYPE_NAMES = {
    "integer": INT,
    "real": FLOAT,
    "doubleprecision": DOUBLE,
    "logical": BOOL,
}


def join_numeric(a: Type, b: Type) -> Type:
    """Usual arithmetic conversion for binary expressions.

    ``double`` dominates ``float`` dominates integers; among integers
    ``long`` dominates ``int``.
    """
    if not (a.is_numeric and b.is_numeric):
        raise ValueError(f"non-numeric operands {a}, {b}")
    for t in (DOUBLE, FLOAT, LONG):
        if a == t or b == t:
            return t
    return INT
