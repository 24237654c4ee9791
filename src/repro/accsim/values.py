"""Runtime value model.

Every variable binding is a :class:`Cell` (a mutable box) so that device
mappings can alias host storage by identity — the present table is keyed by
cell.  Arrays are :class:`ArrayValue`: one flat stdlib :class:`array.array`
in row-major order (typecode ``'q'``, signed 64-bit, for every integer type;
``'d'``, 64-bit IEEE, for every floating type) plus the shape, row-major
strides and declared lower bounds, so C 0-based and Fortran
1-based/sectioned indexing share one implementation.  That layout is known
to this module only; callers use ``get``/``set``, sections, ``shape``,
``nbytes`` and the constructor's ``fill``.  Device heap allocations made via
``acc_malloc`` are :class:`DevicePointer` handles.

Floating point note: C ``float`` / Fortran ``real`` values are *stored and
computed in double precision*.  The paper's floating-point reduction oracle
(Fig. 7) compares against a closed form with a 1e-9 rounding tolerance;
simulating 32-bit rounding would introduce spurious mismatches that say
nothing about directive conformance, so we deliberately keep one precision
(recorded in DESIGN.md as a substitution).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.accsim.errors import AccRuntimeError
from repro.ir.types import SIZEOF, Type

#: storage typecode per element type (8 bytes per element either way)
_TYPECODES = {
    "int": "q",
    "long": "q",
    "char": "q",
    "bool": "q",
    "float": "d",
    "double": "d",
}


class ArrayValue:
    """An n-dimensional array with declared lower bounds.

    ``lowers[d]`` is the index of the first element along dimension ``d``
    (0 for C, typically 1 for Fortran).  ``fill`` is either one scalar for
    every element or a list (or array) of exactly one value per element
    in row-major order; a float stored into an integer array truncates toward
    zero, and an integer outside the signed 64-bit range raises
    :class:`OverflowError`.
    """

    __slots__ = ("_data", "_strides", "shape", "type_base", "lowers")

    def __init__(
        self,
        shape: Sequence[int],
        type_base: str,
        lowers: Optional[Sequence[int]] = None,
        fill=None,
    ):
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise AccRuntimeError(f"negative array extent {shape}")
        try:
            typecode = _TYPECODES[type_base]
        except KeyError:
            raise AccRuntimeError(f"cannot allocate array of {type_base!r}") from None
        strides = []
        size = 1
        for extent in reversed(shape):
            strides.append(size)
            size *= extent
        if isinstance(fill, (list, array)):
            data = _typed(typecode, fill)
            if len(data) != size:
                raise AccRuntimeError(
                    f"fill of {len(data)} elements for shape {shape}"
                )
        else:
            value = _convert(typecode, 0 if fill is None else fill)
            data = array(typecode, [value]) * size
        self._data = data
        self._strides = tuple(reversed(strides))
        self.shape = shape
        self.type_base = type_base
        self.lowers = tuple(int(l) for l in (lowers or (0,) * len(shape)))
        if len(self.lowers) != len(shape):
            raise AccRuntimeError("lower-bounds rank mismatch")

    # -- indexing ----------------------------------------------------------

    def _flat(self, indices: Sequence[int]) -> int:
        shape = self.shape
        if len(indices) != len(shape):
            raise AccRuntimeError(
                f"rank mismatch: {len(indices)} subscripts for rank-{len(shape)} array"
            )
        flat = 0
        for i, l, extent, stride in zip(indices, self.lowers, shape, self._strides):
            o = int(i) - l
            if o < 0 or o >= extent:
                raise AccRuntimeError(
                    f"index out of bounds: subscript {indices} for shape {shape} "
                    f"(lower bounds {self.lowers})"
                )
            flat += o * stride
        return flat

    def get(self, indices: Sequence[int]):
        return self._data[self._flat(indices)]

    def set(self, indices: Sequence[int], value) -> None:
        flat = self._flat(indices)
        data = self._data
        if data.typecode == "q" and type(value) is not int:
            value = int(value)
        data[flat] = value

    # -- sections ------------------------------------------------------------

    @property
    def length(self) -> int:
        """Extent of the first dimension (the sectioned one)."""
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        """Storage size: 8 bytes per element."""
        return len(self._data) * self._data.itemsize

    def read_section(self, start: int, length: int) -> array:
        """Copy of rows [start, start+length) in *declared* index space, as
        a flat row-major :class:`array.array` of this array's element type."""
        lo = start - self.lowers[0]
        if lo < 0 or lo + length > self.shape[0]:
            raise AccRuntimeError(
                f"section [{start}:{start + length}) outside array bounds"
            )
        row = self._strides[0]
        return self._data[lo * row : (lo + length) * row]

    def write_section(self, start: int, values: Sequence) -> None:
        """Overwrite whole rows from ``start`` with ``values``, a flat
        row-major section such as :meth:`read_section` returns."""
        row = self._strides[0]
        rows = -(-len(values) // row) if row else 0
        lo = start - self.lowers[0]
        if lo < 0 or lo + rows > self.shape[0]:
            raise AccRuntimeError(
                f"section write [{start}:{start + rows}) outside array bounds"
            )
        self._data[lo * row : lo * row + len(values)] = _typed(
            self._data.typecode, values
        )

    def clone(self) -> "ArrayValue":
        return ArrayValue(self.shape, self.type_base, self.lowers, fill=self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue({self.type_base}{list(self.shape)}, lowers={self.lowers})"


def _convert(typecode: str, value):
    return int(value) if typecode == "q" else float(value)


def _typed(typecode: str, values) -> array:
    """A new array of ``typecode`` holding ``values``.  The stdlib copies a
    same-typed array and converts ints (and floats into ``'d'``) itself;
    only floats into an integer array need truncating one by one."""
    try:
        return array(typecode, values)
    except TypeError:
        return array(typecode, [_convert(typecode, v) for v in values])


@dataclass
class DevicePointer:
    """Opaque handle returned by ``acc_malloc``; points at raw device bytes
    that are viewed with an element type once bound by a ``deviceptr``
    clause or dereferenced in a kernel."""

    nbytes: int
    buffer: Optional[ArrayValue] = None
    freed: bool = False

    def as_array(self, type_base: str) -> ArrayValue:
        if self.freed:
            raise AccRuntimeError("use of device pointer after acc_free")
        length = self.nbytes // SIZEOF.get(type_base, 8)
        if self.buffer is None:
            self.buffer = ArrayValue((length,), type_base)
        elif self.buffer.type_base != type_base or self.buffer.length != length:
            # retyping a raw allocation: preserve length by element count
            fresh = ArrayValue((length,), type_base)
            n = min(length, self.buffer.length)
            fresh._data[:n] = _typed(fresh._data.typecode, self.buffer._data[:n])
            self.buffer = fresh
        return self.buffer


class Cell:
    """Mutable variable binding; identity of a cell keys device mappings."""

    __slots__ = ("value", "type", "name")

    def __init__(self, value, type: Optional[Type] = None, name: str = "?"):
        self.value = value
        self.type = type
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.name}={self.value!r})"


def coerce_scalar(type_base: Optional[str], value):
    """Coerce an assigned scalar to the declared type (C conversion rules:
    float->int truncates toward zero)."""
    if type_base in ("int", "long", "char", "bool"):
        return int(value)
    if type_base in ("float", "double"):
        return float(value)
    return value
