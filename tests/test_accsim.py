"""Tests for the accelerator simulator: values, memory, async queues,
machine and the runtime library.

The property tests use numpy as a differential oracle for the flat array
store (the parent storage was an ``np.ndarray``); they skip where numpy is
not installed, the runtime itself never imports it.
"""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from repro.accsim import (
    AccRuntime,
    ArrayValue,
    AsyncQueues,
    Cell,
    DeviceMemory,
    DevicePointer,
    Machine,
    apply_environment,
)
from repro.accsim.errors import (
    AccRuntimeError,
    DeviceAllocationError,
    InvalidDeviceError,
    PresentError,
)
from repro.accsim.memory import garbage_fill
from repro.spec.devices import (
    ACC_DEVICE_HOST,
    ACC_DEVICE_NONE,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


#: element values a program may store: integers, and floats (negative and
#: fractional ones exercise truncation toward zero into integer arrays)
_ELEMENTS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(-1e6, 1e6, allow_nan=False),
)


def _positions(shape):
    """Every zero-based position of ``shape`` in row-major order."""
    return list(itertools.product(*(range(extent) for extent in shape)))


class TestArrayValue:
    def test_zero_based_indexing(self):
        a = ArrayValue((5,), "int")
        a.set([2], 7)
        assert a.get([2]) == 7

    def test_fortran_lower_bounds(self):
        a = ArrayValue((5,), "int", lowers=(1,))
        a.set([1], 42)
        a.set([5], 43)
        assert a.get([1]) == 42 and a.get([5]) == 43

    def test_out_of_bounds_raises(self):
        a = ArrayValue((3,), "int", lowers=(1,))
        with pytest.raises(AccRuntimeError):
            a.get([0])
        with pytest.raises(AccRuntimeError):
            a.get([4])

    def test_rank_mismatch_raises(self):
        a = ArrayValue((3, 3), "int")
        with pytest.raises(AccRuntimeError):
            a.get([1])

    def test_negative_extent_rejected(self):
        with pytest.raises(AccRuntimeError):
            ArrayValue((-1,), "int")

    def test_float_roundtrip(self):
        a = ArrayValue((2,), "double")
        a.set([0], 2.5)
        assert a.get([0]) == 2.5
        assert isinstance(a.get([0]), float)

    def test_sections_respect_declared_space(self):
        a = ArrayValue((10,), "int", lowers=(1,), fill=list(range(10)))
        section = a.read_section(3, 4)  # declared indices 3..6
        assert list(section) == [2, 3, 4, 5]
        a.write_section(3, [9, 9, 9, 9])
        assert a.get([3]) == 9 and a.get([6]) == 9
        assert a.get([2]) == 1 and a.get([7]) == 6

    def test_clone_is_independent(self):
        a = ArrayValue((3,), "int")
        b = a.clone()
        b.set([0], 5)
        assert a.get([0]) == 0

    @given(st.data())
    def test_indexing_matches_numpy(self, np, data):
        rank = data.draw(st.integers(1, 3))
        dims = st.lists(st.integers(1, 4), min_size=rank, max_size=rank)
        shape = tuple(data.draw(dims))
        lowers = tuple(data.draw(
            st.lists(st.integers(-5, 5), min_size=rank, max_size=rank)))
        base = data.draw(st.sampled_from(["int", "long", "float", "double"]))
        dtype = np.float64 if base in ("float", "double") else np.int64
        fill = data.draw(_ELEMENTS)
        a = ArrayValue(shape, base, lowers, fill=fill)
        ref = np.zeros(shape, dtype=dtype)
        ref.fill(fill)
        positions = _positions(shape)
        values = data.draw(st.lists(_ELEMENTS, min_size=len(positions),
                                    max_size=len(positions)))
        declared = [[p + l for p, l in zip(pos, lowers)] for pos in positions]
        for pos, idx in zip(positions, declared):
            assert a.get(idx) == ref[pos]
        copy = a.clone()
        for pos, idx, value in zip(positions, declared, values):
            a.set(idx, value)
            ref[pos] = value
        for pos, idx in zip(positions, declared):
            got = a.get(idx)
            assert type(got) is type(ref[pos].item())
            assert got == ref[pos]
        # the clone kept the fill and stays independent of its source
        copy.set(declared[0], 42)
        assert a.get(declared[0]) == ref[positions[0]]
        assert all(copy.get(idx) == ref.dtype.type(fill) for idx in declared[1:])
        if dtype is np.int64:
            a.set(declared[-1], -2.7)
            ref[positions[-1]] = -2.7
            assert a.get(declared[-1]) == ref[positions[-1]] == -2
            with pytest.raises(OverflowError):
                ref[positions[-1]] = 2**63
            with pytest.raises(OverflowError):
                a.set(declared[-1], 2**63)
        bad = list(declared[-1])
        bad[-1] += 1
        with pytest.raises(AccRuntimeError, match=re.escape(
                f"index out of bounds: subscript {bad} for shape {ref.shape} "
                f"(lower bounds {lowers})")):
            a.get(bad)
        with pytest.raises(AccRuntimeError, match=re.escape(
                f"rank mismatch: {rank + 1} subscripts for rank-{ref.ndim} array")):
            a.get(declared[0] + [0])


class TestDevicePointer:
    def test_as_array_sizes_by_itemsize(self):
        p = DevicePointer(nbytes=40)
        assert p.as_array("int").length == 10
        p2 = DevicePointer(nbytes=40)
        assert p2.as_array("double").length == 5
        p3 = DevicePointer(nbytes=40)
        assert p3.as_array("char").length == 40

    @given(st.data())
    def test_retype_matches_numpy_cast(self, np, data):
        """Retyping a raw allocation keeps the leading elements, converted
        exactly as the parent's numpy slice assignment did."""
        nbytes = data.draw(st.integers(0, 64))
        first, second = data.draw(st.sampled_from(
            [("int", "double"), ("double", "int"), ("long", "float")]))
        dtypes = {"int": np.int64, "long": np.int64,
                  "float": np.float64, "double": np.float64}
        p = DevicePointer(nbytes=nbytes)
        a = p.as_array(first)
        values = data.draw(st.lists(_ELEMENTS, min_size=a.length,
                                    max_size=a.length))
        ref_a = np.zeros(a.length, dtype=dtypes[first])
        for i, value in enumerate(values):
            a.set([i], value)
            ref_a[i] = value
        b = p.as_array(second)
        ref_b = np.zeros(b.length, dtype=dtypes[second])
        n = min(a.length, b.length)
        ref_b[:n] = ref_a[:n]
        assert [b.get([i]) for i in range(b.length)] == ref_b.tolist()
        assert p.as_array(second) is b

    def test_use_after_free_raises(self):
        memory = DeviceMemory()
        p = memory.malloc(16)
        memory.free(p)
        with pytest.raises(AccRuntimeError):
            p.as_array("int")

    def test_double_free_raises(self):
        memory = DeviceMemory()
        p = memory.malloc(16)
        memory.free(p)
        with pytest.raises(DeviceAllocationError):
            memory.free(p)


class TestDeviceMemory:
    def _cell(self, n=4, fill=0):
        a = ArrayValue((n,), "int", fill=fill)
        return Cell(a, name="a"), a

    def test_copy_roundtrip(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=3)
        mapping = memory.enter("copy", cell, 0, 4)
        assert mapping.device_data.get([1]) == 3  # copied in
        mapping.device_data.set([1], 99)
        memory.exit(mapping)
        assert host.get([1]) == 99  # copied out
        assert not memory.is_present(cell)

    def test_copyin_no_writeback(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=5)
        mapping = memory.enter("copyin", cell, 0, 4)
        mapping.device_data.set([0], -1)
        memory.exit(mapping)
        assert host.get([0]) == 5

    def test_copyout_garbage_in(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=7)
        mapping = memory.enter("copyout", cell, 0, 4)
        # fresh allocation must NOT contain the host values
        assert mapping.device_data.get([0]) != 7
        mapping.device_data.set([0], 1)
        mapping.device_data.set([1], 2)
        mapping.device_data.set([2], 3)
        mapping.device_data.set([3], 4)
        memory.exit(mapping)
        assert [host.get([i]) for i in range(4)] == [1, 2, 3, 4]

    def test_create_no_transfers(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=11)
        mapping = memory.enter("create", cell, 0, 4)
        mapping.device_data.set([0], 1)
        memory.exit(mapping)
        assert host.get([0]) == 11

    def test_present_requires_mapping(self):
        memory = DeviceMemory()
        cell, _ = self._cell()
        with pytest.raises(PresentError):
            memory.enter("present", cell)

    def test_present_refcounts(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        outer = memory.enter("copy", cell, 0, 4)
        inner = memory.enter("present", cell, 0, 4)
        assert inner is outer and outer.refcount == 2
        memory.exit(inner)
        assert memory.is_present(cell)
        outer.device_data.set([0], 42)
        memory.exit(outer)
        assert host.get([0]) == 42

    def test_present_or_copy_reuses(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        outer = memory.enter("copyin", cell, 0, 4)
        inner = memory.enter("present_or_copy", cell, 0, 4)
        assert inner is outer
        inner.device_data.set([0], 9)
        memory.exit(inner)
        memory.exit(outer)
        # the copyin owner never writes back
        assert host.get([0]) == 1

    def test_alias_cells_share_mapping(self):
        """A parameter bound to the caller's array must see its mapping."""
        memory = DeviceMemory()
        cell, host = self._cell(fill=2)
        alias = Cell(host, name="param")
        memory.enter("copyin", cell, 0, 4)
        assert memory.is_present(alias)

    def test_scalar_copy(self):
        memory = DeviceMemory()
        cell = Cell(5, name="flag")
        mapping = memory.enter("copy", cell)
        assert mapping.device_data == 5
        mapping.device_data = 6
        memory.exit(mapping)
        assert cell.value == 6

    def test_scalar_skip_transfer_hook(self):
        memory = DeviceMemory()
        cell = Cell(5, name="flag")
        mapping = memory.enter("copy", cell, skip_scalar_transfer=True)
        assert mapping.device_data != 5  # garbage, not copied
        mapping.device_data = 7
        memory.exit(mapping)
        assert cell.value == 5  # no copyout either (Cray bug)

    def test_update_host_device(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        mapping = memory.enter("copyin", cell, 0, 4)
        host.set([0], 50)
        memory.update_device(cell, 0, 1)
        assert mapping.device_data.get([0]) == 50
        mapping.device_data.set([1], 60)
        memory.update_host(cell, 1, 1)
        assert host.get([1]) == 60

    def test_update_absent_raises(self):
        memory = DeviceMemory()
        cell, _ = self._cell()
        with pytest.raises(PresentError):
            memory.update_host(cell)

    def test_unstructured_delete_and_copyout(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=0)
        memory.enter("copyin", cell, 0, 4)
        memory.lookup(cell).device_data.set([0], 8)
        memory.force_copyout(cell)
        assert host.get([0]) == 8
        assert not memory.is_present(cell)
        memory.enter("create", cell, 0, 4)
        memory.delete(cell)
        assert not memory.is_present(cell)

    def test_bytes_accounting(self):
        memory = DeviceMemory()
        cell, _ = self._cell(n=10)
        mapping = memory.enter("create", cell, 0, 10)
        assert memory.bytes_allocated == mapping.device_data.nbytes == 80
        memory.exit(mapping)
        assert memory.bytes_allocated == 0

    def test_fill_garbage_deterministic(self):
        assert garbage_fill((8,), "int", 3) == garbage_fill((8,), "int", 3)
        assert garbage_fill((8,), "int", 3) != garbage_fill((8,), "int", 4)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=3),
           st.integers(0, 10**6), st.sampled_from(["int", "double"]))
    def test_garbage_matches_numpy_pattern(self, np, shape, salt, base):
        """The flat pattern is the parent's vectorised one, element for
        element, and a fresh device allocation holds it in row-major order."""
        idx = np.arange(int(np.prod(shape)), dtype=np.int64)
        pattern = ((salt * 2654435761 + idx * 40503) % 1000003) - 500000
        if base == "double":
            pattern = pattern.astype(np.float64) * 1e-3
        assert garbage_fill(shape, base, salt) == pattern.tolist()
        device = ArrayValue(shape, base, fill=garbage_fill(shape, base, salt))
        ref = pattern.reshape(shape)
        for pos in _positions(shape):
            assert device.get(list(pos)) == ref[pos]

    @given(st.data())
    def test_section_copy_roundtrip(self, np, data):
        """copy(a[start:length]) of a rank-1 or rank-2 array: the device
        rows, the copied-back host and the transfer sizes match numpy."""
        rows = data.draw(st.integers(1, 8))
        shape = (rows,) + tuple(data.draw(
            st.lists(st.integers(0, 4), max_size=1)))
        lower = data.draw(st.integers(-3, 3))
        start_off = data.draw(st.integers(0, rows - 1))
        length = data.draw(st.integers(1, rows - start_off))
        base = data.draw(st.sampled_from(["int", "double"]))
        lowers = (lower,) + (0,) * (len(shape) - 1)
        size = int(np.prod(shape))
        ref = np.arange(size, dtype=np.int64 if base == "int" else np.float64)
        ref = ref.reshape(shape) - 3
        memory = DeviceMemory()
        host = ArrayValue(shape, base, lowers, fill=ref.ravel().tolist())
        cell = Cell(host, name="h")
        start = lower + start_off
        assert (list(host.read_section(start, length))
                == ref[start_off:start_off + length].ravel().tolist())
        mapping = memory.enter("copy", cell, start, length)
        section_bytes = ref[start_off:start_off + length].nbytes
        assert memory.bytes_allocated == memory.bytes_to_device == section_bytes
        device = mapping.device_data
        assert device.shape == ref[start_off:start_off + length].shape
        for pos in _positions(device.shape):
            idx = [start + pos[0]] + list(pos[1:])
            assert device.get(idx) == ref[(start_off + pos[0],) + pos[1:]]
            device.set(idx, -2.5 * (pos[0] + 1))
            ref[(start_off + pos[0],) + pos[1:]] = -2.5 * (pos[0] + 1)
        memory.exit(mapping)
        assert memory.bytes_to_host == section_bytes
        assert memory.bytes_allocated == 0
        for pos in _positions(shape):
            assert host.get([lower + pos[0]] + list(pos[1:])) == ref[pos]
        if shape[1:] != (0,):
            with pytest.raises(AccRuntimeError, match=re.escape(
                    f"section write [{start + 1}:{start + 1 + length}) "
                    "outside array bounds")):
                device.write_section(start + 1,
                                     host.read_section(start, length))


class TestAsyncQueues:
    def test_deferred_execution(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(1, lambda: fired.append("a"))
        assert not q.test(1)
        assert fired == []
        q.wait(1)
        assert fired == ["a"]
        assert q.test(1)

    def test_queues_independent(self):
        q = AsyncQueues()
        q.enqueue(1, lambda: None)
        assert q.test(2)
        assert not q.test_all()

    def test_default_queue(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(None, lambda: fired.append(1))
        assert not q.test(None)
        q.wait(None)
        assert fired == [1]

    def test_wait_all_drains_everything(self):
        q = AsyncQueues()
        fired = []
        for tag in (1, 2, None):
            q.enqueue(tag, lambda t=tag: fired.append(t))
        q.wait_all()
        assert q.test_all() and len(fired) == 3

    def test_order_within_queue(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(5, lambda: fired.append(1))
        q.enqueue(5, lambda: fired.append(2))
        q.wait(5)
        assert fired == [1, 2]

    def test_logical_clock(self):
        q = AsyncQueues()
        q.enqueue(1, lambda: None)
        q.enqueue(1, lambda: None)
        assert q.enqueued == 2 and q.completed == 0
        q.wait(1)
        assert q.completed == 2


class TestMachineAndRuntime:
    def test_current_device_prefers_accelerator(self):
        m = Machine()
        assert m.current_device().device_type is ACC_DEVICE_NVIDIA

    def test_set_host_type(self):
        m = Machine()
        m.set_device_type(ACC_DEVICE_HOST)
        assert m.current_device().is_host

    def test_bad_device_num(self):
        m = Machine(accel_count=1)
        m.set_device_num(5)
        with pytest.raises(InvalidDeviceError):
            m.current_device()

    def test_num_devices(self):
        rt = AccRuntime(Machine(accel_count=2))
        assert rt.acc_get_num_devices(ACC_DEVICE_NOT_HOST) == 2
        assert rt.acc_get_num_devices(ACC_DEVICE_NONE) == 0

    def test_device_type_roundtrip(self):
        rt = AccRuntime(Machine())
        rt.acc_set_device_type(ACC_DEVICE_NOT_HOST)
        concrete = rt.acc_get_device_type()
        assert concrete.not_host

    def test_on_device_host_binding(self):
        rt = AccRuntime(Machine())
        assert rt.acc_on_device(ACC_DEVICE_HOST) == 1
        assert rt.acc_on_device(ACC_DEVICE_NOT_HOST) == 0

    def test_shutdown_flushes_and_resets(self):
        m = Machine()
        rt = AccRuntime(m)
        dev = m.current_device()
        fired = []
        dev.queues.enqueue(1, lambda: fired.append(1))
        rt.acc_shutdown(ACC_DEVICE_NOT_HOST)
        assert fired == [1]
        assert m.current_device().queues.pending() == 0

    def test_async_hook_override(self):
        class Hooks:
            def hook_async_test(self, tag, result):
                return -1

        rt = AccRuntime(Machine(), hooks=Hooks())
        assert rt.acc_async_test(3) == -1

    def test_env_device_type(self):
        m = Machine()
        apply_environment(m, {"ACC_DEVICE_TYPE": "HOST"})
        assert m.current_device().is_host

    def test_env_device_num_invalid(self):
        m = Machine()
        with pytest.raises(InvalidDeviceError):
            apply_environment(m, {"ACC_DEVICE_NUM": "zero"})

    def test_env_unknown_type(self):
        m = Machine()
        with pytest.raises(InvalidDeviceError):
            apply_environment(m, {"ACC_DEVICE_TYPE": "ABACUS"})
