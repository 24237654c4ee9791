"""Accelerator simulator.

Substitutes for the paper's testbed (16-core Xeon host + NVIDIA K20) with a
behavioural model that preserves every property the validation tests observe:

* **discrete memories** — host variables and device copies are separate
  buffers connected only by explicit (or default) data-clause transfers
  (:mod:`repro.accsim.memory`);
* **three-level parallelism** — gangs execute the region body redundantly
  (sequentially, so "races" such as a removed ``loop`` directive produce a
  deterministic wrong value, exactly what cross tests rely on), with
  ``worker``/``vector`` levels nested inside (driven by the compiler's
  lowering, state lives in :mod:`repro.accsim.device`);
* **asynchronous queues** — enqueued activities only run at ``wait`` (or
  program exit), so ``acc_async_test`` observes incompleteness
  (:mod:`repro.accsim.asyncq`);
* **runtime library** — the OpenACC 1.0 ``acc_*`` routines over a
  :class:`~repro.accsim.machine.Machine` (:mod:`repro.accsim.runtime`).
"""

from repro.accsim.errors import AccRuntimeError, PresentError, DeviceAllocationError
from repro.accsim.values import ArrayValue, Cell, DevicePointer
from repro.accsim.memory import DeviceMemory, Mapping
from repro.accsim.asyncq import AsyncQueues, DEFAULT_QUEUE
from repro.accsim.device import Device, ExecProfile
from repro.accsim.machine import Machine
from repro.accsim.runtime import AccRuntime
from repro.accsim.envvars import apply_environment

__all__ = [
    "AccRuntimeError", "PresentError", "DeviceAllocationError",
    "ArrayValue", "Cell", "DevicePointer",
    "DeviceMemory", "Mapping",
    "AsyncQueues", "DEFAULT_QUEUE",
    "Device", "ExecProfile", "Machine", "AccRuntime",
    "apply_environment",
]
