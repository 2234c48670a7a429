"""MP5 core: the multi-pipelined programmable switch (architecture + runtime).

The four design decisions of §3 map onto this package:

* **D1** (k identical feed-forward pipelines) — the occupancy grid and
  per-tick movement in :mod:`repro.mp5.switch` (fast sparse engine) and
  :mod:`repro.mp5.reference` (dense executable specification).
* **D2** (dynamically sharded register state) — the index-to-pipeline
  map, access/in-flight counters, the Figure 6 remap heuristic, and the
  emergency evacuation used under faults, all in
  :mod:`repro.mp5.sharding`.
* **D3** (inter-stage crossbars) — steering happens inline in the
  engines; each crossing counts in ``SwitchStats.steering_moves`` and
  is a ``steer`` event whose ``src`` differs from its ``pipe``.
* **D4** (phantom packets + per-stage k-FIFO groups) — the
  push/insert/pop discipline of :mod:`repro.mp5.fifo`, which enforces
  correctness condition **C1**: every register state is accessed in
  packet-arrival order (accounting in :mod:`repro.mp5.stats`).

Three engines execute the same semantics and are differentially tested
against each other (``tests/test_fastpath_equivalence.py``,
``tests/test_vector_equivalence.py``):

* ``dense`` — :class:`~repro.mp5.reference.ReferenceSwitch`, the
  executable specification (full per-tick occupancy scan);
* ``fast`` — :class:`~repro.mp5.switch.MP5Switch`, the sparse worklist
  engine, and the only one that supports every config knob and faults;
* ``vector`` — :class:`~repro.mp5.vector.VectorSwitch`, the
  structure-of-arrays NumPy batch engine. Observability sinks attach
  natively and are fed after the run from the epoch schedule's tick
  columns (:mod:`repro.obs.reconstruct`): a recorder event by event, a
  registry and a monitor one window at a time. Its run
  splits into an exact timing sweep and a service replay
  (:mod:`repro.mp5.epochs`): wave plans run as NumPy batch kernels,
  serial plans as one fused per-row kernel
  (:mod:`repro.compiler.native`) — ``@njit``-compiled when Numba
  imports, the same source as plain Python otherwise; there is no flag.

Pick one by name through :data:`ENGINES` (the ``--engine`` CLI flag)::

    from repro.mp5 import ENGINES

    stats, registers = ENGINES["vector"](program, trace, config)

Every name becomes a switch in one function,
:func:`~repro.mp5.engines.build_switch`, which settles before the first
packet whether ``vector`` runs: ``phantom_channel`` faults, sinks on a
run that can drop packets, access-order recording, a config knob or a
program shape the batch reduction cannot express give the run to
``fast`` with one warning line naming the reason.

Public surface::

    from repro.mp5 import MP5Switch, MP5Config, run_mp5

    program = compile_program("flowlet")
    stats, registers = run_mp5(program, trace, MP5Config(num_pipelines=4))
"""

from ..compiler.native import native_available, native_unavailable_reason
from .config import MP5Config
from .engines import (
    DEFAULT_ENGINE,
    ENGINES,
    build_switch,
    run_mp5,
    run_mp5_reference,
    run_mp5_vector,
)
from .epochs import (
    EpochSchedule,
    EpochStreamer,
    execute_epoch_service,
)
from .fifo import IdealOrderBuffer, Slot, StageFifoGroup
from .packet import DataPacket, PacketColumns, PhantomPacket, StateAccess
from .partition import LogicalPartition, PartitionedMP5, PartitionResult
from .reference import ReferenceSwitch
from .sharding import ShardedArray, ShardingRuntime
from .stats import C1Report, SwitchStats, c1_metrics
from .switch import FLOW_ORDER_ARRAY, MP5Switch
from .vector import VectorSwitch, VectorUnsupported

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "build_switch",
    "EpochSchedule",
    "EpochStreamer",
    "VectorSwitch",
    "VectorUnsupported",
    "execute_epoch_service",
    "native_available",
    "native_unavailable_reason",
    "run_mp5_vector",
    "DataPacket",
    "PacketColumns",
    "FLOW_ORDER_ARRAY",
    "IdealOrderBuffer",
    "LogicalPartition",
    "PartitionResult",
    "PartitionedMP5",
    "MP5Config",
    "MP5Switch",
    "PhantomPacket",
    "ReferenceSwitch",
    "ShardedArray",
    "ShardingRuntime",
    "Slot",
    "StageFifoGroup",
    "StateAccess",
    "C1Report",
    "SwitchStats",
    "c1_metrics",
    "run_mp5",
    "run_mp5_reference",
]
