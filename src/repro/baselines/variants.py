"""MP5 design-ablation variants expressed as configurations.

These reuse the full MP5 engine with individual design principles
disabled, which is how §4.3.2 evaluates the contribution of D2 and D4.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..compiler.codegen import CompiledProgram
from ..mp5.config import MP5Config
from ..mp5.engines import DEFAULT_ENGINE, build_switch
from ..mp5.stats import SwitchStats
from ..mp5.switch import MP5Switch


def static_shard_config(**kwargs) -> MP5Config:
    """D2 ablation: register state sharded randomly across pipelines at
    compile time and never moved during runtime (§4.3.2)."""
    kwargs.setdefault("initial_shard", "random")
    kwargs["remap_algorithm"] = "none"
    return MP5Config(**kwargs)


def no_phantom_config(**kwargs) -> MP5Config:
    """D4 ablation: steering and sharding active, but no phantom packets —
    stateful packets queue in simple push order, so arrival-order state
    access is no longer enforced (§4.3.2 reports 14-26% violations)."""
    kwargs["enable_phantoms"] = False
    return MP5Config(**kwargs)


def make_single_pipeline_state_switch(
    program: CompiledProgram,
    config: Optional[MP5Config] = None,
    engine: str = DEFAULT_ENGINE,
) -> MP5Switch:
    """The naive design from §3.1 Challenge #1: all register state lives
    in pipeline 0, so every stateful packet funnels through it and the
    stateful processing rate caps at 1/k of line rate. ``engine`` is a
    :func:`~repro.mp5.engines.build_switch` name."""
    switch = build_switch(engine, program, config or MP5Config())
    for state in switch.sharder.arrays.values():
        state.index_to_pipeline[:] = 0
        state.shardable = False  # remap must never spread it again
    return switch


def run_single_pipeline_state(
    program: CompiledProgram,
    trace: Iterable,
    config: Optional[MP5Config] = None,
    max_ticks: Optional[int] = None,
    record_access_order: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[SwitchStats, dict]:
    """Run a trace through the naive single-pipeline-state design."""
    switch = make_single_pipeline_state_switch(program, config, engine)
    stats = switch.run(
        trace, max_ticks=max_ticks, record_access_order=record_access_order
    )
    return stats, switch.public_registers()
