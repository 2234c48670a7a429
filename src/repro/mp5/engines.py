"""Engine names become switches here, and nowhere else.

:func:`build_switch` turns an :data:`ENGINES` name into a fresh switch
and settles every vector fallback before the first packet is fed, so a
switch, once built, runs its trace on the engine it names
(``switch.engine``). :func:`run_engine` is the one runner behind
:func:`run_mp5`, :func:`run_mp5_reference` and :func:`run_mp5_vector`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..compiler.codegen import CompiledProgram
from ..errors import ConfigError
from .config import MP5Config
from .reference import ReferenceSwitch
from .stats import SwitchStats
from .switch import MP5Switch, TraceEntry
from .vector import VectorSwitch, VectorUnsupported, _warn_fallback

_SWITCHES = {
    cls.engine: cls for cls in (ReferenceSwitch, MP5Switch, VectorSwitch)
}

_Result = Tuple[SwitchStats, Dict[str, List[int]]]


def build_switch(
    engine: str,
    program: CompiledProgram,
    config: Optional[MP5Config] = None,
    faults=None,
    record_access_order: bool = False,
) -> MP5Switch:
    """A fresh switch for ``engine`` with ``faults`` (a
    :class:`repro.faults.FaultSchedule` or None) attached.

    ``"vector"`` builds a :class:`~repro.mp5.vector.VectorSwitch` unless,
    checked in this order, faults are armed (a non-empty schedule), the
    run records its access order, a config knob is outside the envelope
    (:func:`~repro.mp5.vector.config_fallback_reason`) or the program's
    shape is (construction raises
    :class:`~repro.mp5.vector.VectorUnsupported`). The first reason that
    applies prints one line naming it, once per warning scope
    (:func:`~repro.mp5.vector.reset_fallback_warnings`), and the fast
    engine is built instead.
    """
    cls = _SWITCHES.get(engine)
    if cls is None:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(sorted(_SWITCHES))}"
        )
    if cls is VectorSwitch:
        if faults is not None and not faults.empty:
            reason = "faults attached"
        elif record_access_order:
            reason = "record_access_order"
        else:
            try:
                return VectorSwitch(program, config)  # no faults to attach
            except VectorUnsupported as exc:
                reason = exc
        _warn_fallback(reason)
        cls = MP5Switch
    switch = cls(program, config)
    switch.attach_faults(faults)
    return switch


def run_engine(
    engine: str,
    program: CompiledProgram,
    trace: Iterable[TraceEntry],
    config: Optional[MP5Config] = None,
    max_ticks: Optional[int] = None,
    record_access_order: bool = False,
    faults=None,
    **sinks,
) -> _Result:
    """Run ``trace`` (packets, ``(arrival, port, headers)`` tuples or one
    :class:`~repro.mp5.packet.PacketColumns` batch; only read) through a
    fresh :func:`build_switch` switch and return the run statistics and
    the final register state. ``sinks`` are
    :meth:`~repro.mp5.switch.MP5Switch.attach_observability`'s keywords:
    ``recorder``, ``metrics``, ``profiler`` and ``monitor``."""
    switch = build_switch(engine, program, config, faults, record_access_order)
    switch.attach_observability(**sinks)
    stats = switch.run(
        trace, max_ticks=max_ticks, record_access_order=record_access_order
    )
    return stats, switch.public_registers()


def run_mp5(program, trace, config=None, **run_args) -> _Result:
    """The fast sparse engine; keywords as :func:`run_engine`."""
    return run_engine("fast", program, trace, config, **run_args)


def run_mp5_reference(program, trace, config=None, **run_args) -> _Result:
    """The dense reference engine; keywords as :func:`run_engine`. It
    accepts a profiler for parity but does not time its phases."""
    return run_engine("dense", program, trace, config, **run_args)


def run_mp5_vector(program, trace, config=None, **run_args) -> _Result:
    """The batch engine, or the fast engine where :func:`build_switch`
    says so; either way the results equal :func:`run_mp5`'s. Keywords
    as :func:`run_engine`."""
    return run_engine("vector", program, trace, config, **run_args)


#: The engine every caller that names none runs: the CLI's
#: ``--engine``, the daemon, the sweeps and ``reproduce --trace``.
DEFAULT_ENGINE = "fast"

#: Engine registry: the ``--engine`` names and their runners, which
#: share one signature and produce identical results.
ENGINES = {
    "dense": run_mp5_reference,
    "fast": run_mp5,
    "vector": run_mp5_vector,
}
