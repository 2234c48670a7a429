"""Idle-tick compression must be semantically invisible.

The scalar engines teleport the tick counter across stretches where no
stage holds live work and the next arrival is known. The contract:
statistics and registers are identical to a run that steps every tick
(the teleport only skips ticks that would have been pure no-ops), remap
boundaries still fire, and the teleport disengages entirely whenever
faults or any observability sink is attached — those consumers observe
per-tick state, so skipping ticks would change what they see.

The compression has no switch of its own. The tick-stepping reference
is the same run with a :class:`~repro.obs.PhaseProfiler` attached: the
profiler times every tick, so attaching it is the public way to pin a
switch to stepping them, and every reference asserts that it did.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultSchedule
from repro.mp5 import MP5Config, MP5Switch, ReferenceSwitch
from repro.obs import InvariantMonitor, PhaseProfiler
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

FAULT_DIR = Path("examples/faults")

SWITCHES = {"fast": MP5Switch, "dense": ReferenceSwitch}


def _schedule(kind: str, num_packets: int = 150, seed: int = 0):
    """A trace whose arrivals leave long idle stretches.

    ``bursty``: tight clumps separated by ~40-tick gaps. ``sparse``:
    one packet every ~150 ticks, with fractional arrivals mixed in so
    the ceil-to-next-tick path is exercised too.
    """
    trace = sensitivity_trace(num_packets, 4, 4, 64, seed=seed)
    for i, pkt in enumerate(trace):
        if kind == "bursty":
            pkt.arrival = float((i // 10) * 40 + (i % 10))
        else:
            pkt.arrival = i * 150 + (0.5 if i % 3 else 0.0)
    return trace


def _run(engine, trace, config, stepped, **run_args):
    """One run on a fresh switch; ``stepped`` attaches a profiler, which
    pins the switch to stepping every tick."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = SWITCHES[engine](program, config)
    if stepped:
        switch.attach_observability(profiler=PhaseProfiler())
    stats = switch.run(trace, **run_args)
    if stepped:
        assert switch._idle_teleports == 0
    return switch, stats


CONFIG_VARIANTS = {
    "default": dict(),
    "remap_none": dict(remap_algorithm="none"),
    "short_remap": dict(remap_period=7),
    "flow_order": dict(flow_order_field="f0"),
    "tiny_fifo": dict(fifo_capacity=2),
    "phantom_loss": dict(phantom_loss_rate=0.3),
}


@pytest.mark.parametrize("engine", sorted(SWITCHES))
@pytest.mark.parametrize("kind", ("bursty", "sparse"))
@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_compression_invisible(engine, kind, variant):
    """Stats, registers, and the JSON-rendered summary are identical
    to the tick-stepped run, on both scalar engines."""
    config = MP5Config(num_pipelines=4, **CONFIG_VARIANTS[variant])
    results = {}
    for stepped in (False, True):
        switch, stats = _run(
            engine, _schedule(kind), config, stepped, max_ticks=60000
        )
        results[stepped] = (stats, switch.public_registers())
    on_stats, on_regs = results[False]
    off_stats, off_regs = results[True]
    assert on_stats == off_stats
    assert on_regs == off_regs
    # results.json fidelity: the summary serializes identically too.
    assert json.dumps(on_stats.summary()) == json.dumps(off_stats.summary())


@pytest.mark.parametrize("engine", sorted(SWITCHES))
@pytest.mark.parametrize("kind", ("bursty", "sparse"))
def test_compression_engages_and_preserves_tick_count(engine, kind):
    """On gappy schedules the teleport must actually fire, and the
    final tick count must equal the tick-stepped run's."""
    config = MP5Config(num_pipelines=4)
    on, on_stats = _run(engine, _schedule(kind), config, stepped=False)
    _, off_stats = _run(engine, _schedule(kind), config, stepped=True)
    assert on._idle_teleports > 0
    assert on_stats.ticks == off_stats.ticks


def test_compression_off_by_flag():
    """The profiler alone disengages the teleport on a sparse trace."""
    switch, _ = _run(
        "fast", _schedule("sparse"), MP5Config(num_pipelines=4), stepped=True
    )
    assert switch._idle_teleports == 0


def test_dense_line_rate_never_teleports():
    """At line rate there is no idle stretch to compress; the teleport
    must not perturb a busy switch."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = MP5Switch(program, MP5Config(num_pipelines=4))
    switch.run(sensitivity_trace(200, 4, 4, 64, seed=0))
    assert switch._idle_teleports == 0


def _fault_schedules():
    paths = sorted(FAULT_DIR.glob("*.json"))
    assert len(paths) == 7, "examples/faults/ schedule set changed"
    return paths


@pytest.mark.parametrize(
    "path", _fault_schedules(), ids=lambda p: p.stem
)
def test_compression_auto_disables_under_faults(path):
    """Every bundled fault schedule pins the switch to real per-tick
    stepping, even on a sparse trace that would otherwise teleport."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = MP5Switch(program, MP5Config(num_pipelines=4))
    switch.attach_faults(FaultSchedule.load(str(path)))
    switch.run(_schedule("sparse", num_packets=40), max_ticks=20000)
    assert switch._idle_teleports == 0


def test_compression_auto_disables_under_monitor():
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = MP5Switch(program, MP5Config(num_pipelines=4))
    switch.attach_observability(monitor=InvariantMonitor())
    switch.run(_schedule("sparse", num_packets=40))
    assert switch._idle_teleports == 0
