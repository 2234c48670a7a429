"""Idle-tick compression must be semantically invisible.

The scalar engines teleport the tick counter across stretches where
nothing can move and the next arrival, scheduled egress, remap boundary
or fault-schedule change is known. The contract: statistics, registers
and recorder events are identical to a run that steps every tick (the
teleport only skips ticks that would have been pure no-ops), remap
boundaries still fire, and the teleport disengages whenever an
observability sink that samples every tick (monitor, metrics, profiler)
is attached. Under a fault schedule the fast engine keeps teleporting —
it clamps at the injector's next change and skips across full stalls —
while the dense engine steps every tick, so it stays the oracle.

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
from repro.obs import InvariantMonitor, PhaseProfiler, TraceRecorder, canonical_form
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


def _run(engine, trace, config, stepped, faults=None, recorder=None, **run_args):
    """One run on a fresh switch; ``stepped`` attaches a profiler, which
    pins the switch to stepping every tick."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = SWITCHES[engine](program, config)
    switch.attach_faults(faults)
    switch.attach_observability(
        recorder=recorder, profiler=PhaseProfiler() if stepped else None
    )
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


@pytest.mark.parametrize("kind", ("bursty", "sparse"))
@pytest.mark.parametrize(
    "path", _fault_schedules(), ids=lambda p: p.stem
)
def test_compression_invisible_under_faults(path, kind):
    """Under every bundled fault schedule the fast engine still
    teleports, and its run equals both the tick-stepped fast run and the
    dense run (which steps every tick under faults): stats, registers
    and recorder events."""
    config = MP5Config(num_pipelines=4)
    schedule = FaultSchedule.load(str(path))
    runs = {}
    for name, engine, stepped in (
        ("fast", "fast", False),
        ("stepped", "fast", True),
        ("dense", "dense", False),
    ):
        recorder = TraceRecorder()
        switch, stats = _run(
            engine,
            _schedule(kind, num_packets=40),
            config,
            stepped,
            faults=schedule,
            recorder=recorder,
            max_ticks=20000,
        )
        runs[name] = (switch, stats, switch.public_registers(), recorder.events)
    assert runs["fast"][0]._idle_teleports > 0
    assert runs["dense"][0]._idle_teleports == 0
    fast, stepped, dense = runs["fast"], runs["stepped"], runs["dense"]
    assert fast[1] == stepped[1] == dense[1]
    assert fast[2] == stepped[2] == dense[2]
    assert fast[3] == stepped[3]
    assert canonical_form(fast[3]) == canonical_form(dense[3])


def _flowlet_packet(arrival: int, sport: int):
    return (float(arrival), 0, {"sport": sport, "dport": 80, "arrival": arrival})


# Schedule name -> (stalled pipeline, trace). Flowlet's stages 6-15 are an
# instruction-free tail. With dport 80, sport 2 hashes to an index on
# pipeline 1, sport 1 to pipeline 2 and sport 13 to pipeline 0 (the
# initial map is round-robin). The first packet enters its pipeline's
# tail before the stall or slowdown opens and is held there; the second
# enters pipeline 0's tail much later, and both egress on one tick.
SAME_TICK_EGRESS = {
    "stall": (1, [_flowlet_packet(10, 2), _flowlet_packet(50, 13)]),
    "slowdown": (2, [_flowlet_packet(10, 1), _flowlet_packet(28, 13)]),
}


@pytest.mark.parametrize("name", sorted(SAME_TICK_EGRESS))
def test_tail_egress_in_pipeline_order_under_stall(flowlet_program, name):
    """A stalled pipeline's tail packet and another pipeline's later
    tail packet egress on the same tick: they leave in pipeline order,
    as the dense engine's movement scan egresses them."""
    stalled, trace = SAME_TICK_EGRESS[name]
    schedule = FaultSchedule.load(str(FAULT_DIR / f"{name}.json"))
    results = {}
    for engine, cls in SWITCHES.items():
        switch = cls(flowlet_program, MP5Config(num_pipelines=4))
        switch.attach_faults(schedule)
        stats = switch.run(trace, record_access_order=True)
        tails = [(p.egress_tick, p.accesses[-1].pipeline) for p in switch.packets]
        results[engine] = (stats, switch.public_registers(), tails)
    first, second = results["fast"][2]
    assert first == (second[0], stalled) and second[1] == 0
    # Pipeline order: the later entry (pipeline 0) leaves first.
    assert results["fast"][0].latencies == [
        second[0] - trace[1][0],
        first[0] - trace[0][0],
    ]
    assert results["fast"] == results["dense"]


def test_compression_auto_disables_under_monitor():
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = MP5Switch(program, MP5Config(num_pipelines=4))
    switch.attach_observability(monitor=InvariantMonitor())
    switch.run(_schedule("sparse", num_packets=40))
    assert switch._idle_teleports == 0
