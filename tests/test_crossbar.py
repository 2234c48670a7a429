"""The D3 crossbar's per-tick constraints, checked on every engine.

Steering happens inline in the engines; a crossing is one
``SwitchStats.steering_moves`` count and one ``steer`` event whose
``src`` differs from its ``pipe``. A k x k crossbar at one stage
boundary can, per tick:

* carry at most one packet from each input (each stage emits <= 1);
* deliver up to k packets into one stage input — which is exactly why
  each stage input has k FIFOs (§3.2): simultaneous arrivals from
  different source pipelines land in different ring buffers.

Every engine's trace is held to both, and to the steering counter.
"""

from collections import Counter
from fractions import Fraction

import pytest

from repro.mp5 import MP5Config, build_switch
from repro.obs import TraceRecorder
from repro.workloads import line_rate_trace

from .conftest import heavy_hitter_headers

ENGINES = ("dense", "fast", "vector")
K = 4


def _steered_run(engine, program, k=K, packets=600, seed=1, **config):
    recorder = TraceRecorder()
    switch = build_switch(
        engine, program, MP5Config(num_pipelines=k, **config), recorder=recorder
    )
    assert switch.engine == engine
    stats = switch.run(line_rate_trace(packets, k, heavy_hitter_headers, seed=seed))
    steers = [e for e in recorder.events if e["type"] == "steer"]
    return switch, stats, steers


@pytest.fixture(scope="module")
def runs(heavy_hitter_program):
    """heavy_hitter at k=4, 600 packets, seed 1, on every engine."""
    return {e: _steered_run(e, heavy_hitter_program) for e in ENGINES}


class TestTelemetryInEngine:
    def test_constraints_hold_during_real_run(self, runs):
        for engine, (_switch, _stats, steers) in runs.items():
            inputs = Counter((e["tick"], e["src"], e["stage"]) for e in steers)
            outputs = Counter((e["tick"], e["pipe"], e["stage"]) for e in steers)
            assert steers, engine
            assert max(inputs.values()) == 1, engine
            assert max(outputs.values()) <= K, engine

    def test_crossings_match_steering_moves(self, runs):
        for engine, (_switch, stats, steers) in runs.items():
            crossings = sum(e["src"] != e["pipe"] for e in steers)
            assert crossings == stats.steering_moves == 439, engine

    def test_busiest_boundary_is_before_stateful_stage(
        self, runs, heavy_hitter_program
    ):
        stage = heavy_hitter_program.arrays["counts"].stage
        for engine, (_switch, _stats, steers) in runs.items():
            assert {e["stage"] for e in steers if e["src"] != e["pipe"]} == {
                stage
            }, engine

    def test_single_pipeline_never_crosses(self, heavy_hitter_program):
        for engine in ENGINES:
            _switch, stats, steers = _steered_run(
                engine, heavy_hitter_program, k=1, packets=200, seed=0
            )
            assert stats.steering_moves == 0, engine
            assert steers and all(e["src"] == e["pipe"] for e in steers), engine


@pytest.mark.parametrize("engine", ("dense", "fast"))
@pytest.mark.parametrize(
    "policy, moves", (("roundrobin", 439), ("affinity", 206))
)
def test_crossing_fraction(engine, policy, moves, heavy_hitter_program):
    """The crossing fraction is steering moves per stage traversal: on
    a run that egresses every packet, each packet crosses ``depth - 1``
    stage boundaries. Ingress-affinity spray roughly halves it
    (EXPERIMENTS.md's ablation)."""
    switch, stats, _steers = _steered_run(
        engine, heavy_hitter_program, spray_policy=policy
    )
    assert stats.egressed == stats.offered == 600
    traversals = stats.egressed * (switch.depth - 1)
    assert Fraction(stats.steering_moves, traversals) == Fraction(moves, 9000)
