"""The trace is input: no engine writes into the trace it is given.

One trace object — a ``DataPacket`` list, ``(arrival, port, headers)``
tuples or one ``PacketColumns`` batch — runs through the dense, fast
and vector engines in every order. After every run it must still be
deep-equal to a snapshot taken before the first: every packet field
(``pkt_id``, ``env``, ``accesses``, ``headers``, ``flow_id`` and the
per-run slots) and every column array. The rendered stats and
registers must be byte-identical across orders, and the vector engine
must not fall back because another engine ran the trace first.
"""

import copy
import functools
from itertools import permutations

import numpy as np
import pytest

from repro.apps import FLOWLET
from repro.compiler import compile_program
from repro.faults import FaultEvent, FaultSchedule
from repro.mp5 import ENGINES, MP5Config, MP5Switch, PacketColumns, VectorSwitch
from repro.mp5.vector import reset_fallback_warnings
from repro.service.daemon import render_payload, segment_payload
from repro.workloads import (
    clone_packets,
    line_rate_trace,
    sensitivity_trace,
    variable_size_trace,
)
from repro.workloads.traceio import stats_to_dict

from tests.test_integration import HEADER_GENERATORS

SHAPES = ("packets", "tuples", "columns")
ORDERS = list(permutations(("dense", "fast", "vector")))
CONFIG = MP5Config(num_pipelines=4, remap_period=20)
#: The ideal baseline queues in an IdealOrderBuffer (and the vector
#: engine runs it on the fast engine): the trace must survive it too.
CONFIGS = {"default": CONFIG, "ideal": MP5Config.ideal(num_pipelines=4)}


@functools.lru_cache(maxsize=None)
def _program():
    return FLOWLET.compile()


def _trace(shape):
    """A flowlet trace (flow ids set, next hops written by the program)
    in one of :data:`SHAPES`."""
    packets = FLOWLET.workload(300, 4, seed=5)
    if shape == "tuples":
        return [(p.arrival, p.port, dict(p.headers)) for p in packets]
    if shape == "columns":
        return PacketColumns.from_packets(packets)
    return packets


def _snapshot(trace):
    if isinstance(trace, PacketColumns):
        return {
            "arrival": trace.arrival.copy(),
            "port": trace.port.copy(),
            "size": trace.size.copy(),
            "flow": list(trace.flow),
            "headers": {f: col.copy() for f, col in trace.headers.items()},
            "ticks": list(trace.ticks()),
        }
    return copy.deepcopy(trace)


def _assert_unchanged(trace, snap):
    if not isinstance(trace, PacketColumns):
        # Dataclass equality covers every DataPacket field but the
        # per-stage access table, which must also still be unbuilt
        # (a tuple has none).
        assert trace == snap
        assert all(getattr(p, "_by_stage", None) is None for p in trace)
        return
    for name in ("arrival", "port", "size"):
        got, want = getattr(trace, name), snap[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert trace.flow == snap["flow"]
    assert trace.headers.keys() == snap["headers"].keys()
    for f, want in snap["headers"].items():
        assert np.array_equal(trace.headers[f], want), f
    assert trace.ticks() == snap["ticks"]


def _render(stats, registers):
    return render_payload(segment_payload(stats, registers)) + repr(
        (stats_to_dict(stats, include_distributions=True), stats.flow_egress)
    )


@functools.lru_cache(maxsize=None)
def _expected(shape, config="default"):
    return _render(
        *ENGINES["fast"](_program(), _trace(shape), CONFIGS[config])
    )


def _run_in_order(shape, order, config):
    trace = _trace(shape)
    snap = _snapshot(trace)
    for engine in order:
        rendered = _render(
            *ENGINES[engine](_program(), trace, CONFIGS[config])
        )
        _assert_unchanged(trace, snap)
        assert rendered == _expected(shape, config), engine


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
@pytest.mark.parametrize("shape", SHAPES)
def test_engines_leave_the_trace_unchanged_in_any_order(shape, order, capsys):
    reset_fallback_warnings()
    _run_in_order(shape, order, "default")
    assert "vector engine:" not in capsys.readouterr().err


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
@pytest.mark.parametrize("shape", SHAPES)
def test_ideal_config_leaves_the_trace_unchanged_in_any_order(shape, order):
    """Figure 7 runs the ideal baseline on the trace the default config
    just ran; its IdealOrderBuffer must not write it either."""
    _run_in_order(shape, order, "ideal")


def test_column_trace_runs_on_every_engine_like_the_packet_list():
    """``run()`` takes a ``PacketColumns`` batch on every engine and on
    ``VectorSwitch`` directly; the results equal the packet list's."""
    want = _expected("packets")
    assert _expected("columns") == want
    switch = VectorSwitch(_program(), CONFIG)
    stats = switch.run(_trace("columns"))
    assert _render(stats, switch.public_registers()) == want


@pytest.mark.parametrize("order", [("dense", "fast"), ("fast", "dense")])
def test_reused_avq_trace_dense_equals_fast(order):
    """A reused ``avq`` trace once read differently on the dense and
    fast engines; with the trace as input the question cannot arise."""
    program = compile_program("avq")
    trace = line_rate_trace(600, 4, HEADER_GENERATORS["avq"], seed=2)
    snap = _snapshot(trace)
    rendered = []
    for engine in order:
        rendered.append(_render(*ENGINES[engine](program, trace, CONFIG)))
        _assert_unchanged(trace, snap)
    assert rendered[0] == rendered[1]


def test_faulted_run_leaves_the_trace_unchanged(capsys):
    """A faulted run reads the same trace object on the vector engine
    (no fallback) and on the fast engine; neither writes it, and both
    agree."""
    reset_fallback_warnings()
    schedule = FaultSchedule(
        faults=[
            FaultEvent("pipeline_stall", start=10, duration=15, pipeline=1),
            FaultEvent("crossbar_fail", start=30, duration=10, pipeline=2),
        ]
    )
    trace = _trace("packets")
    snap = _snapshot(trace)
    rendered = []
    for engine in ("vector", "fast"):
        stats, registers = ENGINES[engine](
            _program(), trace, CONFIG, faults=schedule
        )
        _assert_unchanged(trace, snap)
        rendered.append(_render(stats, registers))
    assert "falling back" not in capsys.readouterr().err
    assert rendered[0] == rendered[1]
    assert rendered[0] != _expected("packets")  # the faults bit


# ----------------------------------------------------------------------
# Run state belongs to the run: trace packets carry none, and every
# engine copy allocates its own.
# ----------------------------------------------------------------------


def test_generated_trace_packets_carry_no_run_state():
    traces = {
        "flowlet": FLOWLET.workload(50, 4, seed=1),
        "sensitivity": sensitivity_trace(50, 4, 2, 64, seed=1),
        "line_rate": line_rate_trace(50, 4, HEADER_GENERATORS["avq"], seed=1),
        "variable_size": variable_size_trace(50, 4, lambda r, i: {"x": i}, seed=1),
    }
    traces["clone"] = clone_packets(traces["flowlet"])
    for name, trace in traces.items():
        assert all(p.env is None and p.accesses is None for p in trace), name


def _run_state_ids(packets):
    return {id(p.env) for p in packets} | {id(p.accesses) for p in packets}


def test_fast_runs_of_one_trace_never_share_run_state():
    trace = _trace("packets")
    runs = []
    for _ in range(2):
        switch = MP5Switch(_program(), CONFIG)
        switch.run(trace, record_access_order=True)
        runs.append(switch.packets)
    for packets in runs:
        assert len(packets) == len(trace)
        assert all(p.env is not None and p.accesses is not None for p in packets)
        assert len(_run_state_ids(packets)) == 2 * len(packets)
    assert not _run_state_ids(runs[0]) & _run_state_ids(runs[1])
    assert all(p.env is None and p.accesses is None for p in trace)


def test_to_packets_gives_each_row_its_own_run_state():
    packets = _trace("columns").to_packets()
    assert all(p.env == {} and p.accesses == [] for p in packets)
    assert len(_run_state_ids(packets)) == 2 * len(packets)
