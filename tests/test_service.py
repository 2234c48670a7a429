"""The long-lived switch service (:mod:`repro.service`).

Four contract layers:

* **streaming layer** — the pausable run loop (start/feed/pump/finish)
  is byte-identical to the one-shot ``run()`` no matter how arrivals
  are chunked, on both scalar engines;
* **determinism layer** — a served run (ingest over HTTP → hot-swap at
  tick T → drain) produces segment payloads byte-identical to the
  equivalent pair of offline runs, on the fast and vector engines;
* **operations layer** — mid-traffic fault attach reproduces the
  offline ``run --faults --monitor`` alert stream, /health walks
  ok → degraded → ok across an emergency-remap fault window, and
  shutdown drains every FIFO;
* **control layer** — backpressure (HTTP 429), arrival-order rejection
  (409), validate-only compiles, and remap retunes.

Each test boots the real daemon (ephemeral port) through
:class:`ServiceThread` and drives it with the stdlib client — the same
path the CLI and CI smoke use.
"""

import json
import socket
import threading
import time

import pytest

from repro.compiler import compile_program
from repro.faults import FaultSchedule
from repro.mp5 import (
    ENGINES,
    MP5Config,
    MP5Switch,
    ReferenceSwitch,
    VectorSwitch,
)
from repro.obs.monitor import InvariantMonitor
from repro.service import (
    ServiceThread,
    SwitchService,
    render_payload,
    segment_payload,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.workloads.traceio import packet_to_dict
from repro.workloads.traffic import clone_packets, line_rate_trace, random_headers

PIPELINES = 4


def make_trace(program_name: str, packets: int, seed: int = 11):
    program = compile_program(program_name)
    return line_rate_trace(
        packets, PIPELINES, random_headers(program), seed=seed
    )


def records_of(packets):
    return [packet_to_dict(p) for p in packets]


def offline_payload(engine: str, program_name: str, packets, config, **sinks):
    """What an offline ``run`` invocation freezes for these packets."""
    stats, registers = ENGINES[engine](
        compile_program(program_name), clone_packets(packets), config, **sinks
    )
    return render_payload(segment_payload(stats, registers))


def serve(**kwargs):
    service = SwitchService(
        config=MP5Config(num_pipelines=PIPELINES, seed=5), **kwargs
    )
    return service, ServiceThread(service)


def client_of(thread: ServiceThread) -> ServiceClient:
    host, port = thread.address
    return ServiceClient(host, port, timeout=30)


# ----------------------------------------------------------------------
# Streaming layer: start/feed/pump/finish vs run()
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine_cls", [MP5Switch, ReferenceSwitch, VectorSwitch]
)
@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_feeding_matches_run(engine_cls, chunk):
    """Any feed batching, with gated pumping in between, is
    byte-identical to the one-shot run loop — on all three engines,
    the vector engine's epoch streaming included."""
    program = compile_program("heavy_hitter")
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    trace = make_trace("heavy_hitter", 300)

    reference = engine_cls(program, config)
    ref_stats = reference.run(clone_packets(trace))

    streamed = engine_cls(program, config)
    streamed.start()
    chunks = [trace[i : i + chunk] for i in range(0, len(trace), chunk)]
    for part in chunks:
        streamed.feed(clone_packets(part))
        streamed.pump(until_tick=streamed.ingest_watermark)
    streamed.pump()  # drain past the last watermark
    stream_stats = streamed.finish()

    assert stream_stats.summary() == ref_stats.summary()
    assert streamed.registers == reference.registers


def test_feed_rejects_non_monotone_batches():
    program = compile_program("heavy_hitter")
    switch = MP5Switch(program, MP5Config(num_pipelines=PIPELINES))
    switch.start()
    trace = make_trace("heavy_hitter", 40)
    switch.feed(trace[20:])
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="monotone"):
        switch.feed(trace[:20])


# ----------------------------------------------------------------------
# Determinism layer: served hot-swap == two offline runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_hot_swap_determinism(engine):
    """Ingest a trace, hot-swap the program at tick T, drain: each
    served segment is byte-identical to the equivalent offline run."""
    swap_tick = 40
    trace = make_trace("heavy_hitter", 600)
    part1 = [p for p in trace if p.arrival < swap_tick]
    part2 = [p for p in trace if p.arrival >= swap_tick]
    assert part1 and part2

    service, thread = serve(program="heavy_hitter", engine=engine)
    with thread:
        client = client_of(thread)
        # ragged chunk sizes: determinism may not depend on batching
        records = records_of(part1)
        for lo, hi in [(0, 13), (13, 100), (100, len(records))]:
            client.ingest(records[lo:hi])
        client.wait_settled()
        swap = client.load_program("flowlet")
        assert swap["swapped"] and swap["closed_segment"] == 0
        client.ingest(records_of(part2))
        client.wait_settled()
        record = client.drain()["closed_segment"]
        assert record["index"] == 1 and record["drained"]
        served1 = client.segment_results(0)
        served2 = client.segment_results(1)
        client.shutdown()

    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert served1 == offline_payload(engine, "heavy_hitter", part1, config)
    assert served2 == offline_payload(engine, "flowlet", part2, config)


def test_segment_results_are_canonical_json():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records_of(make_trace("heavy_hitter", 60)))
        client.drain()
        raw = client.segment_results(0)
        payload = json.loads(raw)
        assert set(payload) == {"stats", "drops_by_reason", "registers"}
        assert render_payload(payload) == raw
        with pytest.raises(ServiceClientError) as err:
            client.segment_results(7)
        assert err.value.status == 404
        client.shutdown()


# ----------------------------------------------------------------------
# Operations layer: faults, health, shutdown
# ----------------------------------------------------------------------

STALL_SCHEDULE = {
    "format": "mp5-fault-schedule",
    "version": 1,
    "degradation": {
        "enabled": True,
        "drain_ticks": 4,
        "retry_backoff": 16,
        "max_retries": 8,
    },
    "faults": [
        {
            "kind": "pipeline_stall",
            "pipeline": 1,
            "start": 10,
            "duration": 30,
            "service_rate": 0.0,
            "degrade": True,
        }
    ],
}


def test_mid_traffic_fault_attach_matches_offline_alerts():
    """Attaching a schedule mid-traffic quiesces, and the next segment's
    alert stream equals an offline ``run --faults --monitor``."""
    clean = make_trace("heavy_hitter", 120, seed=3)
    faulted = make_trace("heavy_hitter", 400, seed=4)
    schedule_path = "examples/faults/crossbar.json"

    service, thread = serve(program="heavy_hitter", monitor=True)
    with thread:
        client = client_of(thread)
        client.ingest(records_of(clean))
        client.wait_settled()
        attach = client.attach_faults(path=schedule_path)
        assert attach["attached"] and attach["closed_segment"] == 0
        client.ingest(records_of(faulted))
        client.wait_settled()
        record = client.drain()["closed_segment"]
        served_alerts = client.alerts()["alerts"]
        # cursor polling: everything already consumed
        window = client.alerts(since=len(served_alerts))
        assert window["alerts"] == []
        assert window["cursor"] == len(served_alerts)
        assert record["health"] is not None
        client.shutdown()

    monitor = InvariantMonitor()
    ENGINES["fast"](
        compile_program("heavy_hitter"),
        clone_packets(faulted),
        MP5Config(num_pipelines=PIPELINES, seed=5),
        faults=FaultSchedule.load(schedule_path),
        monitor=monitor,
    )
    offline_alerts = monitor.alerts.to_dicts()
    assert offline_alerts, "crossbar schedule must raise alerts"
    assert served_alerts == offline_alerts


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_health_ok_degraded_ok_under_emergency_remap(engine):
    """/health walks ok → degraded (open fault window + emergency
    remap) → ok once the window passes and the segment drains. With no
    monitor the faulted vector segment stays on the vector engine,
    whose per-row sweep drives the same fault calendar."""
    trace = make_trace("heavy_hitter", 240, seed=9)
    part1 = [p for p in trace if p.arrival < 20]
    part2 = [p for p in trace if p.arrival >= 20]

    service, thread = serve(program="heavy_hitter", engine=engine)
    with thread:
        client = client_of(thread)
        assert client.health()["verdict"] == "ok"
        client.attach_faults(schedule=STALL_SCHEDULE)

        client.ingest(records_of(part1))
        client.wait_settled()  # engine parked at the tick-20 watermark
        health = client.health()
        assert health["verdict"] == "degraded", health
        assert any("fault window" in r for r in health["reasons"])

        client.ingest(records_of(part2))
        record = client.drain()["closed_segment"]
        assert record["engine"] == engine
        payload = json.loads(client.segment_results(record["index"]))
        assert payload["stats"]["emergency_remap_moves"] > 0
        assert client.health()["verdict"] == "ok"

        # non-trivially ok: a fresh fault-free segment mid-flight
        client.detach_faults()
        client.ingest(records_of(make_trace("heavy_hitter", 40, seed=2)))
        client.wait_settled()
        health = client.health()
        assert health["verdict"] == "ok" and health["segment_open"]
        client.shutdown()


def test_graceful_shutdown_drains_fifos():
    trace = make_trace("heavy_hitter", 500, seed=6)
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records_of(trace))
        final = client.shutdown()["closed_segment"]
    assert final["offered"] == len(trace)
    assert final["drained"]
    assert final["egressed"] + final["dropped"] == final["offered"]
    # the payload survives shutdown on the service object
    payload = json.loads(service.segment_results(0))
    assert payload["stats"]["offered"] == len(trace)


# ----------------------------------------------------------------------
# Control layer: backpressure, ordering, validation, retunes
# ----------------------------------------------------------------------


def test_ingest_backpressure_returns_429():
    trace = make_trace("heavy_hitter", 120)
    batches = [records_of(trace[i : i + 20]) for i in range(0, 120, 20)]
    service, thread = serve(program="heavy_hitter", queue_depth=2)
    with thread:
        client = client_of(thread)
        client.pause()  # nothing drains: the queue must fill
        client.ingest(batches[0])
        client.ingest(batches[1])
        with pytest.raises(ServiceClientError) as err:
            client.ingest(batches[2])
        assert err.value.status == 429
        assert "queue full" in err.value.message
        assert client.status()["rejected"] == 20
        client.resume()
        client.wait_settled()
        record = client.drain()["closed_segment"]
        assert record["offered"] == 40  # only the accepted batches ran
        client.shutdown()


def test_out_of_order_batch_rejected_and_reset_by_drain():
    trace = make_trace("heavy_hitter", 80)
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records_of(trace[40:]))
        with pytest.raises(ServiceClientError) as err:
            client.ingest(records_of(trace[:40]))
        assert err.value.status == 409
        assert "monotone" in err.value.message
        client.drain()  # closes the segment, resets the arrival clock
        client.ingest(records_of(trace[:40]))
        client.wait_settled()
        record = client.drain()["closed_segment"]
        assert record["offered"] == 40
        client.shutdown()


def test_ingest_during_replay_is_refused_or_fed_in_order():
    """An ingest far ahead in time lands while a server-side replay is
    still feeding. It is refused (409) or fed in arrival order; either
    way the drain answers 200, no feed fails, and every batch the
    daemon accepted reaches a segment."""
    record = records_of(make_trace("packet_counter", 1))[0]
    record["arrival"] = 1e7
    service, thread = serve(
        program="packet_counter", engine="vector", queue_depth=2
    )
    with thread:
        client = client_of(thread)
        client.replay(packets=200000, chunk=64)
        try:
            client.ingest([record])
        except ServiceClientError as err:
            assert err.status == 409
        client.drain()
        errors = client.status()["errors"]
        assert not [e for e in errors if "feed failed" in e]
        client.shutdown()
    offered = sum(seg["offered"] for seg in service._segments)
    assert offered == service._ingested
    assert service._rejected in (0, 1)


def test_program_validate_only_and_compile_errors():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        out = client.load_program("flowlet", validate_only=True)
        assert out["validated"] and not out["swapped"]
        assert client.status()["program"] == "heavy_hitter"
        with pytest.raises(ServiceClientError) as err:
            client.load_program(source="int x = ;;;", name="broken")
        assert err.value.status == 400
        assert "compile failed" in err.value.message
        assert client.status()["program"] == "heavy_hitter"
        client.shutdown()


def test_retune_remap_policy_closes_segment():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records_of(make_trace("heavy_hitter", 60)))
        client.wait_settled()
        out = client.configure(remap_period=50, remap_algorithm="optimal")
        assert out["closed_segment"] == 0
        assert out["config"]["remap_period"] == 50
        status = client.status()
        assert status["config"]["remap_algorithm"] == "optimal"
        with pytest.raises(ServiceClientError) as err:
            client.configure(bogus_knob=1)
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client.configure(remap_algorithm="nonsense")
        assert err.value.status == 400
        client.shutdown()


def test_fault_schedule_validated_against_pipelines():
    bad = {
        "format": "mp5-fault-schedule",
        "version": 1,
        "faults": [
            {
                "kind": "pipeline_stall",
                "pipeline": 9,
                "start": 0,
                "duration": 5,
            }
        ],
    }
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        with pytest.raises(ServiceClientError) as err:
            client.attach_faults(schedule=bad)
        assert err.value.status == 400
        assert "out of range" in err.value.message
        client.shutdown()


# ----------------------------------------------------------------------
# Fast ingest path: NDJSON framing, and the served vector engine
# ----------------------------------------------------------------------


def test_ndjson_ingest_equals_json_ingest():
    """The NDJSON framing is pure transport: segments fed through
    ``ingest_ndjson``/``replay_trace`` are byte-identical to JSON-body
    ingest and to the offline run."""
    trace = make_trace("heavy_hitter", 300)
    records = records_of(trace)
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records)
        client.drain()
        sent = client.replay_trace(records, chunk=64)
        assert sent["sent"] == len(records)
        record = client.drain()["closed_segment"]
        assert record["drained"]
        json_served = client.segment_results(0)
        ndjson_served = client.segment_results(1)
        client.shutdown()
    assert ndjson_served == json_served
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert json_served == offline_payload("fast", "heavy_hitter", trace, config)


def test_ndjson_malformed_frames_rejected_with_line_numbers():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        good = json.dumps(records_of(make_trace("heavy_hitter", 1))[0])

        def post(body: bytes):
            return client._request(
                "POST", "/ingest", data=body,
                content_type="application/x-ndjson",
            )

        with pytest.raises(ServiceClientError) as err:
            post(good.encode() + b"\nnot json\n")
        assert err.value.status == 400
        assert "line 2" in err.value.message
        with pytest.raises(ServiceClientError) as err:
            post(good.encode() + b"\n[1, 2]\n")
        assert err.value.status == 400
        assert "line 2" in err.value.message and "object" in err.value.message
        # A parse can fail with more than JSONDecodeError: an integer
        # past the int<->str digit limit, nesting past the recursion
        # limit. Both are the client's frame to fix, so 400 + line.
        huge = b'{"arrival": ' + b"9" * 5000 + b"}"
        deep = b"[" * 100_000 + b"]" * 100_000
        for bad, why in ((huge, "Exceeds the limit"), (deep, "recursion")):
            with pytest.raises(ServiceClientError) as err:
                post(good.encode() + b"\n" + bad + b"\n")
            assert err.value.status == 400
            assert err.value.message.startswith("invalid NDJSON body: line 2: ")
            assert why in err.value.message
        assert client.status()["ingested"] == 0  # every rejection was atomic
        with pytest.raises(ServiceClientError) as err:
            post(b"\n  \n")
        assert err.value.status == 400
        assert "no packet records" in err.value.message
        # NDJSON bodies are only negotiated on POST /ingest.
        with pytest.raises(ServiceClientError) as err:
            client._request(
                "POST", "/replay", data=b'{"packets": 10}\n',
                content_type="application/x-ndjson",
            )
        assert err.value.status == 400
        assert "only accepted on POST /ingest" in err.value.message
        # The daemon survives all of it, and blank-padded valid NDJSON
        # still ingests.
        out = post(b"\n" + good.encode() + b"\n\n")
        assert out["queued"] == 1
        client.shutdown()


def test_vector_served_segment_streams_before_drain():
    """The tentpole, end to end: a ``--engine vector`` service egresses
    packets while the segment is still open (first egress well before
    drain), exposes the watermark and first-egress-latency gauges, and
    the drained segment is byte-identical to the offline batch run."""
    from repro.obs.export import parse_openmetrics

    trace = make_trace("heavy_hitter", 900, seed=7)
    records = records_of(trace)
    service, thread = serve(program="heavy_hitter", engine="vector")
    with thread:
        client = client_of(thread)
        for lo in range(0, len(records), 150):
            client.ingest(records[lo : lo + 150])
            client.wait_settled()
        status = client.status()
        segment = status["segment"]
        assert segment["streaming"] and segment["engine"] == "vector"
        assert segment["egressed"] > 0, "no egress before drain"
        assert segment["watermark"] > 0
        metrics = client.metrics()["service"]
        assert metrics["watermark"] == segment["watermark"]
        assert metrics["first_egress_latency"] is not None
        stream = metrics["stream"]
        assert stream["epochs_serviced"] > 0
        assert 0 < stream["peak_buffered"] < len(records)
        families = parse_openmetrics(client.metrics_prom())
        assert families["mp5_service_watermark"]["samples"][0][2] == (
            segment["watermark"]
        )
        assert (
            families["mp5_service_first_egress_latency_seconds"]["samples"][0][2]
            >= 0
        )
        record = client.drain()["closed_segment"]
        assert record["engine"] == "vector" and record["drained"]
        served = client.segment_results(0)
        # the latency gauge survives segment close
        closed = client.metrics()["service"]
        assert closed["first_egress_latency"] is not None
        client.shutdown()
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert served == offline_payload("vector", "heavy_hitter", trace, config)


@pytest.mark.parametrize("chunk", [37, 150, 900])
def test_vector_served_chunking_invariance(chunk):
    """Served vector segments are byte-identical at every chunking —
    the PR 8 determinism contract now covers the third engine."""
    trace = make_trace("heavy_hitter", 900, seed=8)
    records = records_of(trace)
    service, thread = serve(program="heavy_hitter", engine="vector")
    with thread:
        client = client_of(thread)
        for lo in range(0, len(records), chunk):
            client.ingest(records[lo : lo + chunk])
        client.wait_settled()
        record = client.drain()["closed_segment"]
        assert record["drained"]
        served = client.segment_results(0)
        client.shutdown()
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert served == offline_payload("vector", "heavy_hitter", trace, config)


def test_vector_service_fault_attach_falls_back_to_fast():
    """Mid-stream fault attach on a vector service: the open vector
    segment closes clean, the next segment runs on the fast engine
    (same ladder as ``run_mp5_vector``) with faults live, and detaching
    returns to the vector engine."""
    clean = make_trace("heavy_hitter", 200, seed=3)
    faulted = make_trace("heavy_hitter", 400, seed=4)
    schedule_path = "examples/faults/crossbar.json"

    service, thread = serve(
        program="heavy_hitter", engine="vector", monitor=True
    )
    with thread:
        client = client_of(thread)
        client.ingest(records_of(clean))
        client.wait_settled()
        attach = client.attach_faults(path=schedule_path)
        assert attach["attached"] and attach["closed_segment"] == 0
        client.ingest(records_of(faulted))
        client.wait_settled()
        client.drain()
        served_alerts = client.alerts()["alerts"]
        segments = client.segments()["segments"]
        client.detach_faults()
        client.ingest(records_of(make_trace("heavy_hitter", 40, seed=2)))
        final = client.drain()["closed_segment"]
        client.shutdown()

    assert segments[0]["engine"] == "vector"
    assert segments[1]["engine"] == "fast"
    assert final["engine"] == "vector"
    monitor = InvariantMonitor()
    ENGINES["fast"](
        compile_program("heavy_hitter"),
        clone_packets(faulted),
        MP5Config(num_pipelines=PIPELINES, seed=5),
        faults=FaultSchedule.load(schedule_path),
        monitor=monitor,
    )
    assert served_alerts == monitor.alerts.to_dicts()
    assert served_alerts, "crossbar schedule must raise alerts"


@pytest.mark.parametrize("chunk", [37, 150])
@pytest.mark.parametrize(
    "schedule", ["stall", "slowdown", "crossbar", "fifo_shrink"]
)
def test_unmonitored_faulted_vector_segment_stays_on_vector(
    schedule, chunk, capsys
):
    """Without ``--monitor`` a faulted segment attaches no sink the
    vector engine would replay, so it runs on the per-row sweep as an
    offline run does: no fallback line, and the payload equals the
    fast engine's offline run."""
    from repro.mp5.vector import reset_fallback_warnings

    path = f"examples/faults/{schedule}.json"
    trace = make_trace("heavy_hitter", 400, seed=4)
    reset_fallback_warnings()
    service, thread = serve(
        program="heavy_hitter", engine="vector", faults=FaultSchedule.load(path)
    )
    with thread:
        client = client_of(thread)
        client.replay_trace(records_of(trace), chunk=chunk)
        record = client.drain()["closed_segment"]
        served = client.segment_results(record["index"])
        client.shutdown()

    assert record["engine"] == "vector"
    assert "falling back" not in capsys.readouterr().err
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert served == offline_payload(
        "fast", "heavy_hitter", trace, config, faults=FaultSchedule.load(path)
    )


# ----------------------------------------------------------------------
# Streaming telemetry: SSE push, OpenMetrics exposition, retention
# ----------------------------------------------------------------------


def _collect(iterator, sink):
    for payload in iterator:
        sink.append(payload)


def _merge_engine(target, snap):
    """Accumulate one /metrics document's engine rows into ``target``
    (the union a cursor-poll loop builds up)."""
    engine = snap.get("engine")
    if engine is None:
        return
    for name, rows in engine["series"].items():
        target.setdefault("series", {}).setdefault(name, []).extend(rows)
    for name, rows in engine["histograms"].items():
        target.setdefault("histograms", {}).setdefault(name, []).extend(rows)


def _streamed_union(frames):
    union = {}
    for frame in frames:
        _merge_engine(union, frame)
    return union


def test_sse_metrics_stream_equals_cursor_polls():
    """Acceptance: the concatenation of /stream/metrics SSE events
    equals the union of /metrics?since= cursor polls for the same
    served workload."""
    trace = make_trace("heavy_hitter", 900, seed=7)
    service, thread = serve(program="heavy_hitter", metrics_window=50)
    with thread:
        client = client_of(thread)
        frames = []
        subscriber = threading.Thread(
            target=_collect,
            args=(client.stream_metrics(poll=0.01), frames),
            daemon=True,
        )
        subscriber.start()

        polled, cursor = {}, -1
        chunk = 300
        for start in range(0, len(trace), chunk):
            client.ingest(records_of(trace[start : start + chunk]))
            client.wait_settled()
            snap = client.metrics(cursor)
            _merge_engine(polled, snap)
            if snap.get("engine") is not None:
                cursor = snap["engine"]["cursor"]

        # Nothing else will roll until drain; let the subscriber catch
        # up to the last polled row, then stop the daemon.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if _streamed_union(frames) == polled:
                break
            time.sleep(0.02)
        client.shutdown()
        subscriber.join(timeout=10)
        assert not subscriber.is_alive(), "stream did not end on shutdown"

    assert polled["series"], "workload must roll metrics windows"
    assert _streamed_union(frames) == polled


def test_sse_alerts_stream_equals_cursor_polls():
    """Same contract for /stream/alerts: SSE frames concatenate to the
    exact alert list a ?since= poll loop retrieves."""
    trace = make_trace("heavy_hitter", 400, seed=4)
    schedule = FaultSchedule.load("examples/faults/crossbar.json")
    service, thread = serve(
        program="heavy_hitter", monitor=True, faults=schedule
    )
    with thread:
        client = client_of(thread)
        frames = []
        subscriber = threading.Thread(
            target=_collect,
            args=(client.stream_alerts(poll=0.01), frames),
            daemon=True,
        )
        subscriber.start()
        client.ingest(records_of(trace))
        client.wait_settled()
        reference = client.alerts()["alerts"]
        assert reference, "crossbar schedule must raise alerts"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if sum(len(f["alerts"]) for f in frames) >= len(reference):
                break
            time.sleep(0.02)
        client.shutdown()
        subscriber.join(timeout=10)
        assert not subscriber.is_alive()

    streamed = [alert for frame in frames for alert in frame["alerts"]]
    assert streamed == reference


def test_sse_health_stream_pushes_initial_and_final_frames():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        frames = []
        subscriber = threading.Thread(
            target=_collect,
            args=(client.stream_health(poll=0.01), frames),
            daemon=True,
        )
        subscriber.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not frames:
            time.sleep(0.02)
        assert frames, "health stream must push an initial frame"
        assert frames[0]["verdict"] == "ok"
        client.shutdown()
        subscriber.join(timeout=10)
        assert not subscriber.is_alive()


def test_metrics_prom_parses_and_matches_totals():
    from repro.obs.export import parse_openmetrics

    trace = make_trace("heavy_hitter", 500, seed=9)
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        client.ingest(records_of(trace))
        client.wait_settled()
        families = parse_openmetrics(client.metrics_prom())
        totals = client.metrics()["engine"]["totals"]
        assert families["mp5_egressed"]["samples"][0] == (
            "_total",
            (),
            totals["egressed"],
        )
        assert families["mp5_service_ingested"]["samples"][0][2] == len(trace)
        assert families["mp5_latency"]["type"] == "summary"
        # With the segment closed only service families remain — still a
        # valid exposition.
        client.drain()
        closed = parse_openmetrics(client.metrics_prom())
        assert "mp5_egressed" not in closed
        assert closed["mp5_service_segments"]["samples"][0][2] == 1
        client.shutdown()


def test_ingest_wire_counters_in_metrics_prom_and_top():
    """Which framing the producers use is visible without a print:
    ``/metrics``, ``/metrics.prom`` and ``repro top``'s service line."""
    from repro.obs.export import parse_openmetrics
    from repro.obs.top import TopModel, render_top_frame

    records = records_of(make_trace("heavy_hitter", 90, seed=4))
    service, thread = serve(program="heavy_hitter")
    assert service.metrics_snapshot()["service"]["ingest_batches"] == {}
    assert "ingest_batches" not in service.openmetrics()
    with thread:
        client = client_of(thread)
        client.ingest(records[:30])
        client.ingest_ndjson(records[30:40])
        client.ingest_ndjson(records[40:50])
        client.replay_trace(records[50:], chunk=10)
        with pytest.raises(ServiceClientError):
            client.ingest([{"arrival": 1e9, "headers": "?"}])  # not counted
        snap = client.metrics()
        assert snap["service"]["ingest_batches"] == {
            "records": 1, "ndjson": 2, "columns": 4
        }
        family = parse_openmetrics(client.metrics_prom())[
            "mp5_service_ingest_batches"
        ]
        assert family["type"] == "counter"
        assert family["samples"] == [
            ("_total", (("wire", "records"),), 1.0),
            ("_total", (("wire", "ndjson"),), 2.0),
            ("_total", (("wire", "columns"),), 4.0),
        ]
        model = TopModel()
        model.apply_metrics(snap)
        assert "  wire=columns:4/ndjson:2/records:1" in render_top_frame(model)
        client.shutdown()


def test_retention_bounds_rows_without_changing_results():
    """Acceptance: with retention capped the daemon's in-memory series
    stay bounded while the segment results and health verdict remain
    byte-identical to an uncapped run."""
    trace = make_trace("heavy_hitter", 900, seed=6)
    outcomes = {}
    for label, retention in (("uncapped", None), ("capped", 4)):
        service, thread = serve(
            program="heavy_hitter",
            monitor=True,
            metrics_window=25,
            metrics_retention=retention,
        )
        with thread:
            client = client_of(thread)
            client.ingest(records_of(trace))
            client.wait_settled()
            snapshot = client.metrics()["engine"]
            record = client.drain()["closed_segment"]
            outcomes[label] = {
                "rows": {
                    name: len(rows)
                    for name, rows in snapshot["series"].items()
                },
                "results": client.segment_results(record["index"]),
                "health": client.health(),
                "totals": snapshot["totals"],
            }
            client.shutdown()

    capped, uncapped = outcomes["capped"], outcomes["uncapped"]
    assert max(uncapped["rows"].values()) > 4, "workload must exceed cap"
    assert max(capped["rows"].values()) <= 4
    assert capped["results"] == uncapped["results"]
    assert capped["health"] == uncapped["health"]
    assert capped["totals"] == uncapped["totals"]


def test_oversized_request_line_rejected_with_413():
    service, thread = serve(program="heavy_hitter")
    with thread:
        host, port = thread.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /" + b"x" * 10000 + b" HTTP/1.1\r\n\r\n")
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"too long" in response or b"exceeds" in response
        # An unterminated flood (no newline at all) is also bounded.
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"y" * (1 << 17))
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 413 ")
        # The daemon survives both.
        client = client_of(thread)
        assert client.health()["verdict"] == "ok"
        client.shutdown()


def test_malformed_content_length_rejected_with_400():
    service, thread = serve(program="heavy_hitter")
    with thread:
        host, port = thread.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\ncontent-length: nope\r\n\r\n"
            )
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"content-length" in response
        client = client_of(thread)
        client.shutdown()


# ----------------------------------------------------------------------
# Memory layer: a closed segment costs its rendered result, nothing more
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine_cls, sinks",
    [(VectorSwitch, True), (VectorSwitch, False), (MP5Switch, True),
     (MP5Switch, False), (ReferenceSwitch, False)],
)
def test_finished_switch_is_freed_by_refcount(engine_cls, sinks):
    """A finished switch sits in no reference cycle (the streamer holds
    no switch; ``finish()`` drops the bound-method loggers and the
    monitor that points back), so the daemon frees a closed segment's
    switch the moment it drops it instead of carrying it until the next
    full cycle collection."""
    import gc
    import weakref

    from repro.obs import MetricsRegistry

    program = compile_program("heavy_hitter")
    trace = make_trace("heavy_hitter", 200)
    gc.collect()
    gc.disable()
    try:
        switch = engine_cls(program, MP5Config(num_pipelines=PIPELINES))
        if sinks:
            metrics, monitor = MetricsRegistry(), InvariantMonitor()
            switch.attach_observability(metrics=metrics, monitor=monitor)
        switch.start()
        switch.feed(trace)
        switch.pump()
        switch.finish()
        if engine_cls is VectorSwitch:
            assert switch.stream_stats()["buffered"] == 0
            assert switch._last_schedule.injected == len(trace)
        ref = weakref.ref(switch)
        if sinks:  # read before the drop: a scalar monitor keeps _switch
            assert metrics.totals()["egressed"] == len(trace)
            assert monitor.health_report().verdict == "ok"
            if engine_cls is not VectorSwitch:
                del monitor  # the adapter drops switch and sinks together
        del switch
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_segment_results_serve_the_string_rendered_at_close(engine):
    """Closed segments are stored rendered: every GET returns the same
    bytes, equal to the offline run's canonical rendering."""
    trace = make_trace("heavy_hitter", 500, seed=3)
    service, thread = serve(program="heavy_hitter", engine=engine, monitor=True)
    with thread:
        client = client_of(thread)
        client.ingest(records_of(trace))
        client.wait_settled()
        assert client.drain()["closed_segment"]["drained"]
        first = client.segment_results(0)
        second = client.segment_results(0)
        client.shutdown()
    assert isinstance(service._payloads[0], str)
    assert first == second == service._payloads[0]
    config = MP5Config(num_pipelines=PIPELINES, seed=5)
    assert first == offline_payload(engine, "heavy_hitter", trace, config)


def _scripted_metrics_session(monkeypatch, **serve_kw):
    """``/metrics`` JSON and ``/metrics.prom`` bytes at four points of
    one scripted session of a daemon built with ``serve_kw``: before
    traffic, with a segment open and settled, after its drain, and with
    a second segment open. The daemon's clock is a counter, so the
    first-egress latency (the open segment's, else the last closed
    one's) is deterministic; settling is polled in-process so the
    request counters are too."""
    from types import SimpleNamespace

    from repro.service import daemon

    ticks = (0.25 * i for i in range(1, 10**6))
    monkeypatch.setattr(daemon, "time", SimpleNamespace(monotonic=ticks.__next__))
    first = make_trace("heavy_hitter", 300, seed=4)
    second = make_trace("heavy_hitter", 40, seed=6)
    service = SwitchService(
        program="heavy_hitter",
        config=MP5Config(num_pipelines=PIPELINES, seed=5),
        **serve_kw,
    )
    documents = []
    with ServiceThread(service) as thread:
        client = client_of(thread)

        def scrape():
            documents.append(client._request("GET", "/metrics?since=-1", raw=True))
            documents.append(client.metrics_prom())

        def settle():
            deadline = time.monotonic() + 60
            while not service.status()["settled"]:
                assert time.monotonic() < deadline, "service never settled"
                time.sleep(0.01)

        scrape()
        client.ingest(records_of(first))
        settle()
        scrape()
        client.drain()
        scrape()
        client.ingest(records_of(second))
        settle()
        scrape()
        client.shutdown()
    return documents


# sha256 of each document _scripted_metrics_session scrapes, in order.
METRICS_SESSION_DIGESTS = (
    "e921786b8837015e3e77cdfb46261d3fcb98d7e149ee18a3789737e4165729c5",
    "e89c2c3ae1a5d193d08fbf272b25f43edd17d8a4d1c38f4eefb52ec9fc9d490c",
    "3910dd93ed21611ade85f2fbeb5082a844fcfbcc08f58533da439b27ea9c8b4f",
    "cb32925c3f9d4bbc433b373fd22ada598bd88d93f33caa8338443cf12743be95",
    "77b623d9ee40068a47cb4e3a2da7df3e7930d7c9545455961f4b9006437fa170",
    "810f4bb67608b5f5b477555a5dd1c536a7c4ed828a55bddfa043770317cf2f8c",
    "54a0f68a53cc0b2f646e16a5b9e98e35831cff50022c6ba6bc920e56d31d56d5",
    "1184a6d0b457eae2751b8baa2cc3d3353ee1ec9ec205bc38727f19f06397a176",
)

# The same for an unmonitored vector session, recorded while every
# segment still attached its registry: an open vector segment exposes
# the service families only, and that did not change.
VECTOR_SESSION_DIGESTS = (
    "e921786b8837015e3e77cdfb46261d3fcb98d7e149ee18a3789737e4165729c5",
    "e89c2c3ae1a5d193d08fbf272b25f43edd17d8a4d1c38f4eefb52ec9fc9d490c",
    "3d5be28417e19406cf20a8fa90ec2dcd179102bfb188fb3bcf3cbe482e1ec8f6",
    "b8960cb3d7955aa6b3a7ba2300cbf9f388004413c5ac7db6cc5b55db2899e08a",
    "126f35b3e82ddef1151efc3f36f4efd4caec06b7f2a5e6bc45f1d66413c6c345",
    "bf21c6ef81e9e13cb3096ba0b1570abca3c4b1c36413db4289996408749c822a",
    "cc04f2b19a5082e355de1fd099558e8eb9bb8da55584d7c6ceb029ca14fcd043",
    "f5c11d9c2aee32f5ab016851ab7eb721f2e9ecf0db2aff481c52c4ba574d6710",
)


def _session_digests(monkeypatch, **serve_kw):
    import hashlib

    documents = _scripted_metrics_session(monkeypatch, **serve_kw)
    return tuple(hashlib.sha256(d.encode()).hexdigest() for d in documents)


def test_metrics_documents_are_pinned(monkeypatch):
    """The service counters (ingest, segments, alerts, queue depth,
    connections, first-egress latency) both documents publish, and the
    engine's series beside them, equal the pinned session's bytes."""
    faults = FaultSchedule.load("examples/faults/crossbar.json")
    digests = _session_digests(monkeypatch, monitor=True, faults=faults)
    assert digests == METRICS_SESSION_DIGESTS


def test_vector_metrics_documents_are_pinned(monkeypatch):
    """A vector segment fills no registry while it is open, so the
    documents of an unmonitored vector session equal the pinned bytes
    whether or not the segment attaches one."""
    digests = _session_digests(monkeypatch, engine="vector")
    assert digests == VECTOR_SESSION_DIGESTS
