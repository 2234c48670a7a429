"""The per-layer ledger: spans recorded from outside the program.

Nothing under ``src/`` is instrumented. A layer's time is taken around a
call into its public functions (``VectorSwitch(...)``/``start``/``feed``/
``pump``/``finish``, ``packet_from_json``, ``segment_payload``/
``render_payload``, ``ServiceClient.*``), from the public
``profiler=PhaseProfiler()`` attachment, or from what the daemon reports
over ``/metrics``. Where a layer has no public entry its cost is derived
and says so.

A span is ``{id, name, iter, parent, start, end}``; spans of one
iteration share ``iter``. A layer's self time is its span's duration
minus what its child spans cover. Spans whose duration is exact but
whose position inside the parent is not known from outside (the scalar
engine's per-tick phases) carry ``"synthesized": true``.

Served workloads are traced twice. The *client view* runs the real
daemon subprocess and yields one span per HTTP call, while a sampler
thread polls ``/metrics``. The *step-through* replays one segment in
this process, single-threaded, through the same public calls the daemon
makes, which splits the daemon's side of those round trips.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.mp5 import ENGINES, VectorSwitch
from repro.obs import InvariantMonitor, MetricsRegistry, PhaseProfiler
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.daemon import (
    PUMP_SLICE,
    packet_from_json,
    render_payload,
    segment_payload,
)
from repro.workloads import clone_packets

from catalog import EXACT_COUNTS, PER_LAYER
from daemon import REQUEST_TIMEOUT
from workloads import Iteration, digest_text, payload_digest, public_registers

#: ServiceClient route -> the span its calls become in the client view.
ROUTE_SPANS = {
    "ingest": "service.http.ingest_rtt",
    "ingest_ndjson": "service.http.ingest_rtt",
    "metrics_prom": "obs.export.scrape",
    "status": "service.http.status_rtt",
    "drain": "service.http.drain_rtt",
}

#: Span-name prefix -> the share it is added to.
SHARE_GROUPS = {
    "service.": "share.service",
    "obs.": "share.obs",
    "mp5.vector.": "share.mp5_vector",
    "mp5.epochs.": "share.mp5_vector",
    "mp5.switch.": "share.mp5_switch",
}

#: The spans that enclose one traced iteration.
ROOT_SPANS = ("iteration", "stepthrough")

MIN_TRACED = 3


def quartiles(values: List[float]):
    """(q1, median, q3); with fewer than two values all three coincide."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: List[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


class Spans:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self):
        self.rows: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, iteration: str):
        row = {
            "id": len(self.rows),
            "name": name,
            "iter": iteration,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, parent: Optional[Dict], start: float, end: float,
            iteration: Optional[str] = None, synthesized: bool = False) -> Dict:
        """A span whose interval is already known (an HTTP call the
        client timed, a profiler total)."""
        row = {
            "id": len(self.rows),
            "name": name,
            "iter": parent["iter"] if parent else iteration,
            "parent": parent["id"] if parent else None,
            "start": start,
            "end": end,
        }
        if synthesized:
            row["synthesized"] = True
        self.rows.append(row)
        return row

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """``{iter: {name: self seconds}}``: each span's duration minus
        the part its children cover, summed by name within an iteration."""
        covered: Dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] = (
                    covered.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        out: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            own = max(0.0, row["end"] - row["start"] - covered.get(row["id"], 0.0))
            names = out.setdefault(row["iter"], {})
            names[row["name"]] = names.get(row["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


class Ledger:
    """Per-iteration samples of each layer metric."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def add_profiler(self, prof: PhaseProfiler) -> None:
        spans = prof.spans
        self.add("mp5.epochs.phase_a_s", spans.get("phase_a", 0.0))
        self.add("mp5.epochs.phase_b_s", spans.get("phase_b", 0.0))
        kernels = prof.kernels.values()
        self.add("mp5.epochs.kernel_s", sum(k["seconds"] for k in kernels))
        self.add("mp5.epochs.kernel_calls", sum(k["calls"] for k in kernels))
        self.add("mp5.epochs.epochs", len(prof.epochs))

    def add_iteration(self, it: Iteration) -> None:
        self.add("sim.egressed", it.egressed)
        self.add("sim.dropped", it.dropped)
        self.add("sim.ticks", it.ticks)

    def metrics(self, problems: List[str]) -> Dict[str, float]:
        out = {}
        for name, _unit, _better in PER_LAYER:
            values = self.samples.get(name)
            if not values:
                out[name] = 0.0
            elif name in EXACT_COUNTS:
                out[name] = values[0]
                if any(v != values[0] for v in values):
                    problems.append(f"{name} does not repeat exactly: {values}")
            else:
                out[name] = statistics.median(values)
        return out


class MetricsSampler:
    """Polls ``GET /metrics`` while a traced segment is in flight; the
    ``stream`` block and the queue depth exist only while it is open."""

    def __init__(self, port: int, interval: float = 0.02):
        self._client = ServiceClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="metrics-sampler")
        self.queue_depth_max = 0
        self.peak_buffered = 0
        self.first_egress_s: Optional[float] = None

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                service = self._client.metrics()["service"]
            except (ServiceClientError, OSError):
                continue
            self.queue_depth_max = max(self.queue_depth_max, service["queue_depth"])
            stream = service.get("stream")
            if stream:
                self.peak_buffered = max(self.peak_buffered, stream["peak_buffered"])
            if service["first_egress_latency"] is not None:
                self.first_egress_s = service["first_egress_latency"]

    def __enter__(self) -> "MetricsSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=REQUEST_TIMEOUT + 1.0)


# ----------------------------------------------------------------------
# One traced iteration per workload shape
# ----------------------------------------------------------------------


def trace_vector(w, spans: Spans, ledger: Ledger, label: str) -> Iteration:
    """offline_vector / offline_monitored: what ``run_mp5_vector`` does,
    one public call at a time."""
    batch = clone_packets(w.trace)
    sinks = w.sinks()
    prof = PhaseProfiler()
    gc.collect()
    with spans.span("iteration", label) as root:
        with spans.span("mp5.vector.construct", label):
            switch = VectorSwitch(w.program, w.config)
        switch.attach_observability(profiler=prof, **sinks)
        with spans.span("mp5.vector.start", label):
            switch.start()
        with spans.span("mp5.vector.feed", label):
            switch.feed(batch)
        with spans.span("mp5.vector.finish", label) as finish:
            stats = switch.finish()
    _reconstruct_child(spans, finish, prof)
    ledger.add_profiler(prof)
    ledger.add("mp5.vector.peak_buffered", switch.stream_stats()["peak_buffered"])
    if "monitor" in sinks:
        ledger.add("obs.monitor.alerts", len(sinks["monitor"].alerts))
    it = Iteration(
        wall=root["end"] - root["start"],
        digest=w.digest(stats, public_registers(switch), sinks),
        egressed=stats.egressed,
        dropped=stats.dropped,
        ticks=stats.ticks,
        attempted=1,
    )
    it.problems.extend(w.check_sinks(sinks))
    return it


def _reconstruct_child(spans: Spans, finish: Dict, prof: PhaseProfiler) -> None:
    """Trace reconstruction is the last thing ``finish`` does, so its
    span ends where ``finish`` ends."""
    seconds = prof.spans.get("trace_reconstruct", 0.0)
    if seconds:
        spans.add("obs.reconstruct", finish, finish["end"] - seconds, finish["end"])


def trace_engine_call(w, spans: Spans, ledger: Ledger, label: str) -> Iteration:
    """offline_faulted: the user's call, with the public profiler
    attached. Whatever engine serves it reports its own phases: today
    the scalar fallback's per-tick laps, later the vector spans."""
    batch = clone_packets(w.trace)
    prof = PhaseProfiler()
    gc.collect()
    with spans.span("iteration", label) as root:
        with spans.span("mp5.run.other", label) as call:
            stats, registers = ENGINES["vector"](
                w.program, batch, w.config, faults=w.schedule, profiler=prof
            )
    cursor = call["start"]
    for phase, seconds in prof.totals.items():
        spans.add(f"mp5.switch.{phase}", call, cursor, cursor + seconds, synthesized=True)
        cursor += seconds
    for name, layer in (("phase_a", "mp5.epochs.phase_a"), ("phase_b", "mp5.epochs.phase_b"),
                        ("trace_reconstruct", "obs.reconstruct")):
        seconds = prof.spans.get(name, 0.0)
        if seconds:
            spans.add(layer, call, cursor, cursor + seconds, synthesized=True)
            cursor += seconds
    ledger.add_profiler(prof)
    if prof.ticks:
        ledger.add("mp5.switch.ticks_per_s", prof.ticks / (call["end"] - call["start"]))
    return Iteration(
        wall=root["end"] - root["start"],
        digest=payload_digest(stats, registers),
        egressed=stats.egressed,
        dropped=stats.dropped,
        ticks=stats.ticks,
        attempted=1,
    )


def trace_client_view(w, spans: Spans, ledger: Ledger, label: str) -> Iteration:
    """A served segment against the real daemon: the workload's own
    iteration, with every HTTP call it made turned into a span."""
    client = w.daemon.client
    marks = {route: len(calls) for route, calls in client.calls.items()}
    with MetricsSampler(w.daemon.port) as sampler:
        it = w.iterate()
    if it.failed or it.digest is None:
        return it
    calls = [
        (ROUTE_SPANS[route], start, end)
        for route in ROUTE_SPANS
        for start, end in client.calls[route][marks[route]:]
    ]
    first = min(start for _name, start, _end in calls)
    last = max(end for _name, _start, end in calls)
    root = spans.add("iteration", None, first, last, iteration=label)
    for name, start, end in sorted(calls, key=lambda c: c[1]):
        spans.add(name, root, start, end)
    ledger.add("service.client.cpu_s", it.cpu)
    ledger.add("service.daemon.queue_depth_max", sampler.queue_depth_max)
    ledger.add("mp5.vector.peak_buffered", sampler.peak_buffered)
    if sampler.first_egress_s is not None:
        ledger.add("service.daemon.first_egress_ms", sampler.first_egress_s * 1e3)
    return it


def trace_step_through(w, spans: Spans, ledger: Ledger, label: str) -> Iteration:
    """A served segment replayed in this process, single-threaded,
    through the public calls the daemon's adapter makes: decode, a fresh
    switch with the daemon's sinks, feed and watermark-gated pump per
    chunk, the draining pump, finish, payload."""
    prof = PhaseProfiler()
    monitored = "--monitor" in w.serve_args
    chunk = w.chunk
    records = w.records
    gc.collect()
    with spans.span("stepthrough", label) as root:
        with spans.span("mp5.vector.construct", label):
            switch = VectorSwitch(w.program, w.config)
        monitor = InvariantMonitor() if monitored else None
        switch.attach_observability(
            profiler=prof, metrics=MetricsRegistry(window=100), monitor=monitor
        )
        with spans.span("mp5.vector.start", label):
            switch.start()
        for i in range(0, len(records), chunk):
            with spans.span("service.daemon.packet_from_json", label):
                batch = [packet_from_json(r, j) for j, r in enumerate(records[i : i + chunk])]
            with spans.span("mp5.vector.feed", label):
                switch.feed(batch)
            with spans.span("mp5.vector.pump", label):
                if switch.work_available(False):
                    switch.pump(PUMP_SLICE, until_tick=switch.ingest_watermark)
        with spans.span("mp5.vector.pump", label):
            while switch.work_available(True):
                switch.pump(PUMP_SLICE, until_tick=None)
        with spans.span("mp5.vector.finish", label) as finish:
            stats = switch.finish()
        with spans.span("service.daemon.payload", label):
            text = render_payload(segment_payload(stats, public_registers(switch)))
    _reconstruct_child(spans, finish, prof)
    ledger.add_profiler(prof)
    if monitor is not None:
        ledger.add("obs.monitor.alerts", len(monitor.alerts))
    return Iteration(
        wall=root["end"] - root["start"],
        digest=digest_text(text),
        egressed=stats.egressed,
        dropped=stats.dropped,
        ticks=stats.ticks,
        attempted=1,
    )


def encode_seconds(w) -> float:
    """Client-side encoding of one segment. ``ServiceClient`` encodes
    inside its request call, so this replays the expressions of
    ``ingest_ndjson`` and ``ingest`` chunk by chunk; it has to follow
    them if they change."""
    ndjson = w.name == "serve_stream"
    start = time.perf_counter()
    for i in range(0, len(w.records), w.chunk):
        part = w.records[i : i + w.chunk]
        if ndjson:
            b"".join(
                json.dumps(record, separators=(",", ":")).encode() + b"\n"
                for record in part
            )
        else:
            json.dumps({"packets": part}).encode()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _alternate(seconds: float, plain, traced) -> Tuple[List[Iteration], List[Iteration]]:
    """Plain and traced iterations in turn until ``seconds`` are spent
    (at least MIN_TRACED each); stops at the first failure."""
    plains: List[Iteration] = []
    traceds: List[Iteration] = []
    deadline = time.perf_counter() + seconds
    while True:
        plains.append(plain())
        traceds.append(traced(f"{len(traceds)}"))
        if plains[-1].failed or traceds[-1].failed:
            break
        if len(traceds) >= MIN_TRACED and time.perf_counter() >= deadline:
            break
    return plains, traceds


def _span_metrics(spans: Spans, ledger: Ledger) -> None:
    """Fold each iteration's self times into ``<span name>_s`` samples."""
    for names in spans.self_seconds().values():
        for name, seconds in names.items():
            if name not in ROOT_SPANS:
                ledger.add(name + "_s", seconds)


def _shares_from_spans(spans: Spans, ledger: Ledger, root_name: str) -> None:
    """Offline: shares of the iteration wall, and how much of that wall
    the layer spans cover, straight from the span tree."""
    durations = {
        row["iter"]: row["end"] - row["start"]
        for row in spans.rows
        if row["name"] == root_name
    }
    for label, names in spans.self_seconds().items():
        wall = durations.get(label)
        if not wall:
            continue
        shares = dict.fromkeys(SHARE_GROUPS.values(), 0.0)
        covered = 0.0
        for name, seconds in names.items():
            if name == root_name:
                continue
            covered += seconds
            for prefix, share in SHARE_GROUPS.items():
                if name.startswith(prefix):
                    shares[share] += seconds
        for share, seconds in shares.items():
            ledger.add(share, seconds / wall)
        ledger.add("bench.layer_cover_frac", covered / wall)


def trace_run(w, seconds: float, spans: Spans) -> Dict:
    """The ``--trace 1`` run of one set-up workload. Returns
    ``{"metrics", "iterations", "problems"}``; the caller checks the
    iterations' digests against the reference."""
    ledger = Ledger()
    problems: List[str] = []
    ledger.add("workloads.trace_gen_s", w.trace_gen_s)
    ledger.add("compiler.compile_s", w.compile_s)

    if not w.served:
        traced_fn = trace_engine_call if w.schedule is not None else trace_vector
        plains, traceds = _alternate(
            seconds, w.iterate, lambda label: traced_fn(w, spans, ledger, label)
        )
        iterations = plains + traceds
        _span_metrics(spans, ledger)
        _shares_from_spans(spans, ledger, "iteration")
    else:
        client = w.daemon.client
        plains, traceds = _alternate(
            seconds * 0.6,
            w.iterate,
            lambda label: trace_client_view(w, spans, ledger, label),
        )
        segments = w.served_packets // w.packets
        w.close()  # reaped here: the daemon's CPU is known only once it exits
        steps = []
        deadline = time.perf_counter() + seconds * 0.4
        while len(steps) < MIN_TRACED or time.perf_counter() < deadline:
            steps.append(trace_step_through(w, spans, ledger, f"step-{len(steps)}"))
        iterations = plains + traceds + steps
        _span_metrics(spans, ledger)
        _served_metrics(w, client, ledger, segments, traceds)

    for it in traceds:
        ledger.add_iteration(it)
    # Layer times are not scaled; this says how fast the host was.
    ledger.add("host.calib_s", statistics.median(w.clock.spins))
    walls = [it.wall for it in plains if not it.failed]
    traced_walls = [it.wall for it in traceds if not it.failed]
    if walls and traced_walls:
        q1, median, q3 = quartiles(walls)
        ledger.add("run.iter_p50_s", median)
        ledger.add("run.iter_p75_s", q3)
        ledger.add("run.iter_iqr_frac", (q3 - q1) / median)
        ledger.add(
            "bench.trace_overhead_frac",
            statistics.median(traced_walls) / median - 1.0,
        )
    metrics = ledger.metrics(problems)
    return {"metrics": metrics, "iterations": iterations, "problems": problems}


def _served_metrics(w, client, ledger: Ledger, segments: int, traceds: List[Iteration]) -> None:
    """Client-observed round trips, the daemon's rusage, and the
    derived rows for a served workload."""
    ingest = client.seconds("ingest") + client.seconds("ingest_ndjson")
    if ingest:
        ledger.add("service.http.ingest_rtt_p50_ms", statistics.median(ingest) * 1e3)
        ledger.add("service.http.ingest_rtt_p99_ms", percentile(ingest, 0.99) * 1e3)
        ledger.add(
            "service.http.retry_429_frac", client.retries / (len(ingest) + client.retries)
        )
    drains = client.seconds("drain")
    if drains:
        ledger.add("service.http.drain_p50_ms", statistics.median(drains) * 1e3)
    scrapes = client.seconds("metrics_prom")
    if scrapes:
        ledger.add("obs.export.scrape_ms", statistics.median(scrapes) * 1e3)
    cpu = w.daemon.cpu_seconds()
    if cpu is not None and segments:
        ledger.add("service.daemon.cpu_s", cpu / segments)
    ledger.add("service.client.encode_s", statistics.median(encode_seconds(w) for _ in range(3)))

    def median_of(name: str) -> float:
        values = ledger.samples.get(name)
        return statistics.median(values) if values else 0.0

    # service/http.py has no public decode entry: what the ingest round
    # trips hold beyond the client's encoding and the replayed
    # packet_from_json is HTTP framing, JSON decode and event-loop wait.
    ledger.add(
        "service.http.frame_decode_s",
        max(
            0.0,
            median_of("service.http.ingest_rtt_s")
            - median_of("service.client.encode_s")
            - median_of("service.daemon.packet_from_json_s"),
        ),
    )
    walls = [it.wall for it in traceds if not it.failed]
    if not walls:
        return
    wall = statistics.median(walls)
    # Shares of the client-observed segment wall. The engine and sink
    # times come from the step-through; feed and pump partly overlap the
    # client's encoding of the next chunk on the second core, so the
    # service share is a floor.
    obs = median_of("obs.reconstruct_s") + median_of("obs.export.scrape_s")
    engine = sum(
        median_of(f"mp5.vector.{part}_s")
        for part in ("construct", "start", "feed", "pump", "finish")
    )
    ledger.add("share.obs", obs / wall)
    ledger.add("share.mp5_vector", engine / wall)
    ledger.add("share.service", max(0.0, 1.0 - (obs + engine) / wall))
    covered = sum(median_of(name + "_s") for name in set(ROUTE_SPANS.values()))
    ledger.add("bench.layer_cover_frac", covered / wall)
