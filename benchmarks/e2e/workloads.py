"""The five benchmark workloads: inputs, one timed iteration, the check.

Every input (trace, app workload) is generated from ``--seed``; the
program under test sees only the generated packets. Each iteration's
output is reduced to ``sha256(render_payload(segment_payload(...)))``
and compared with a reference from ``run_mp5`` (the fast scalar engine)
on the same trace, so a wrong answer is a failed operation, not a fast
one.

Sizes are chosen so that one run (set-up, reference and the measured
window) fits the driver's ~30 s per-run budget on a 2-core host; see
README.md for how they differ from the sizes first proposed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps import get_application
from repro.compiler import compile_program
from repro.equivalence import check_degraded
from repro.faults import generate_schedule
from repro.mp5 import ENGINES, FLOW_ORDER_ARRAY, MP5Config, run_mp5
from repro.obs import InvariantMonitor, MetricsRegistry
from repro.service.client import ServiceClientError
from repro.service.daemon import render_payload, segment_payload
from repro.workloads import (
    clone_packets,
    make_sensitivity_program,
    sensitivity_trace,
    synthetic_source,
)

from daemon import Daemon, DaemonError
from host import HostClock

PIPELINES = 4
STATEFUL_STAGES = 4
REGISTER_SIZE = 512
WARMUPS = 2

#: The fault schedule is part of the workload definition, like the
#: program: drawing it from ``--seed`` moved drops 6%..29% of packets
#: across seeds, far beyond any bound a regression gate could use.
FAULT_SCHEDULE_SEED = 7
FAULT_KINDS = ["pipeline_stall", "fifo_shrink", "crossbar_fail"]
FAULT_EVENTS = 8
#: Idle gaps in the faulted trace: after every ``IDLE_EVERY`` packets
#: the line goes quiet for ``IDLE_TICKS`` ticks.
IDLE_EVERY = 500
IDLE_TICKS = 200
#: Seconds a chunk may keep meeting HTTP 429 (``replay_trace``'s default).
RETRY_BUDGET = 30.0


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(stats, registers) -> str:
    """The output check's fingerprint of one offline run."""
    return digest_text(render_payload(segment_payload(stats, registers)))


def public_registers(switch) -> Dict[str, List[int]]:
    return {
        name: values
        for name, values in switch.registers.items()
        if name != FLOW_ORDER_ARRAY
    }


def trace_records(trace) -> List[Dict]:
    """DataPackets -> ``/ingest`` records (the daemon assigns ids)."""
    records = []
    for p in trace:
        rec = {
            "arrival": p.arrival,
            "port": p.port,
            "headers": p.headers,
            "size": p.size_bytes,
        }
        if p.flow_id is not None:
            rec["flow"] = p.flow_id
        records.append(rec)
    return records


@dataclass
class Iteration:
    """One timed iteration and what the check needs from it."""

    wall: float = 0.0
    cpu: float = 0.0
    #: Scales ``wall`` and ``cpu`` to the reference host speed (host.py).
    host_factor: float = 1.0
    digest: Optional[str] = None
    egressed: int = 0
    dropped: int = 0
    ticks: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def norm_throughput(self) -> float:
        """*Simulated*: packets per tick per pipeline, the paper's metric."""
        return self.egressed / (self.ticks * PIPELINES) if self.ticks else 0.0


class Workload:
    """Base: subclasses set the class attributes and fill the hooks."""

    name = ""
    why = ""
    packets = 0
    served = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.packets = max(200, int(self.packets * scale))
        self.config = MP5Config(num_pipelines=PIPELINES)
        self.schedule = None
        self.clock = HostClock()
        self.compile_s = 0.0
        self.trace_gen_s = 0.0
        self.reference_s = 0.0

    # -- set-up ---------------------------------------------------------

    def build(self) -> None:
        """Compile the program and generate the trace from the seed."""
        start = time.perf_counter()
        self.program = self._compile()
        self.compile_s = time.perf_counter() - start
        start = time.perf_counter()
        self.trace = self._trace()
        self.trace_gen_s = time.perf_counter() - start

    def _compile(self):
        return make_sensitivity_program(STATEFUL_STAGES, REGISTER_SIZE)

    def _trace(self):
        return sensitivity_trace(
            self.packets,
            PIPELINES,
            STATEFUL_STAGES,
            REGISTER_SIZE,
            pattern="uniform",
            seed=self.seed,
        )

    def open(self) -> None:
        """Start whatever outlives an iteration (the daemon)."""

    def close(self) -> None:
        """Stop it; safe to call twice and after a failure."""

    # -- the check ------------------------------------------------------

    def sinks(self) -> Dict:
        """Fresh observability sinks for one engine call."""
        return {}

    def digest(self, stats, registers, sinks: Dict) -> str:
        """Fingerprint of everything one engine call must reproduce."""
        return payload_digest(stats, registers)

    def reference(self) -> str:
        """Expected digest, from the fast scalar engine on the same
        trace with the same sinks. Built after the measured window so
        that it shows in neither ``setup_s`` nor the engine process's
        peak RSS."""
        start = time.perf_counter()
        sinks = self.sinks()
        stats, registers = run_mp5(
            self.program,
            clone_packets(self.trace),
            self.config,
            faults=self.schedule,
            **sinks,
        )
        expected = self.digest(stats, registers, sinks)
        self.reference_s = time.perf_counter() - start
        return expected

    def extra_checks(self) -> List[str]:
        """Workload-level checks beyond the digest; returns problems."""
        return []

    # -- one iteration --------------------------------------------------

    def iterate(self) -> Iteration:
        raise NotImplementedError


class OfflineWorkload(Workload):
    """One thread, ``ENGINES["vector"]`` in batch mode, ``epoch_jobs``
    and ``native`` unset. An operation is one engine call."""

    def iterate(self) -> Iteration:
        it = Iteration(attempted=1)
        batch = clone_packets(self.trace)
        sinks = self.sinks()
        gc.collect()
        spin_before = self.clock.sample()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            stats, registers = ENGINES["vector"](
                self.program, batch, self.config, faults=self.schedule, **sinks
            )
        except Exception:  # the harness must report, not die, on any engine error
            it.failed = 1
            it.problems.append(traceback.format_exc(limit=3))
            return it
        it.wall = time.perf_counter() - start
        it.cpu = time.process_time() - cpu0
        it.host_factor = self.clock.factor(spin_before, self.clock.sample())
        it.digest = self.digest(stats, registers, sinks)
        it.egressed, it.dropped, it.ticks = stats.egressed, stats.dropped, stats.ticks
        it.problems.extend(self.check_sinks(sinks))
        return it

    def check_sinks(self, sinks: Dict) -> List[str]:
        return []


class OfflineVector(OfflineWorkload):
    name = "offline_vector"
    why = (
        "Engine only: mp5.vector.feed and mp5.epochs Phase A/B do the work, "
        "service and obs none; vector-engine refactors and the native tier are judged here."
    )
    packets = 50_000


class OfflineMonitored(OfflineWorkload):
    name = "offline_monitored"
    why = (
        "Same program and traffic with InvariantMonitor + MetricsRegistry attached: "
        "obs.reconstruct and obs.monitor dominate, so a cheaper-sinks change shows here only."
    )
    packets = 20_000

    def sinks(self) -> Dict:
        return {
            "monitor": InvariantMonitor(),
            "metrics": MetricsRegistry(window=100),
        }

    def digest(self, stats, registers, sinks: Dict) -> str:
        # The alert log is part of the output: about three seeds in ten
        # draw a trace on which the phantom-wait anomaly detector warns,
        # and every engine must then warn identically.
        alerts = json.dumps(sinks["monitor"].alerts.to_dicts(), sort_keys=True)
        return digest_text(payload_digest(stats, registers) + alerts)

    def check_sinks(self, sinks: Dict) -> List[str]:
        monitor = sinks["monitor"]
        problems = []
        if monitor.invariant_violations():
            problems.append(f"{monitor.invariant_violations()} invariant violations")
        verdict = monitor.health_report().verdict
        if verdict == "violated":
            problems.append("monitor verdict 'violated'")
        return problems


class OfflineFaulted(OfflineWorkload):
    name = "offline_faulted"
    why = (
        "CALL-bearing flowlet app, skewed flow sizes, 35% load with idle gaps, under a fault "
        "schedule: the only workload where mp5.switch (today's fallback) and faults.injector run."
    )
    packets = 5_000

    def _compile(self):
        return get_application("flowlet").compile()

    def _trace(self):
        trace = get_application("flowlet").workload(
            self.packets, PIPELINES, seed=self.seed, utilization=0.35
        )
        for i, pkt in enumerate(trace):
            pkt.arrival += (i // IDLE_EVERY) * IDLE_TICKS
        return trace

    def build(self) -> None:
        super().build()
        self.schedule = generate_schedule(
            FAULT_SCHEDULE_SEED,
            kinds=FAULT_KINDS,
            num_pipelines=PIPELINES,
            horizon=int(self.trace[-1].arrival) + 1,
            events=FAULT_EVENTS,
        )

    def extra_checks(self) -> List[str]:
        report = check_degraded(
            self.program, self.trace, self.config, faults=self.schedule
        )
        if report.contract_holds:
            return []
        return ["degraded contract violated: " + report.summary()]


class ServedWorkload(Workload):
    """One daemon subprocess plus one client, closed loop: the next
    request is sent only after the previous reply, as trace replayers
    do. An operation is one HTTP request or one segment verification."""

    served = True
    serve_args: tuple = ()
    #: Packets per ``POST /ingest``.
    chunk = 1
    #: Requests a segment makes besides its ingest chunks.
    other_requests = 0

    @property
    def chunks_per_segment(self) -> int:
        return -(-self.packets // self.chunk)

    @property
    def requests_per_segment(self) -> int:
        """What a daemon dying mid-segment takes with it."""
        return self.chunks_per_segment + self.other_requests

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.daemon: Optional[Daemon] = None
        self.source = synthetic_source(STATEFUL_STAGES, REGISTER_SIZE)
        self.program_name = f"synthetic_m{STATEFUL_STAGES}_r{REGISTER_SIZE}"
        self.served_packets = 0

    def _compile(self):
        # Compiled as the daemon compiles what POST /program receives.
        return compile_program(self.source, name=self.program_name)

    def build(self) -> None:
        super().build()
        self.records = trace_records(self.trace)

    def open(self) -> None:
        self.daemon = Daemon(
            "--engine", "vector", "--pipelines", str(PIPELINES), *self.serve_args
        )
        self.daemon.client.load_program(source=self.source, name=self.program_name)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.reap()

    def segment(self, client) -> Dict:
        """Send one segment and drain it; returns the closed record."""
        raise NotImplementedError

    def iterate(self) -> Iteration:
        it = Iteration()
        client = self.daemon.client
        before = (client.attempted, client.failed)
        gc.collect()
        spin_before = self.clock.sample()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            record = self.segment(client)
            it.wall = time.perf_counter() - start
            it.cpu = time.process_time() - cpu0
            it.host_factor = self.clock.factor(spin_before, self.clock.sample())
            body = client.segment_results(record["index"])
        except (ServiceClientError, OSError, TimeoutError, DaemonError) as exc:
            it.attempted = client.attempted - before[0]
            it.failed = client.failed - before[1]
            if not self.daemon.alive():
                # Every request the segment still owed is lost with it.
                lost = max(1, self.requests_per_segment - it.attempted)
                it.attempted += lost
                it.failed += lost
                it.problems.append(f"daemon died mid-segment: {exc}")
            else:
                it.failed = max(it.failed, 1)
                it.attempted = max(it.attempted, it.failed)
                it.problems.append(f"request failed: {exc}")
            return it
        self.served_packets += self.packets
        it.attempted = client.attempted - before[0] + 1  # + the verification
        it.failed = client.failed - before[1]
        it.digest = digest_text(body)
        it.egressed, it.dropped, it.ticks = (
            record["egressed"], record["dropped"], record["ticks"]
        )
        if record["offered"] != self.packets:
            it.problems.append(f"offered {record['offered']}, sent {self.packets}")
        if not record["drained"]:
            it.problems.append("segment closed undrained")
        if record["engine"] != "vector":
            it.problems.append(f"segment ran on {record['engine']!r}, asked for 'vector'")
        return it


class ServeStream(ServedWorkload):
    name = "serve_stream"
    why = (
        "Bulk NDJSON ingest in chunks of 512 then drain: per-packet encode, HTTP framing, decode "
        "and packet_from_json rival the engine, so a cheaper-ingest change claims here."
    )
    packets = 20_000
    chunk = 512
    other_requests = 2  # drain, results

    def segment(self, client) -> Dict:
        client.replay_trace(self.records, chunk=self.chunk)
        return client.drain()["closed_segment"]


class ServeSegments(ServedWorkload):
    name = "serve_segments"
    why = (
        "Many 1000-packet segments over the JSON route with --monitor, scraped and drained each: "
        "per-segment fixed cost dominates, so bulk-ingest wins paid for in set-up show as a loss."
    )
    packets = 1_000
    chunk = 100
    serve_args = ("--monitor",)
    other_requests = 4  # metrics.prom, status, drain, results

    @staticmethod
    def _ingest_json(client, part: List[Dict]) -> None:
        """``POST /ingest`` as JSON, with ``replay_trace``'s budget for
        a full queue: retry a 429 every 20 ms for at most 30 s."""
        deadline = time.monotonic() + RETRY_BUDGET
        while True:
            try:
                client.ingest(part)
                return
            except ServiceClientError as exc:
                if exc.status != 429:
                    raise
                if time.monotonic() >= deadline:
                    raise TimeoutError("ingest queue still full after 30s") from exc
                time.sleep(0.02)

    def segment(self, client) -> Dict:
        records = self.records
        for i in range(0, len(records), self.chunk):
            self._ingest_json(client, records[i : i + self.chunk])
        client.metrics_prom()
        client.status()
        return client.drain()["closed_segment"]


WORKLOADS = {
    cls.name: cls
    for cls in (
        OfflineVector,
        OfflineMonitored,
        OfflineFaulted,
        ServeStream,
        ServeSegments,
    )
}
