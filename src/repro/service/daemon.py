"""The long-lived MP5 switch daemon.

:class:`SwitchService` wraps one of the three engines in an asyncio
ingestion loop plus the HTTP/JSON control plane of
:mod:`repro.service.http`. Traffic arrives in batches (pushed through
``POST /ingest`` or generated server-side by ``POST /replay``) into a
bounded queue; a single pump task moves batches into the engine and
advances ticks in slices, yielding between slices so control requests
stay responsive. Everything — pump, handlers, replay feeders — runs on
one event loop, so there are no locks and no data races by construction.

**Segments.** The service's unit of execution is a *segment*: one
uninterrupted run of one compiled program on one engine instance.
Control operations that change what the engine is (hot-swapping the
program, attaching/detaching a fault schedule, toggling the monitor,
retuning the remap policy) *quiesce* first — flush the ingest queue,
drain the engine to empty, close the segment — and the next arrival
batch opens a fresh segment under the new configuration. A closed
segment's results are frozen as a canonical JSON payload
(:func:`segment_payload`) that is byte-identical to an offline
``run_mp5``/``run_mp5_vector`` invocation over the same packets, which
is what makes hot swaps testable: served-and-swapped equals two offline
runs split at the swap tick.

**Determinism.** Every engine executes work only once no future
``feed`` can still affect it. The scalar engines execute a tick once it
falls below :attr:`repro.mp5.MP5Switch.ingest_watermark`; the vector
engine services a whole *epoch* once the watermark proves its arrivals
are complete. Both expose the same ``start``/``feed``/``pump``/
``finish`` primitives and the uniform ``work_available(drain)`` probe,
so one adapter drives all three and results are independent of how
arrivals were batched or when control requests interleaved. Each
segment's switch comes from :func:`repro.mp5.build_switch`, so when the
vector engine cannot run it (faults armed with ``--monitor`` on — the
vector engine replays no sinks on a faulted run —, a config knob it
does not model, an unsupported program shape) the segment runs on the
fast engine with the same one-line warning as an offline run, and its
record names the engine that ran. A segment's metrics registry is
attached only to a scalar engine, the one kind that fills it while the
segment is open; an open vector segment exposes the service families
alone.

**Backpressure.** The ingest queue holds at most ``queue_depth``
batches. ``POST /ingest`` never blocks: a full queue is answered with
HTTP 429 and the client retries. ``POST /replay`` feeds through an
in-loop task that *awaits* queue space — the generator side of bounded
backpressure.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..compiler import compile_program
from ..errors import ConfigError, ReproError, ServiceError
from ..faults import FaultSchedule
from ..mp5 import DEFAULT_ENGINE, ENGINES, MP5Config, build_switch
from ..mp5.packet import DataPacket, PacketColumns
from ..obs.health import VERDICT_DEGRADED, VERDICT_OK, worst_verdict
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import InvariantMonitor
from ..workloads.traceio import stats_to_dict
from ..workloads.traffic import line_rate_trace, random_headers
# ``packet_from_json`` is unused here: benchmarks/e2e imports it from this module.
from .wire import IngestBody, packet_from_json  # noqa: F401

__all__ = [
    "ServiceThread",
    "SwitchService",
    "render_payload",
    "segment_payload",
]

#: Engine ticks executed per pump slice before yielding to the loop.
PUMP_SLICE = 2048

#: Hard cap on packets a single /replay request may schedule.
REPLAY_MAX_PACKETS = 1_000_000


def segment_payload(stats, registers) -> Dict:
    """The canonical result of one segment (or one offline run).

    Combines the run summary, the per-reason drop breakdown, and the
    final register state into one JSON-able dict. The served hot-swap
    path and the offline ``run`` path both freeze results through this
    helper, so byte-comparing :func:`render_payload` outputs is the
    equivalence check."""
    return {
        "stats": stats_to_dict(stats),
        "drops_by_reason": {
            k: int(v) for k, v in sorted(stats.drops_by_reason.items())
        },
        "registers": {
            name: [int(v) for v in values]
            for name, values in sorted(registers.items())
        },
    }


def render_payload(payload: Dict) -> str:
    """Deterministic JSON rendering of a segment payload (sorted keys,
    fixed separators) — the byte string ``GET /segments/<i>/results``
    serves."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Engine adapters: one open segment
# ----------------------------------------------------------------------


class _EngineAdapter:
    """One open segment, any engine, one contract: batches stream in
    through ``feed`` and work advances through ``pump`` only once the
    ingest watermark proves no future feed can affect it — ticks for
    the scalar engines, whole epochs for the vector engine. The switch
    comes from :func:`repro.mp5.build_switch` with the service's fault
    schedule and the segment's monitor attached, so a mid-stream fault
    attach never wedges a ``--engine vector`` service: the next segment
    is settled like any run. The segment's metrics registry is attached
    only to a scalar engine, which fills it while the segment is open:
    the vector engine would fill it in ``finish()``, after the segment's
    routes stop reading it. So only a *monitored* faulted vector segment
    runs on the fast engine, and its record names it."""

    streaming = True

    def __init__(self, service: "SwitchService"):
        self.monitor = (
            InvariantMonitor() if service.monitor_enabled else None
        )
        self.metrics = MetricsRegistry(
            window=service.metrics_window,
            retention=service.metrics_retention,
        )
        self.switch = build_switch(
            service.engine,
            service.compiled,
            service.config,
            faults=service.schedule,
            monitor=self.monitor,
        )
        if self.switch.engine != "vector":
            self.switch.attach_observability(metrics=self.metrics)
        self.switch.start()
        self.offered = 0
        self.first_feed_ts: Optional[float] = None
        self.first_egress_ts: Optional[float] = None

    @property
    def engine(self) -> str:
        """The engine that runs this segment."""
        return self.switch.engine

    @property
    def injector(self):
        return self.switch._faults

    @property
    def tick(self) -> int:
        return self.switch.tick

    @property
    def watermark(self) -> int:
        return self.switch.ingest_watermark

    @property
    def egressed(self) -> int:
        return int(self.switch.stats.egressed)

    @property
    def first_egress_latency(self) -> Optional[float]:
        """Seconds from the segment's first accepted feed to its first
        observed egress — the streaming win the bench measures."""
        if self.first_feed_ts is None or self.first_egress_ts is None:
            return None
        return self.first_egress_ts - self.first_feed_ts

    def feed(self, batch: PacketColumns) -> int:
        n = self.switch.feed(batch)
        self.offered += n
        if n and self.first_feed_ts is None:
            self.first_feed_ts = time.monotonic()
        return n

    def runnable(self, drain: bool) -> bool:
        return self.switch.work_available(drain)

    def pump(self, budget: int, drain: bool) -> int:
        sw = self.switch
        until = None if drain else sw.ingest_watermark
        steps = sw.pump(max_steps=budget, until_tick=until)
        if self.first_egress_ts is None and sw.stats.egressed > 0:
            self.first_egress_ts = time.monotonic()
        return steps

    def close(self) -> Tuple[object, Dict[str, List[int]]]:
        stats = self.switch.finish()
        if self.first_egress_ts is None and stats.egressed > 0:
            self.first_egress_ts = time.monotonic()
        return stats, self.switch.public_registers()

    def stream_stats(self) -> Optional[Dict[str, int]]:
        fn = getattr(self.switch, "stream_stats", None)
        return fn() if fn is not None else None

    def alert_dicts(self) -> List[Dict]:
        return self.monitor.alerts.to_dicts() if self.monitor else []

    def health_report(self):
        return self.monitor.health_report() if self.monitor else None


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


#: ``GET /metrics.prom``'s scalar service families, keyed by
#: :meth:`SwitchService._service_counts`: (family name, kind, help). A
#: count that is None (no open segment, no egress yet) is not exposed.
_SERVICE_FAMILIES = {
    "ingested": ("ingested", "counter", "Packets accepted into the ingest queue."),
    "batches": ("batches", "counter", "Ingest batches accepted."),
    "rejected": (
        "rejected", "counter", "Packets rejected (backpressure or ordering)."
    ),
    "segments": ("segments", "counter", "Segments closed so far."),
    "alerts_total": ("alerts", "counter", "Alerts raised across all segments."),
    "queue_depth": ("queue_depth", "gauge", "Ingest queue occupancy in batches."),
    "connections_open": (
        "connections_open", "gauge", "Control-plane connections open now."
    ),
    "connections": ("connections", "counter", "Control-plane connections accepted."),
    "requests": (
        "requests",
        "counter",
        "Control-plane requests read (reuse = requests / connections).",
    ),
    "watermark": (
        "watermark",
        "gauge",
        "Open segment's ingest watermark (ticks proven complete).",
    ),
    "first_egress_latency": (
        "first_egress_latency_seconds",
        "gauge",
        "Seconds from a segment's first feed to its first egress.",
    ),
}


class SwitchService:
    """One long-lived switch: engine + program + control state.

    Construct, then either ``asyncio.run(service.serve(...))`` (the
    ``serve`` CLI subcommand) or wrap in :class:`ServiceThread` for
    in-process use. All public ``async`` methods must run on the
    service's event loop — the HTTP control plane is the normal caller.
    """

    def __init__(
        self,
        program: Optional[str] = None,
        engine: str = DEFAULT_ENGINE,
        config: Optional[MP5Config] = None,
        queue_depth: int = 8,
        monitor: bool = False,
        faults: Optional[FaultSchedule] = None,
        metrics_window: int = 100,
        metrics_retention: Optional[int] = None,
        program_name: Optional[str] = None,
    ):
        if engine not in ENGINES:
            raise ConfigError(f"unknown engine {engine!r}")
        self.engine = engine
        self.config = config or MP5Config()
        if faults is not None:
            faults.validate(self.config.num_pipelines)
        self.schedule = faults
        self.monitor_enabled = monitor
        self.metrics_window = metrics_window
        if metrics_retention is not None and metrics_retention < 2:
            raise ConfigError("metrics_retention must be >= 2 window rows")
        self.metrics_retention = metrics_retention
        self.queue_depth = queue_depth
        if program is None:
            self.compiled = None
        elif isinstance(program, str):
            self.compiled = compile_program(program, name=program_name)
        else:
            # An already-compiled program object (bench harness, tests):
            # skips recompilation and reuses its kernel caches.
            self.compiled = program
        self.program_name = self.compiled.name if self.compiled else None

        self._adapter = None
        self._segments: List[Dict] = []  # public records of closed segments
        self._payloads: List[str] = []  # rendered results per segment
        self._alerts: List[Dict] = []  # alerts from closed segments
        self._feed_horizon: Optional[Tuple[float, int]] = None
        self._first_egress_latency: Optional[float] = None
        self._ingested = 0
        self._batches = 0
        self._rejected = 0
        self._paused = False
        self._draining = False
        self._stopping = False
        self._quiesce_waiters: List[asyncio.Future] = []
        self._replay_tasks: set = set()
        self._errors: List[str] = []
        self._lost: Optional[str] = None  # open segment's failed feed
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._plane = None  # the ControlPlane, once serving
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 8585, ready=None):
        """Run the daemon until shut down: HTTP control plane + pump
        task. ``ready`` (if given) is called with the service once the
        listening address is known."""
        from .http import ControlPlane

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._wake = asyncio.Event()
        self._room = asyncio.Event()  # set whenever the pump takes a batch
        self._shutdown_event = asyncio.Event()
        self._plane = plane = ControlPlane(self)
        server = await asyncio.start_server(plane.handle, host, port)
        self.address = server.sockets[0].getsockname()[:2]
        pump = asyncio.create_task(self._pump_loop())
        if ready is not None:
            ready(self)
        try:
            await self._shutdown_event.wait()
        finally:
            self._stopping = True
            self._shutdown_event.set()  # wakes every SSE stream's wait
            self._wake.set()
            for task in list(self._replay_tasks):
                task.cancel()
            pump.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump
            server.close()
            # Before ``wait_closed``: on 3.12+ it waits for every open
            # connection, and an idle keep-alive one never ends itself.
            await plane.close_connections()
            await server.wait_closed()

    async def shutdown(self) -> Optional[Dict]:
        """Drain everything (queue and engine), close the open segment,
        then stop the daemon. Returns the final segment record."""
        if self._stopping:
            return None
        for task in list(self._replay_tasks):
            task.cancel()
        try:
            return await self.quiesce()
        finally:  # a failed close still stops the daemon
            self._stopping = True
            self._shutdown_event.set()
            self._wake.set()

    # -- pump loop ------------------------------------------------------

    async def _pump_loop(self):
        # The wake event is cleared *before* pumping so any event raised
        # mid-pump (ingest, drain request, shutdown) leaves it set and
        # the next wait returns immediately — no lost wakeups.
        while not self._stopping:
            self._wake.clear()
            progressed = self._pump_once()
            if self._draining and not self._has_pending_work():
                self._finish_quiesce()
            if progressed:
                await asyncio.sleep(0)
            else:
                await self._wake.wait()

    def _pump_once(self) -> bool:
        progressed = False
        if self._paused and not self._draining:
            return False
        while self._queue is not None and not self._queue.empty():
            batch = self._queue.get_nowait()
            self._room.set()
            try:
                self._ensure_adapter().feed(batch)
            except Exception as exc:
                # Defensive: ingest validated the batch and checked the
                # horizon. Whatever got past that loses this batch, not
                # the pump task — and the segment's drain says so.
                self._rejected += len(batch)
                self._lost = f"{type(exc).__name__}: {exc}"
                self._errors.append(f"feed failed: {self._lost}")
            else:
                self._ingested += len(batch)
                self._batches += 1
            progressed = True
        ad = self._adapter
        if ad is not None and ad.runnable(self._draining):
            ad.pump(PUMP_SLICE, self._draining)
            progressed = True
        return progressed

    def _has_pending_work(self) -> bool:
        if self._queue is not None and not self._queue.empty():
            return True
        ad = self._adapter
        return ad is not None and ad.runnable(True)

    def _ensure_adapter(self):
        if self._adapter is None:
            if self.compiled is None:
                raise ServiceError("no program loaded", status=409)
            self._adapter = _EngineAdapter(self)
        return self._adapter

    # -- quiesce and segment close --------------------------------------

    async def quiesce(self) -> Optional[Dict]:
        """Flush the ingest queue, drain the engine dry, close the open
        segment. Returns the closed segment's public record, or None if
        nothing was open. Proceeds even while paused — an explicit drain
        outranks a pause."""
        if (
            self._adapter is None
            and (self._queue is None or self._queue.empty())
            and self._lost is None
        ):
            return None
        fut = self._loop.create_future()
        self._quiesce_waiters.append(fut)
        self._draining = True
        self._wake.set()
        return await fut

    def _finish_quiesce(self):
        record = failure = None
        try:
            record = self._close_segment()
        except Exception as exc:  # surface engine teardown failures
            failure = f"segment close failed: {exc}"
            self._errors.append(failure)
        lost, self._lost = self._lost, None
        if failure is None and lost is not None:
            failure = f"segment closed without a batch its feed lost: {lost}"
        for fut in self._quiesce_waiters:
            if fut.done():
                continue
            if failure is None:
                fut.set_result(record)
            else:
                fut.set_exception(ServiceError(failure, status=500))
        self._quiesce_waiters.clear()
        self._draining = False

    def _close_segment(self) -> Optional[Dict]:
        ad = self._adapter
        self._adapter = None
        self._feed_horizon = None
        if ad is None:
            return None
        stats, registers = ad.close()
        if ad.first_egress_latency is not None:
            self._first_egress_latency = ad.first_egress_latency
        # Rendered once: the string is a quarter the size of the dict of
        # boxed lists, and every GET serves it as is.
        payload = render_payload(segment_payload(stats, registers))
        alerts = ad.alert_dicts()
        report = ad.health_report()
        index = len(self._segments)
        record = {
            "index": index,
            "engine": ad.engine,
            "program": self.program_name,
            "offered": int(stats.offered),
            "egressed": int(stats.egressed),
            "dropped": int(stats.dropped),
            "ticks": int(stats.ticks),
            "drained": bool(
                stats.offered == stats.egressed + stats.dropped
            ),
            "alerts": len(alerts),
            "health": report.to_dict() if report is not None else None,
        }
        self._segments.append(record)
        self._payloads.append(payload)
        self._alerts.extend(alerts)
        return record

    # -- ingestion ------------------------------------------------------

    def ingest(self, body: IngestBody) -> Dict:
        """Queue the batch of one parsed ``POST /ingest`` body
        (:func:`repro.service.wire.parse_ingest`): 400 when it does not
        validate. Bounded: raises 429 when the queue is full, 409 when
        the batch breaks arrival-order monotonicity within the open
        segment — which any batch does while a replay is feeding, since
        the replay's later chunks would reach the engine after it."""
        if self.compiled is None:
            raise ServiceError("no program loaded", status=409)
        batch = body.batch()
        if self._replay_tasks:
            self._rejected += len(batch)
            raise ServiceError("a replay is feeding the open segment; "
                               "ingest once it has finished", status=409)
        self._admit(batch)
        return {"queued": len(batch), "queue_depth": self._queue.qsize()}

    def _admit(self, batch: PacketColumns):
        """The one admission check of ingest batches and replay chunks:
        queue ``batch`` if it follows everything the open segment
        accepted and the queue has room, else 409 / 429. It never
        awaits, so nothing is admitted between the check and the put."""
        lo, hi = batch.span()
        if self._feed_horizon is not None and lo < self._feed_horizon:
            self._rejected += len(batch)
            raise ServiceError(
                f"batch starts at (arrival, port) {lo} but the open segment "
                f"already accepted {self._feed_horizon}; arrivals must be "
                "monotone within a segment — drain first to reset the clock",
                status=409,
            )
        try:
            self._queue.put_nowait(batch)
        except asyncio.QueueFull:
            self._rejected += len(batch)
            raise ServiceError(
                f"ingest queue full ({self.queue_depth} batches); "
                "retry after the engine catches up",
                status=429,
            ) from None
        self._feed_horizon = max(self._feed_horizon or lo, hi)
        self._wake.set()

    async def replay(self, spec: Dict) -> Dict:
        """Generate a line-rate trace server-side and feed it through
        the bounded queue (awaiting space — true backpressure)."""
        if self.compiled is None:
            raise ServiceError("no program loaded", status=409)
        try:
            count = int(spec.get("packets", 0))
            chunk = int(spec.get("chunk", 256))
            seed = int(spec.get("seed", 0))
            packet_size = int(spec.get("packet_size", 64))
            utilization = float(spec.get("utilization", 1.0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad replay spec: {exc}") from exc
        if not 1 <= count <= REPLAY_MAX_PACKETS:
            raise ServiceError(
                f"replay packets must be in [1, {REPLAY_MAX_PACKETS}]"
            )
        if chunk < 1:
            raise ServiceError("replay chunk must be >= 1")
        packets = line_rate_trace(
            count,
            self.config.num_pipelines,
            random_headers(self.compiled),
            packet_size=packet_size,
            seed=seed,
            utilization=utilization,
        )
        lo = (packets[0].arrival, packets[0].port)
        if self._replay_tasks or (
            self._feed_horizon is not None and lo < self._feed_horizon
        ):
            raise ServiceError(
                "replay starts at arrival 0 but the open segment is mid-"
                "stream; drain first to reset the arrival clock",
                status=409,
            )
        task = self._loop.create_task(self._feed_replay(packets, chunk))
        self._replay_tasks.add(task)
        task.add_done_callback(self._replay_tasks.discard)
        return {
            "scheduled": count,
            "chunks": (count + chunk - 1) // chunk,
        }

    async def _feed_replay(self, packets: List[DataPacket], chunk: int):
        for i in range(0, len(packets), chunk):
            batch = PacketColumns.from_packets(packets[i : i + chunk])
            while self._queue.full():  # await room, then admit at once
                self._room.clear()
                await self._room.wait()
            self._admit(batch)

    # -- control operations (each quiesces) -----------------------------

    async def load_program(self, spec: Dict) -> Dict:
        """Compile, optionally validate-only, else hot-swap: drain the
        open segment and install the new program for the next one."""
        source = spec.get("source") or spec.get("program")
        if not source or not isinstance(source, str):
            raise ServiceError(
                "program spec needs 'program' (bundled name) or 'source' "
                "(Domino text)"
            )
        try:
            compiled = compile_program(source, name=spec.get("name"))
        except ReproError as exc:
            raise ServiceError(f"compile failed: {exc}") from exc
        info = {
            "program": compiled.name,
            "stages": compiled.stage_count,
            "fields": sorted(compiled.packet_fields),
        }
        if spec.get("validate_only"):
            return {**info, "validated": True, "swapped": False}
        record = await self.quiesce()
        self.compiled = compiled
        self.program_name = compiled.name
        return {
            **info,
            "swapped": True,
            "closed_segment": record["index"] if record else None,
        }

    async def attach_faults(self, spec: Dict) -> Dict:
        """Validate a fault schedule against the current pipeline count,
        drain, and arm it for the next segment."""
        try:
            if "path" in spec:
                schedule = FaultSchedule.load(spec["path"])
            else:
                schedule = FaultSchedule.from_dict(spec.get("schedule", spec))
            schedule.validate(self.config.num_pipelines)
        except ReproError as exc:
            raise ServiceError(f"bad fault schedule: {exc}") from exc
        record = await self.quiesce()
        self.schedule = schedule
        return {
            "attached": True,
            "faults": len(schedule.faults),
            "closed_segment": record["index"] if record else None,
        }

    async def detach_faults(self) -> Dict:
        record = await self.quiesce()
        had = self.schedule is not None
        self.schedule = None
        return {
            "attached": False,
            "was_attached": had,
            "closed_segment": record["index"] if record else None,
        }

    async def set_monitor(self, enabled: bool) -> Dict:
        record = await self.quiesce()
        self.monitor_enabled = bool(enabled)
        return {
            "monitor": self.monitor_enabled,
            "closed_segment": record["index"] if record else None,
        }

    async def configure(self, spec: Dict) -> Dict:
        """Retune config knobs (remap policy/period and friends): drain,
        then rebuild the config the next segment's engine is built
        with."""
        allowed = {
            "remap_period",
            "remap_algorithm",
            "spray_policy",
            "fifo_capacity",
        }
        unknown = set(spec) - allowed
        if unknown:
            raise ServiceError(
                f"unknown config fields: {', '.join(sorted(unknown))} "
                f"(tunable: {', '.join(sorted(allowed))})"
            )
        if not spec:
            raise ServiceError("empty config update")
        try:
            new_config = dataclasses.replace(self.config, **spec)
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad config: {exc}") from exc
        record = await self.quiesce()
        self.config = new_config
        return {
            "config": dataclasses.asdict(self.config),
            "closed_segment": record["index"] if record else None,
        }

    async def pause(self) -> Dict:
        self._paused = True
        return {"paused": True}

    async def resume(self) -> Dict:
        self._paused = False
        self._wake.set()
        return {"paused": False}

    # -- read-only views ------------------------------------------------

    def status(self) -> Dict:
        ad = self._adapter
        return {
            "program": self.program_name,
            "engine": self.engine,
            "config": dataclasses.asdict(self.config),
            "monitor": self.monitor_enabled,
            "metrics_retention": self.metrics_retention,
            "faults": len(self.schedule.faults) if self.schedule else 0,
            "paused": self._paused,
            "draining": self._draining,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_capacity": self.queue_depth,
            "ingested": self._ingested,
            "batches": self._batches,
            "rejected": self._rejected,
            "segments": len(self._segments),
            "segment_open": ad is not None,
            "segment": None
            if ad is None
            else {
                "offered": ad.offered,
                "tick": ad.tick,
                "streaming": ad.streaming,
                "engine": ad.engine,
                "watermark": ad.watermark,
                "egressed": ad.egressed,
            },
            "settled": (
                not self._draining
                and (self._queue is None or self._queue.empty())
                and (ad is None or not ad.runnable(False))
            ),
            "errors": list(self._errors[-5:]),
        }

    def health(self) -> Dict:
        """Service health: HealthReport-backed when a monitor is live,
        plus injector phase (active fault windows, pending emergency
        remaps) folded in as ``degraded``."""
        ad = self._adapter
        verdict = VERDICT_OK
        reasons: List[str] = []
        report = None
        if ad is not None:
            rep = ad.health_report()
            if rep is not None:
                report = rep.to_dict()
                verdict = worst_verdict(verdict, rep.verdict)
                if rep.verdict != VERDICT_OK:
                    reasons.append(f"monitor verdict {rep.verdict}")
            inj = ad.injector
            if inj is not None:
                windows = inj.active_windows()
                remaps = inj.pending_remaps()
                if windows:
                    verdict = worst_verdict(verdict, VERDICT_DEGRADED)
                    reasons.append(
                        f"{len(windows)} fault window(s) active: "
                        + ", ".join(
                            f"{w['kind']}@p{w['pipe']}" for w in windows
                        )
                    )
                if remaps:
                    verdict = worst_verdict(verdict, VERDICT_DEGRADED)
                    reasons.append(
                        f"{len(remaps)} emergency remap(s) pending"
                    )
        return {
            "verdict": verdict,
            "reasons": reasons,
            "segment_open": ad is not None,
            "program": self.program_name,
            "engine": self.engine,
            "tick": ad.tick if ad is not None else None,
            "report": report,
            "segments": [
                {
                    "index": rec["index"],
                    "verdict": (rec["health"] or {}).get("verdict", "ok"),
                    "drained": rec["drained"],
                }
                for rec in self._segments
            ],
        }

    def _service_counts(self) -> Dict:
        """The service section ``GET /metrics`` and ``GET
        /metrics.prom`` both publish: ingest and segment totals, the
        alerts raised (closed segments' and the open one's), the queue
        depth, control-plane connections (``requests / connections`` is
        the keep-alive reuse ratio), the open segment's watermark, the
        first-egress latency (the open segment's once it has one, else
        the last closed one's), and the ``POST /ingest`` batches and
        body bytes queued per wire framing."""
        ad = self._adapter
        plane = self._plane
        latency = ad.first_egress_latency if ad is not None else None
        return {
            "ingested": self._ingested,
            "batches": self._batches,
            "rejected": self._rejected,
            "segments": len(self._segments),
            "alerts_total": len(self._alerts)
            + (len(ad.alert_dicts()) if ad is not None else 0),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "watermark": ad.watermark if ad is not None else None,
            "first_egress_latency": (
                self._first_egress_latency if latency is None else latency
            ),
            "connections_open": plane.connections_open if plane else 0,
            "connections": plane.connections if plane else 0,
            "requests": plane.requests if plane else 0,
            "ingest_batches": dict(plane.ingest_batches) if plane else {},
            "ingest_bytes": dict(plane.ingest_bytes) if plane else {},
        }

    def metrics_snapshot(self, since: int = -1) -> Dict:
        ad = self._adapter
        out = {
            "service": self._service_counts(),
            "segment_index": len(self._segments) if ad is not None else None,
            "engine": None,
        }
        if ad is not None:
            stream = ad.stream_stats()
            if stream is not None:
                out["service"]["stream"] = stream
            out["engine"] = ad.metrics.since(since)
        return out

    def openmetrics(self) -> str:
        """The ``GET /metrics.prom`` document: service-level counters
        plus, when a segment is open, the engine's current
        totals/gauges/summaries — one OpenMetrics text exposition any
        Prometheus-compatible scraper ingests."""
        from ..obs.export import (
            Family,
            Sample,
            families_from_values,
            render_families,
            render_openmetrics,
        )

        counts = self._service_counts()
        values = {
            name: counts[key]
            for key, (name, _kind, _help) in _SERVICE_FAMILIES.items()
            if counts[key] is not None
        }
        service = families_from_values(
            values,
            {name: kind for name, kind, _help in _SERVICE_FAMILIES.values()},
            prefix="mp5_service_",
            help_prefix="Service: ",
            helps={name: text for name, _kind, text in _SERVICE_FAMILIES.values()},
        )
        for name, what in (("ingest_batches", "batches"), ("ingest_bytes", "body bytes")):
            if counts[name]:
                service.append(
                    Family(
                        f"mp5_service_{name}",
                        "counter",
                        f"Service: POST /ingest {what} queued, by wire framing.",
                        [
                            Sample("_total", (("wire", wire),), float(count))
                            for wire, count in counts[name].items()
                        ],
                    )
                )
        ad = self._adapter
        if ad is not None:
            return render_openmetrics(ad.metrics, extra_families=service)
        return render_families(service)

    def alerts_window(self, since: int = 0) -> Dict:
        """Since-cursor alert polling: pass back ``cursor`` to receive
        only alerts raised after the previous call."""
        ad = self._adapter
        live = ad.alert_dicts() if ad is not None else []
        merged = self._alerts + live
        if since < 0:
            since = 0
        return {"alerts": merged[since:], "cursor": len(merged)}

    def segments_view(self) -> Dict:
        return {"segments": list(self._segments)}

    def segment_results(self, index: int) -> str:
        if not 0 <= index < len(self._payloads):
            raise ServiceError(f"no such segment {index}", status=404)
        return self._payloads[index]


class ServiceThread:
    """Run a :class:`SwitchService` on a background thread (tests and
    in-process embedding). ``start()`` returns the bound ``(host,
    port)``; ``stop()`` drains and joins."""

    def __init__(self, service: SwitchService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="mp5-service", daemon=True
        )

    def _run(self):
        asyncio.run(self.service.serve(self.host, self.port, ready=self._on_ready))

    def _on_ready(self, service: SwitchService):
        self.address = service.address
        self._ready.set()

    def start(self) -> Tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("service did not start within 15s")
        return self.address

    def stop(self, timeout: float = 30.0):
        loop = self.service._loop
        # A daemon already told to stop (POST /shutdown) is tearing its
        # loop down: a coroutine posted now may never run, so only join.
        if (
            loop is not None
            and self._thread.is_alive()
            and not self.service._stopping
        ):
            try:
                fut = asyncio.run_coroutine_threadsafe(
                    self.service.shutdown(), loop
                )
                fut.result(timeout=timeout)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
