"""The metric catalogue, free of any import of the program under test:
``run.py``, ``layers.py`` and ``compare.py`` all read it, and
``test_smoke.py`` holds ``BENCHMARK.json`` to it."""

#: End-to-end metrics: name, unit, better, bound (the share of the
#: parent's median by which the metric may get worse).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pkts_per_s", "pkt/s", "higher", 0.25),
    ("cpu_s_per_mpkt", "s/Mpkt", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("sim_norm_throughput", "pkt/tick/k", "higher", 0.15),
]

#: Per-layer metrics: name, unit, better. Times are seconds per traced
#: iteration (median over the traced iterations) unless the name says
#: ``_ms`` or ``_p``. A layer a workload does not run reports 0.
PER_LAYER = [
    ("workloads.trace_gen_s", "s", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("mp5.vector.construct_s", "s", "lower"),
    ("mp5.vector.feed_s", "s", "lower"),
    ("mp5.vector.pump_s", "s", "lower"),
    ("mp5.vector.finish_s", "s", "lower"),
    ("mp5.vector.peak_buffered", "count", "lower"),
    ("mp5.epochs.phase_a_s", "s", "lower"),
    ("mp5.epochs.phase_b_s", "s", "lower"),
    ("mp5.epochs.kernel_s", "s", "lower"),
    ("mp5.epochs.kernel_calls", "count", "lower"),
    ("mp5.epochs.epochs", "count", "lower"),
    ("mp5.switch.phantom_delivery_s", "s", "lower"),
    ("mp5.switch.inject_s", "s", "lower"),
    ("mp5.switch.move_s", "s", "lower"),
    ("mp5.switch.pop_s", "s", "lower"),
    ("mp5.switch.service_s", "s", "lower"),
    ("mp5.switch.remap_s", "s", "lower"),
    ("mp5.switch.telemetry_s", "s", "lower"),
    ("mp5.switch.ticks_per_s", "1/s", "higher"),
    ("mp5.run.other_s", "s", "lower"),
    ("obs.reconstruct_s", "s", "lower"),
    ("obs.monitor.alerts", "count", "lower"),
    ("obs.export.scrape_ms", "ms", "lower"),
    ("service.client.encode_s", "s", "lower"),
    ("service.client.cpu_s", "s", "lower"),
    ("service.http.ingest_rtt_s", "s", "lower"),
    ("service.http.frame_decode_s", "s", "lower"),
    ("service.http.ingest_rtt_p50_ms", "ms", "lower"),
    ("service.http.ingest_rtt_p99_ms", "ms", "lower"),
    ("service.http.drain_p50_ms", "ms", "lower"),
    ("service.http.retry_429_frac", "ratio", "lower"),
    ("service.daemon.packet_from_json_s", "s", "lower"),
    ("service.daemon.payload_s", "s", "lower"),
    ("service.daemon.queue_depth_max", "count", "lower"),
    ("service.daemon.first_egress_ms", "ms", "lower"),
    ("service.daemon.cpu_s", "s", "lower"),
    ("share.service", "ratio", "lower"),
    ("share.obs", "ratio", "lower"),
    ("share.mp5_vector", "ratio", "lower"),
    ("share.mp5_switch", "ratio", "lower"),
    ("sim.egressed", "count", "higher"),
    ("sim.dropped", "count", "lower"),
    ("sim.ticks", "count", "lower"),
    ("run.iter_p50_s", "s", "lower"),
    ("run.iter_p75_s", "s", "lower"),
    ("run.iter_iqr_frac", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
    ("bench.reference_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.layer_cover_frac", "ratio", "higher"),
]

#: Counts that must repeat exactly on every iteration of one seed.
EXACT_COUNTS = (
    "mp5.epochs.kernel_calls",
    "mp5.epochs.epochs",
    "obs.monitor.alerts",
    "sim.egressed",
    "sim.dropped",
    "sim.ticks",
)
