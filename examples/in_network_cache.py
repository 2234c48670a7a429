#!/usr/bin/env python3
"""NetCache-style in-network key-value caching on MP5.

In-network caching [47] is one of the application classes that motivates
stateful programmable switches (§1). The switch caches hot keys in
register arrays; GETs are served from the data plane, PUTs install
values. Correctness is delicate on a multi-pipelined switch: a GET
racing a PUT to the same key must observe them in arrival order, or the
cache serves stale (or phantom) data — exactly condition C1.

This script runs a read-heavy Zipf workload, checks every GET against a
golden in-order cache model, and contrasts MP5 with the no-D4 ablation,
where stale reads appear.

Run:  python examples/in_network_cache.py
"""

import numpy as np

from repro.baselines import no_phantom_config
from repro.compiler import compile_program
from repro.mp5 import MP5Config, MP5Switch
from repro.workloads import line_rate_trace, zipf_access


def build_trace(num_packets: int, num_pipelines: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    # A small hot keyset with a 70/30 read/write mix: GET/PUT races to
    # the same bucket are frequent, which is the case ordering protects.
    keys = zipf_access(16, 1.1, rng, num_packets)

    def headers(r, i):
        return {
            "key": int(keys[i]),
            "is_read": int(r.random() < 0.7),
            "value_in": 1000 + i,  # unique per write
            "value_out": 0,
            "cache_hit": 0,
        }

    return line_rate_trace(num_packets, num_pipelines, headers, seed=seed)


def stale_reads(packets) -> int:
    """Replay in arrival order against a golden cache; count GETs whose
    observed value differs from the in-order model.

    The golden model tracks *buckets* (the program hashes keys into 2048
    slots without storing tags, so colliding keys legitimately share a
    bucket — that is cache semantics, not a reordering)."""
    from repro.domino import hash2

    golden = {}
    stale = 0
    for pkt in sorted(packets, key=lambda p: p.pkt_id):
        if pkt.dropped or pkt.egress_tick is None:
            continue
        bucket = hash2(pkt.headers["key"], 5) % 2048
        if pkt.headers["is_read"]:
            expected_value, expected_valid = golden.get(bucket, (0, 0))
            if (
                pkt.headers["cache_hit"] != expected_valid
                or (expected_valid and pkt.headers["value_out"] != expected_value)
            ):
                stale += 1
        else:
            golden[bucket] = (pkt.headers["value_in"], 1)
    return stale


def main() -> None:
    num_pipelines = 8
    program = compile_program("netcache")
    trace = build_trace(10000, num_pipelines, seed=23)

    print("Design           throughput  stale GET responses")
    print("---------------  ----------  -------------------")
    for name, config in [
        ("MP5 (with D4)", MP5Config(num_pipelines=num_pipelines)),
        ("MP5 without D4", no_phantom_config(num_pipelines=num_pipelines)),
    ]:
        # The audit mode keeps the switch's packets, GET responses included.
        switch = MP5Switch(program, config)
        stats = switch.run(trace, record_access_order=True)
        print(
            f"{name:15s}  {stats.throughput_normalized():10.3f}  "
            f"{stale_reads(switch.packets):19d}"
        )

    print(
        "\nWith preemptive ordering every GET observes exactly the writes"
        "\nthat arrived before it — the cache is linearizable at the switch."
    )


if __name__ == "__main__":
    main()
