#!/usr/bin/env python3
"""Running two programs on one switch: logical MP5 partitioning.

§3.1 (footnote 1): MP5's compiler can program a subset of the physical
pipelines with one program and the rest with another, creating multiple
independent logical MP5 switches. Here an 8-pipeline switch dedicates
six pipelines to flowlet switching (heavy traffic, shardable state) and
two to a network telemetry sketch, then reports each partition's
throughput, latency, and state — including the crossbar steering
moves that show how much inter-pipeline traffic each partition really
carries.

Run:  python examples/partitioned_switch.py
"""

from repro.apps import FLOWLET, HEAVY_HITTER
from repro.mp5 import LogicalPartition, PartitionedMP5


def main() -> None:
    flowlet_program = FLOWLET.compile()
    sketch_program = HEAVY_HITTER.compile()

    switch = PartitionedMP5(
        total_pipelines=8,
        partitions=[
            LogicalPartition(flowlet_program, 6, name="flowlet-lb"),
            LogicalPartition(sketch_program, 2, name="telemetry"),
        ],
    )
    print(f"physical pipelines: 8, spare: {switch.spare_pipelines}")
    for part, pipes in zip(switch.partitions, switch.ranges):
        print(f"  {part.name:12s} -> pipelines {pipes[0]}..{pipes[1]}")
    print()

    flowlet_trace = FLOWLET.workload(9000, 6, seed=21)
    sketch_trace = HEAVY_HITTER.workload(3000, 2, seed=22)
    results = switch.run([flowlet_trace, sketch_trace])

    print("partition     throughput  p99 latency  steering  max queue")
    print("------------  ----------  -----------  --------  ---------")
    for result in results:
        stats = result.stats
        print(
            f"{result.name:12s}  {stats.throughput_normalized():10.3f}  "
            f"{stats.latency_percentile(99):11.1f}  {stats.steering_moves:8d}  "
            f"{stats.max_queue_depth:9d}"
        )

    counts = results[1].registers["counts"]
    busiest = max(range(len(counts)), key=counts.__getitem__)
    print(
        f"\ntelemetry partition's busiest bucket: counts[{busiest}] = "
        f"{counts[busiest]} packets"
    )
    print("Both logical switches run at line rate, isolated from each other.")


if __name__ == "__main__":
    main()
