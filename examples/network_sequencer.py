#!/usr/bin/env python3
"""Network sequencer (NOPaxos-style) — why ordering needs phantom packets.

Example 2 of the paper (§2.3.1): a switch stamps every packet with a
strictly increasing sequence number. On a multi-pipelined switch this is
the hardest case for correctness — every packet touches the same
register, and any deviation from arrival-order access produces duplicate
or permuted sequence numbers, which breaks the consensus protocols that
rely on the sequencer.

The script runs the sequencer on MP5 with and without D4 (phantom
packets) and on the re-circulating baseline, and verifies that only MP5
stamps packets 1..N in arrival order. It uses realistic bimodal packet
sizes, which is what lets a single-register program still hit line rate
(§4.4).

Run:  python examples/network_sequencer.py
"""

from repro.apps import SEQUENCER
from repro.baselines import RecircConfig, no_phantom_config, run_recirculation
from repro.mp5 import MP5Config, MP5Switch


def sequence_errors(packets) -> int:
    """Packets whose stamped seq differs from their arrival rank."""
    delivered = [p for p in packets if not p.dropped and p.egress_tick is not None]
    return sum(1 for p in delivered if p.headers.get("seq") != p.pkt_id + 1)


def main() -> None:
    num_pipelines = 4
    program = SEQUENCER.compile()
    trace = SEQUENCER.workload(8000, num_pipelines, seed=3)

    print("Design                 throughput  out-of-order stamps")
    print("---------------------  ----------  -------------------")

    for name, config in [
        ("MP5 (with D4)", MP5Config(num_pipelines=num_pipelines)),
        ("MP5 without D4", no_phantom_config(num_pipelines=num_pipelines)),
    ]:
        # The audit mode keeps the switch's packets, stamps included.
        switch = MP5Switch(program, config)
        stats = switch.run(trace, record_access_order=True)
        print(
            f"{name:21s}  {stats.throughput_normalized():10.3f}  "
            f"{sequence_errors(switch.packets):19d}"
        )

    stats, switch = run_recirculation(
        program,
        trace,
        RecircConfig(num_pipelines=num_pipelines),
        record_access_order=True,
    )
    print(
        f"{'recirculation':21s}  {stats.throughput_normalized():10.3f}  "
        f"{sequence_errors(switch.packets):19d}"
    )

    print(
        "\nOnly MP5 with preemptive order enforcement stamps every packet"
        "\nwith its arrival rank — the property a network sequencer exists"
        "\nto provide."
    )


if __name__ == "__main__":
    main()
