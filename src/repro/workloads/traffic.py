"""Traffic generation: line-rate packet traces for the simulators.

Time base: one tick is one MP5 pipeline clock, and a k-pipeline switch
serves at most k packets per tick. Minimum-size (64 B) packets arriving
at line rate therefore arrive k per tick; a packet of ``size`` bytes
contributes an inter-arrival gap of ``size / (64 * k)`` ticks. The paper
"ensures input packets always arrive at line rate" for the sensitivity
study and uses realistic size/flow distributions for the application
study — both are generators here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import ConfigError
from ..mp5.packet import DataPacket
from .distributions import BimodalPacketSizes, EmpiricalCDF, web_search_flow_sizes

HeaderGen = Callable[[np.random.Generator, int], Dict[str, int]]

MIN_PACKET_BYTES = 64


def check_trace_args(num_packets: int, utilization: float = 1.0) -> None:
    """The packet count and load every trace generator refuses."""
    if num_packets < 1:
        raise ConfigError("num_packets must be >= 1")
    if not 0.0 < utilization <= 1.0:
        raise ConfigError("utilization must be in (0, 1]")


def line_rate_trace(
    num_packets: int,
    num_pipelines: int,
    header_gen: HeaderGen,
    packet_size: int = MIN_PACKET_BYTES,
    num_ports: int = 64,
    seed: int = 0,
    utilization: float = 1.0,
) -> List[DataPacket]:
    """Fixed-size packets arriving at ``utilization`` of line rate.

    At 64 B and utilization 1.0 the aggregate arrival rate equals the
    switch's peak service rate (``num_pipelines`` packets/tick) — the
    worst case §4.3.1 stresses.
    """
    check_trace_args(num_packets, utilization)
    if packet_size < MIN_PACKET_BYTES:
        raise ConfigError(f"packet_size must be >= {MIN_PACKET_BYTES}")
    rng = np.random.default_rng(seed)
    gap = packet_size / (MIN_PACKET_BYTES * num_pipelines * utilization)
    gaps = np.full(num_packets, gap)
    gaps[0] = 0.0
    # cumsum adds left to right: the float additions of ``now += gap``.
    arrivals = np.cumsum(gaps).tolist()
    return [
        DataPacket(i, arrival, i % num_ports, header_gen(rng, i), packet_size)
        for i, arrival in enumerate(arrivals)
    ]


def random_headers(program) -> HeaderGen:
    """Generic header generator for a compiled program: every packet
    field uniform over a small range. Good enough for smoke runs (the
    CLI's ``run``/``equiv``, the daemon's ``POST /replay``); real
    experiments use the workload generators of this package."""
    fields = list(program.packet_fields)

    def gen(rng: np.random.Generator, _i: int):
        return {f: int(rng.integers(0, 256)) for f in fields}

    return gen


def variable_size_trace(
    num_packets: int,
    num_pipelines: int,
    header_gen: HeaderGen,
    sizes: Optional[BimodalPacketSizes] = None,
    num_ports: int = 64,
    seed: int = 0,
    utilization: float = 1.0,
) -> List[DataPacket]:
    """Line-rate trace with per-packet sizes from a bimodal distribution."""
    check_trace_args(num_packets, utilization)
    rng = np.random.default_rng(seed)
    sizes = sizes or BimodalPacketSizes()
    rate = MIN_PACKET_BYTES * num_pipelines * utilization
    packets = []
    now = 0.0
    for i in range(num_packets):
        size = sizes.sample(rng)
        packets.append(DataPacket(i, now, i % num_ports, header_gen(rng, i), size))
        now += size / rate
    return packets


# ----------------------------------------------------------------------
# Flow-structured traffic (web-search workload, §4.4)
# ----------------------------------------------------------------------


@dataclass
class Flow:
    """A five-tuple flow with a byte budget drawn from the flow-size CDF."""

    flow_id: int
    sport: int
    dport: int
    remaining_bytes: int
    sent_packets: int = 0


@dataclass
class FlowWorkload:
    """Interleaves packets of concurrently active heavy-tailed flows.

    Models the §4.4 setup: flow sizes from the web-search CDF, packet
    sizes bimodal, a bounded number of concurrently active flows (one
    per port by default). Every generated packet carries ``sport`` /
    ``dport`` fields; callers layer application-specific fields on top
    via ``extra_fields``.
    """

    num_pipelines: int
    num_ports: int = 64
    active_flows: int = 64
    sizes: BimodalPacketSizes = field(default_factory=BimodalPacketSizes)
    flow_cdf: EmpiricalCDF = field(default_factory=web_search_flow_sizes)
    seed: int = 0
    utilization: float = 1.0
    extra_fields: Optional[Callable[[np.random.Generator, DataPacket], Dict[str, int]]] = None

    def generate(self, num_packets: int) -> List[DataPacket]:
        """Produce ``num_packets`` flow-structured packets."""
        check_trace_args(num_packets, self.utilization)
        rng = np.random.default_rng(self.seed)
        flows: List[Flow] = []
        next_flow_id = 0

        def new_flow() -> Flow:
            nonlocal next_flow_id
            flow = Flow(
                flow_id=next_flow_id,
                sport=int(rng.integers(1024, 65536)),
                dport=int(rng.integers(1, 1024)),
                remaining_bytes=max(
                    MIN_PACKET_BYTES, int(self.flow_cdf.sample(rng))
                ),
            )
            next_flow_id += 1
            return flow

        while len(flows) < self.active_flows:
            flows.append(new_flow())

        packets: List[DataPacket] = []
        rate = MIN_PACKET_BYTES * self.num_pipelines * self.utilization
        now = 0.0
        for i in range(num_packets):
            slot = int(rng.integers(0, len(flows)))
            flow = flows[slot]
            size = min(self.sizes.sample(rng), max(flow.remaining_bytes, MIN_PACKET_BYTES))
            size = max(size, MIN_PACKET_BYTES)
            headers = {"sport": flow.sport, "dport": flow.dport}
            pkt = DataPacket(
                i, now, flow.flow_id % self.num_ports, headers, size, flow.flow_id
            )
            if self.extra_fields is not None:
                headers.update(self.extra_fields(rng, pkt))
            packets.append(pkt)
            now += size / rate
            flow.remaining_bytes -= size
            flow.sent_packets += 1
            if flow.remaining_bytes <= 0:
                flows[slot] = new_flow()
        return packets


def reference_trace(packets: List[DataPacket], num_pipelines: int):
    """Convert an MP5 trace to the single-pipeline reference time base.

    The logical single pipeline runs at k times the per-pipeline clock,
    so its cycle count for the same wall-clock interval is k times the
    MP5 tick count.
    """
    return [
        (pkt.arrival * num_pipelines, pkt.port, dict(pkt.headers))
        for pkt in packets
    ]


def clone_packets(packets: List[DataPacket]) -> List[DataPacket]:
    """A copy of a trace's packets (trace facts only, no run state). No
    engine writes its trace, so this is for callers that edit one."""
    return [
        DataPacket(p.pkt_id, p.arrival, p.port, dict(p.headers), p.size_bytes, p.flow_id)
        for p in packets
    ]
