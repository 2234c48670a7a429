"""Configuration for the MP5 switch simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


@dataclass
class MP5Config:
    """Parameters of a simulated MP5 switch.

    Time model: one tick is one pipeline clock at the *per-pipeline*
    packet rate — each of the ``num_pipelines`` pipelines starts at most
    one packet per tick, so the aggregate capacity is ``num_pipelines``
    packets/tick, equal to the line rate for minimum-size packets.

    Defaults mirror §4.3.1: a 64-port switch, 16 pipeline stages, four
    pipelines, remap every 100 clock cycles.
    """

    num_pipelines: int = 4
    num_ports: int = 64
    pipeline_depth: int = 16  # physical stages, >= program stage count
    fifo_capacity: Optional[int] = None  # per ring buffer; None = adaptive/unbounded
    remap_period: int = 100
    remap_algorithm: str = "heuristic"  # heuristic | optimal | none
    initial_shard: str = "roundrobin"  # roundrobin | random
    # Packet spray across pipeline fronts: "roundrobin" is the paper's
    # uniform spray (D1); "affinity" is an extension that enters each
    # packet at the pipeline of its *first* planned state access,
    # trimming crossbar traffic (the ingress already computes the
    # resolution logic, so the information is available pre-demux).
    spray_policy: str = "roundrobin"
    enable_phantoms: bool = True  # D4 on/off (off = ablation)
    ideal_queues: bool = False  # per-index queues (ideal baseline)
    phantom_latency: int = 0  # ticks from generation to FIFO delivery
    ecn_threshold: Optional[int] = None  # mark packets once a queue hits this
    flow_order_field: Optional[str] = None  # header used for the dummy
    flow_order_size: int = 1024  # ...final-stage ordering state (§3.4)
    seed: int = 0

    def __post_init__(self):
        if self.num_pipelines < 1:
            raise ConfigError("num_pipelines must be >= 1")
        if self.num_ports < 1:
            raise ConfigError("num_ports must be >= 1")
        if self.pipeline_depth < 2:
            raise ConfigError("pipeline_depth must be >= 2")
        if self.remap_period < 1:
            raise ConfigError("remap_period must be >= 1")
        if self.remap_algorithm not in ("heuristic", "optimal", "none"):
            raise ConfigError(f"unknown remap_algorithm {self.remap_algorithm!r}")
        if self.initial_shard not in ("roundrobin", "random"):
            raise ConfigError(f"unknown initial_shard {self.initial_shard!r}")
        if self.spray_policy not in ("roundrobin", "affinity"):
            raise ConfigError(f"unknown spray_policy {self.spray_policy!r}")
        if self.phantom_latency < 0:
            raise ConfigError("phantom_latency must be >= 0")
        if self.fifo_capacity is not None and self.fifo_capacity < 1:
            raise ConfigError("fifo_capacity must be positive or None")
        if self.flow_order_size < 1:
            raise ConfigError("flow_order_size must be >= 1")
        if self.ecn_threshold is not None and self.ecn_threshold < 1:
            raise ConfigError("ecn_threshold must be positive or None")

    @classmethod
    def ideal(cls, **kwargs) -> "MP5Config":
        """The ideal-MP5 baseline of §4.3.3: no head-of-line blocking and
        optimal (LPT) repacking."""
        kwargs.setdefault("ideal_queues", True)
        kwargs.setdefault("remap_algorithm", "optimal")
        return cls(**kwargs)
