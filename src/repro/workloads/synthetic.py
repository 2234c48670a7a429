"""Synthetic programs and traces for the sensitivity analysis (§4.3).

The paper's sensitivity simulator uses a parameterized configuration: a
64-port, 16-stage switch with m stateful stages, each holding one
register array of a given size, every packet accessing one index per
stateful stage. We express that configuration as a *generated Domino
program* so the sensitivity experiments exercise the same compiler and
runtime paths as the real applications:

    struct Packet { int idx0; ... int idxm; };
    int reg0[N] = {0}; ...
    void func(struct Packet p) {
        reg0[p.idx0] = reg0[p.idx0] + 1;
        ...
    }

Index header fields are filled by the workload from a uniform or skewed
(95% of packets -> 30% of states) access pattern.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..compiler import BanzaiTarget, CompiledProgram, compile_program
from ..errors import ConfigError
from ..mp5.packet import DataPacket
from .distributions import SkewedAccess, UniformAccess
from .traffic import check_trace_args, line_rate_trace


def synthetic_source(num_stateful: int, register_size: int) -> str:
    """Domino source text of the m-stage counter program."""
    if num_stateful < 0:
        raise ConfigError("num_stateful must be >= 0")
    if register_size < 1:
        raise ConfigError("register_size must be >= 1")
    fields = [f"    int idx{i};" for i in range(max(num_stateful, 1))]
    fields.append("    int out;")
    regs = [
        f"int reg{i}[{register_size}] = {{0}};" for i in range(num_stateful)
    ]
    body = [
        f"    reg{i}[p.idx{i}] = reg{i}[p.idx{i}] + 1;" for i in range(num_stateful)
    ]
    if not body:
        body = ["    p.out = p.idx0 + 1;"]
    return (
        "struct Packet {\n"
        + "\n".join(fields)
        + "\n};\n\n"
        + "\n".join(regs)
        + ("\n\n" if regs else "")
        + "void func(struct Packet p) {\n"
        + "\n".join(body)
        + "\n}\n"
    )


def make_sensitivity_program(
    num_stateful: int = 4,
    register_size: int = 512,
    num_stages: int = 16,
) -> CompiledProgram:
    """Compile the synthetic program onto an ``num_stages``-stage target."""
    target = BanzaiTarget(num_stages=num_stages, name=f"sensitivity-{num_stages}")
    return compile_program(
        synthetic_source(num_stateful, register_size),
        target=target,
        name=f"synthetic_m{num_stateful}_r{register_size}",
    )


def make_access_pattern(kind: str, register_size: int):
    """'uniform' or 'skewed' index generator (§4.3.1)."""
    if kind == "uniform":
        return UniformAccess(register_size)
    if kind == "skewed":
        return SkewedAccess(register_size)
    raise ConfigError(f"unknown access pattern {kind!r}")


def sensitivity_trace(
    num_packets: int,
    num_pipelines: int,
    num_stateful: int,
    register_size: int,
    pattern: str = "uniform",
    packet_size: int = 64,
    seed: int = 0,
    num_ports: int = 64,
) -> List[DataPacket]:
    """A line-rate trace whose headers carry per-stage register indexes,
    all drawn in one sampler call: packet by packet, field by field."""
    check_trace_args(num_packets)
    sampler = make_access_pattern(pattern, register_size)
    names = [f"idx{j}" for j in range(max(num_stateful, 1))]
    rng = np.random.default_rng(seed)
    block = sampler.sample_many(rng, num_packets * len(names))
    rows = block.reshape(num_packets, len(names)).tolist()
    return line_rate_trace(
        num_packets,
        num_pipelines,
        lambda _rng, i: dict(zip(names, rows[i])),
        packet_size=packet_size,
        num_ports=num_ports,
        seed=seed,
    )
