"""Workload generation: distributions, traffic traces, synthetic programs.

Everything the evaluation (§4.3) feeds the switches: line-rate and
reference traces (the single pipeline runs at k× the MP5 clock, so its
trace times are scaled), web-search flow sizes and bimodal datacenter
packet sizes, uniform/skewed state-access patterns, and the
parameterized synthetic programs behind the Figure 7 sensitivity
sweeps.
"""

from .distributions import (
    WEB_SEARCH_CDF,
    BimodalPacketSizes,
    EmpiricalCDF,
    SkewedAccess,
    UniformAccess,
    web_search_flow_sizes,
    zipf_access,
)
from .synthetic import (
    make_access_pattern,
    make_sensitivity_program,
    sensitivity_trace,
    synthetic_source,
)
from .traceio import (
    load_stats,
    load_trace,
    packet_from_dict,
    packet_to_dict,
    save_stats,
    save_trace,
    stats_to_dict,
)
from .traffic import (
    MIN_PACKET_BYTES,
    Flow,
    FlowWorkload,
    clone_packets,
    line_rate_trace,
    random_headers,
    reference_trace,
    variable_size_trace,
)

__all__ = [
    "BimodalPacketSizes",
    "EmpiricalCDF",
    "Flow",
    "FlowWorkload",
    "MIN_PACKET_BYTES",
    "SkewedAccess",
    "UniformAccess",
    "WEB_SEARCH_CDF",
    "clone_packets",
    "line_rate_trace",
    "load_stats",
    "load_trace",
    "packet_from_dict",
    "packet_to_dict",
    "make_access_pattern",
    "make_sensitivity_program",
    "random_headers",
    "reference_trace",
    "save_stats",
    "save_trace",
    "sensitivity_trace",
    "stats_to_dict",
    "synthetic_source",
    "variable_size_trace",
    "web_search_flow_sizes",
    "zipf_access",
]
