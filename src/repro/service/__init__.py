"""Long-lived switch service: daemon, HTTP control plane, client.

Turns the batch reproduction into a system that faces sustained
traffic: a persistent MP5 switch (:class:`SwitchService`,
:mod:`repro.service.daemon`) ingests packet batches through a bounded
queue and is reconfigured at runtime — hot program swaps, fault
schedules, monitor toggles, remap retunes — over a stdlib-only
HTTP/JSON control plane (:mod:`repro.service.http`). The blocking
:class:`~repro.service.client.ServiceClient` drives it from scripts and
tests; the ``serve`` CLI subcommand runs it in the foreground. What the
bytes of an ingest body mean — three wire formats, encode and decode —
lives in one codec both ends import (:mod:`repro.service.wire`).

The central guarantee is *served determinism*: every completed segment
(one program on one engine between reconfigurations) produces results
byte-identical to an offline ``run`` over the same packets, no matter
how the arrivals were batched or when control requests interleaved.
See ``docs/service.md`` for the API reference and the hot-swap
lifecycle.
"""

from ..errors import ServiceError
from .daemon import ServiceThread, SwitchService, render_payload, segment_payload
from .wire import columns_from_records, packet_from_json

__all__ = [
    "ServiceError",
    "ServiceThread",
    "SwitchService",
    "columns_from_records",
    "packet_from_json",
    "render_payload",
    "segment_payload",
]
