"""Lightweight section timer for the fast-path phases of one tick.

The switch calls :meth:`PhaseProfiler.begin` at the top of ``_step`` and
:meth:`PhaseProfiler.lap` at each phase boundary; each lap accumulates
the wall-clock time since the previous one under the phase's name. When
no profiler is attached the engine skips the calls behind a single
attribute check, so profiling costs nothing disabled.

The vector engine has no per-tick loop to lap, so it reports through
the coarser channels instead: :meth:`record_span` for its Phase A
(timing sweep) / Phase B (service) / trace-reconstruction sections
(the latter described by :meth:`record_sinks`: which sinks were fed,
over how many windows, with how many invariant predicates),
:meth:`record_kernel` for per-stage service timings tagged with the
tier that ran (``scan`` for a scan-shaped stage's prefix sum; ``njit``
or ``python`` for the fused per-row kernel, from ``kernel.jitted``;
``numpy`` for the wave decomposition), and
:meth:`record_epoch` for the epoch boundaries Phase A resolved. All of
them stay empty on the scalar engines, so their ``to_dict()`` output is
unchanged.

``report()`` renders the breakdown the CLI prints under ``--profile``;
for a vector run that is :func:`~repro.obs.summary.render_epoch_section`
of :meth:`PhaseProfiler.to_dict`, the one renderer ``trace-summary``
also uses.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from .summary import render_epoch_section


class PhaseProfiler:
    """Accumulates per-phase wall-clock time across ticks."""

    __slots__ = (
        "totals",
        "ticks",
        "_t0",
        "spans",
        "kernels",
        "epochs",
        "sinks",
    )

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.ticks = 0
        self._t0 = 0.0
        # Vector-engine channels (empty on the scalar engines).
        self.spans: Dict[str, float] = {}
        self.kernels: Dict[str, Dict] = {}
        self.epochs: List[Dict] = []
        self.sinks: Dict = {}

    def begin(self) -> None:
        self._t0 = perf_counter()

    def lap(self, phase: str) -> None:
        now = perf_counter()
        self.totals[phase] = self.totals.get(phase, 0.0) + (now - self._t0)
        self._t0 = now

    def end_tick(self) -> None:
        self.ticks += 1

    # ------------------------------------------------------------------
    # Vector-engine channels
    # ------------------------------------------------------------------

    def record_span(self, name: str, seconds: float) -> None:
        """Accumulate one named coarse section (phase_a/phase_b/...)."""
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def record_kernel(
        self, stage: int, tier: str, seconds: float, chunks: int = 1
    ) -> None:
        """Accumulate one stage's service time under the tier that ran.
        ``chunks`` is the number of epoch chunks the pass covered, so
        ``calls`` counts (epoch, stage) chunks however many epochs one
        Phase B sweep serviced."""
        entry = self.kernels.setdefault(
            f"s{stage}", {"tier": tier, "seconds": 0.0, "calls": 0}
        )
        entry["tier"] = tier
        entry["seconds"] += seconds
        entry["calls"] += chunks

    def record_epoch(
        self, index: int, start: int, end: int, remap_moves: Optional[int] = None
    ) -> None:
        """One Phase A epoch: ``[start, end)`` in ticks; ``remap_moves``
        is the boundary's remap outcome (None for the final span)."""
        entry = {"epoch": index, "start": start, "end": end}
        if remap_moves is not None:
            entry["remap_moves"] = remap_moves
        self.epochs.append(entry)

    def record_sinks(
        self, kinds: List[str], windows: int = 0, predicates: int = 0
    ) -> None:
        """What the ``trace_reconstruct`` span fed: the sink kinds, the
        window boundaries rolled for the registry/monitor, and the
        invariant predicates evaluated over the schedule."""
        self.sinks = {
            "kinds": list(kinds),
            "windows": windows,
            "predicates": predicates,
        }

    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(self.totals.values())

    def to_dict(self) -> Dict:
        out = {
            "ticks": self.ticks,
            "seconds": dict(self.totals),
            "total_seconds": self.total_seconds,
        }
        if self.spans:
            out["spans"] = dict(self.spans)
        if self.kernels:
            out["kernels"] = {k: dict(v) for k, v in self.kernels.items()}
        if self.epochs:
            out["epochs"] = [dict(e) for e in self.epochs]
        if self.sinks:
            out["sinks"] = dict(self.sinks)
        return out

    def report(self) -> str:
        """Phase breakdown table, heaviest phase first; a vector run
        (spans, no laps) renders the section ``trace-summary`` prints
        for its saved :meth:`to_dict`."""
        if self.spans and not self.ticks:
            return render_epoch_section(self.to_dict())
        total = self.total_seconds or 1.0
        ticks = self.ticks or 1
        headers = ("phase", "seconds", "share", "us/tick")
        rows = [
            (
                phase,
                f"{seconds:.4f}",
                f"{100 * seconds / total:5.1f}%",
                f"{1e6 * seconds / ticks:8.2f}",
            )
            for phase, seconds in sorted(
                self.totals.items(), key=lambda kv: kv[1], reverse=True
            )
        ]
        rows.append(
            (
                "total",
                f"{self.total_seconds:.4f}",
                "100.0%",
                f"{1e6 * self.total_seconds / ticks:8.2f}",
            )
        )
        widths = [
            max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(headers))
        ]

        def line(cells) -> str:
            return "  ".join(c.rjust(widths[i]) for i, c in enumerate(cells))

        out: List[str] = [
            f"Fast-path phase breakdown over {self.ticks} ticks",
            line(headers),
            line(["-" * w for w in widths]),
        ]
        out.extend(line(row) for row in rows)
        return "\n".join(out)
