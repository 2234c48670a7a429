"""Metrics registry: counters, gauges, and windowed histograms.

The registry turns the engine's end-of-run scalars into *per-window time
series*: every ``window`` ticks it closes a window and appends one point
per instrument, so a run yields queue-depth, throughput and remap-rate
curves instead of a single number.

Three instrument kinds plus one pull-based source:

* :class:`Counter` — monotonically increasing; the series records the
  per-window **delta** (a rate).
* :class:`Gauge` — a level; the series records the value at the window
  boundary.
* :class:`WindowedHistogram` — observations within the window summarized
  as count/min/max/mean/p50/p99 per window, with a running total.
* **samplers** (:meth:`MetricsRegistry.add_sampler`) — zero-hot-path-cost
  publishing: the registry *polls* a callable at each window boundary.
  This is how the switch, FIFOs, sharder and crossbar publish — their
  existing cumulative counters are read once per window instead of
  being incremented through an extra layer per packet.

**Retention.** A long-lived daemon cannot let the per-window series grow
without bound. ``MetricsRegistry(retention=N)`` caps every series at
``N`` rows: whenever a series exceeds the cap it is thinned by keeping
every 2nd retained row (so after repeated thinning the surviving rows
are every 4th, 8th, ... window — progressively coarser history), and
the **newest row is always kept**. Thinning is a pure function of the
roll-tick sequence, so two identical runs retain identical rows.
Totals are unaffected — they read the live instruments, not the series.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

PathLike = Union[str, Path]

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"


def _bisect_rows(rows: List, tick: int, key: Callable) -> int:
    """First index whose key is > ``tick`` (rows sorted ascending)."""
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(rows[mid]) <= tick:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _thin(rows: List) -> None:
    """Halve ``rows`` in place, always keeping the newest row.

    The start offset anchors the stride on the last element, so the
    newest window survives every thinning pass and the survivors are a
    deterministic function of the row count alone.
    """
    rows[:] = rows[(len(rows) - 1) % 2 :: 2]


def summary(n: int, pick: Callable[[int], float], total: float) -> Dict:
    """The histogram row of a window of ``n > 0`` values whose ``i``-th
    smallest is ``pick(i)`` and whose sum is ``total``: count, min, max,
    mean and the nearest-rank p50/p99."""
    p50, p99 = (min(n - 1, round(q / 100 * (n - 1))) for q in (50, 99))
    return {"count": n, "min": pick(0), "max": pick(n - 1),
            "mean": total / n, "p50": pick(p50), "p99": pick(p99)}


def window_rows(values: List, cuts: List[int]) -> List[Optional[Dict]]:
    """One :func:`summary` per window ``values[cuts[i]:cuts[i + 1]]`` of
    Python numbers in observation order, or None for an empty window.
    Each window is sorted here by a stable sort, so ``mean`` is the
    builtin ``sum`` in sorted order."""
    windows = (sorted(values[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))
    return [
        summary(len(w), w.__getitem__, sum(w)) if w else None for w in windows
    ]


class Counter:
    """Monotonic counter; the registry series records per-window deltas."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A level sampled at window boundaries."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class WindowedHistogram:
    """Collects observations, summarized per window by the registry."""

    __slots__ = ("name", "window_values", "total_count", "total_sum")

    def __init__(self, name: str):
        self.name = name
        self.window_values: List[float] = []
        self.total_count = 0
        self.total_sum = 0.0

    def observe(self, value: float) -> None:
        self.window_values.append(value)
        self.total_count += 1
        self.total_sum += value

    def flush(self) -> Optional[Dict[str, float]]:
        """Summarize and clear the current window; None when empty."""
        values = self.window_values
        if not values:
            return None
        self.window_values = []
        return window_rows(values, [0, len(values)])[0]

    @property
    def mean(self) -> float:
        return self.total_sum / self.total_count if self.total_count else 0.0


class MetricsRegistry:
    """Registry of named instruments with per-window series.

    The simulation engine calls :meth:`maybe_roll` once per tick (one
    attribute check when disabled — the registry is only consulted when
    attached; the vector engine, which steps no ticks, hands over a
    whole run's windows in one :meth:`append_windows`); callers read
    :attr:`series` / :attr:`histogram_series` afterwards or export
    everything with :meth:`to_dict`.

    ``retention`` (optional) caps the rows kept per series — see the
    module docstring for the deterministic thinning rule.
    """

    def __init__(self, window: int = 100, retention: Optional[int] = None):
        if window < 1:
            raise ValueError("metrics window must be >= 1")
        if retention is not None and retention < 2:
            raise ValueError("metrics retention must be >= 2 rows")
        self.window = window
        self.retention = retention
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, WindowedHistogram] = {}
        # name -> (fn, cumulative, last sample)
        self._samplers: Dict[str, List] = {}
        self.series: Dict[str, List[List[float]]] = {}
        self.histogram_series: Dict[str, List[Dict]] = {}
        self._counter_last: Dict[str, int] = {}
        self._last_roll = -1
        self._next_roll = window

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> WindowedHistogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = WindowedHistogram(name)
        return inst

    def add_sampler(
        self, name: str, fn: Callable[[], float], cumulative: bool = False
    ) -> None:
        """Register a pull-based source polled at each window boundary.

        ``cumulative`` sources report a monotonically increasing total
        (e.g. ``stats.egressed``); the series then records the
        per-window delta. Non-cumulative sources record the raw sample
        (a gauge read, e.g. current queue depth).
        """
        self._samplers[name] = [fn, cumulative, fn() if cumulative else None]

    def kinds(self) -> Dict[str, str]:
        """Instrument kind per series name (``counter`` sources record
        per-window deltas of a monotonic total, ``gauge`` sources a
        level). Histograms are implied by :attr:`histogram_series`."""
        out: Dict[str, str] = {}
        for name in self.counters:
            out[name] = KIND_COUNTER
        for name in self.gauges:
            out[name] = KIND_GAUGE
        for name, entry in self._samplers.items():
            out[name] = KIND_COUNTER if entry[1] else KIND_GAUGE
        return out

    # ------------------------------------------------------------------
    # Window rolling
    # ------------------------------------------------------------------

    def maybe_roll(self, tick: int) -> None:
        if tick >= self._next_roll:
            self.roll(tick)

    def roll(self, tick: int) -> None:
        """Close the window ending at ``tick`` (idempotent per tick)."""
        if tick > self._last_roll:
            self.append_windows([tick])

    def append_windows(
        self,
        ticks: List[int],
        samples: Optional[Dict[str, List]] = None,
        summaries: Optional[Dict[str, List[Optional[Dict]]]] = None,
    ) -> None:
        """Close one window per tick of ``ticks`` (ascending, all past
        the last roll), appending each series' rows as one block.

        ``samples[name]`` is a sampler's reading at every tick and
        ``summaries[name]`` a histogram's row for every window (None:
        empty, no row). A sampler not named is polled once and a
        histogram not named flushed into the first window — nothing
        moves either between the windows of one block — so
        :meth:`roll` is the one-window case. Retention thins after
        every appended row, as if the windows had rolled one by one.
        """
        samples, summaries, n = samples or {}, summaries or {}, len(ticks)
        blocks = []
        for name, inst in self.counters.items():
            delta = inst.value - self._counter_last.get(name, 0)
            self._counter_last[name] = inst.value
            blocks.append((name, [delta] + [0] * (n - 1)))
        for name, inst in self.gauges.items():
            blocks.append((name, [inst.value] * n))
        for name, entry in self._samplers.items():
            fn, cumulative, last = entry
            values = samples.get(name) or [fn()] * n
            if cumulative:
                entry[2] = values[-1]
                values = [b - a for a, b in zip([last] + values, values)]
            blocks.append((name, values))
        for name, values in blocks:
            rows = [[tick, value] for tick, value in zip(ticks, values)]
            self._extend(self.series, name, rows)
        hists = {
            name: summaries.get(name) or [hist.flush()] + [None] * (n - 1)
            for name, hist in self.histograms.items()
        }
        # A histogram's series starts at its first non-empty window (ties
        # in registration order: the sort is stable), as if the windows
        # rolled one by one.
        first = {name: next((i for i, s in enumerate(rows) if s), n)
                 for name, rows in hists.items()}
        for name in sorted(hists, key=first.get):
            self._extend(self.histogram_series, name, [
                dict(s, tick=t) for s, t in zip(hists[name], ticks) if s
            ])
        self._last_roll = ticks[-1]
        self._next_roll = (ticks[-1] // self.window + 1) * self.window

    def _extend(self, table: Dict, name: str, rows: List) -> None:
        """Append ``rows`` to series ``name``, thinning after each."""
        if rows:
            series = table.setdefault(name, [])
            for row in rows:
                series.append(row)
                if self.retention is not None and len(series) > self.retention:
                    _thin(series)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, inst in self.counters.items():
            out[name] = inst.value
        for name, inst in self.gauges.items():
            out[name] = inst.value
        for name, entry in self._samplers.items():
            fn, cumulative, _last = entry
            out[name] = fn()
        for name, hist in self.histograms.items():
            out[f"{name}_count"] = hist.total_count
            out[f"{name}_mean"] = hist.mean
        return out

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "series": self.series,
            "histograms": self.histogram_series,
            "totals": self.totals(),
            "kinds": self.kinds(),
        }

    def since(self, tick: int = -1) -> Dict:
        """Streaming view: only the window rows rolled after ``tick``.

        The returned ``cursor`` is the last rolled tick; feeding it back
        as ``tick`` on the next call yields exactly the rows that rolled
        in between, so a poller never re-downloads the full series. Used
        by the service's ``/metrics?since=`` endpoint and SSE push.

        Every series is sorted by tick, so the cut point is found by
        binary search — O(log n) per series instead of a full rescan of
        the history on every poll.
        """
        return {
            "window": self.window,
            "cursor": self._last_roll,
            "series": {
                name: rows[_bisect_rows(rows, tick, lambda r: r[0]) :]
                for name, rows in self.series.items()
            },
            "histograms": {
                name: rows[_bisect_rows(rows, tick, lambda r: r["tick"]) :]
                for name, rows in self.histogram_series.items()
            },
            "totals": self.totals(),
        }

    def rows_retained(self) -> int:
        """Total rows currently held across all series (memory gauge)."""
        return sum(len(rows) for rows in self.series.values()) + sum(
            len(rows) for rows in self.histogram_series.values()
        )

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))
