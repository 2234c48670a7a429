"""The fault calendar: schedule-only queries of :class:`FaultInjector`.

``egress_tick`` answers full stalls by bisecting merged runs and counts
tick by tick only inside slowdown windows; the per-hop loop it replaced
is kept here as the oracle. ``next_free``, ``crossbar_down`` and
``fifo_capacity_steps`` are checked against direct scans of the windows,
and ``stalled_mask`` against ``next_free``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultSchedule
from repro.faults.injector import NEVER, FaultInjector, _stall_services

K = 3


def _oracle_egress_tick(windows, tick, hops):
    """The per-hop loop: every hop rebuilds the list of active windows."""
    t = tick
    while hops:
        t += 1
        active = [e for e in windows if e.start <= t < e.end]
        if not active:
            opens = min(
                (e.start for e in windows if e.start > t), default=NEVER
            )
            if opens - t >= hops:
                return t + hops - 1
            hops -= opens - t
            t = opens - 1
            continue
        full = [e.end for e in active if e.service_rate <= 0.0]
        if full:
            t = max(full) - 1
        elif all(_stall_services(e, t) for e in active):
            hops -= 1
    return t


def _stalled(windows, t):
    return any(
        e.start <= t < e.end and not _stall_services(e, t) for e in windows
    )


_window = st.tuples(
    st.sampled_from(["pipeline_stall", "crossbar_fail", "fifo_shrink"]),
    st.integers(0, 120),
    st.integers(1, 60),
    st.integers(0, K - 1),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75]),
    st.integers(1, 4),
    st.booleans(),
)


def _schedule(draws):
    faults = []
    for kind, start, duration, pipe, rate, cap, targeted in draws:
        if kind == "pipeline_stall":
            faults.append(
                FaultEvent(kind, start, duration, pipe, service_rate=rate)
            )
        elif kind == "crossbar_fail":
            faults.append(FaultEvent(kind, start, duration, pipe))
        else:
            faults.append(
                FaultEvent(
                    kind, start, duration, pipe if targeted else None,
                    stage=1 if targeted else None, capacity=cap,
                )
            )
    return FaultSchedule(faults=faults)


@settings(max_examples=200, deadline=None)
@given(st.lists(_window, max_size=6), st.integers(0, 200), st.integers(0, 20))
def test_egress_tick_matches_per_hop_loop(draws, tick, hops):
    schedule = _schedule(draws)
    injector = FaultInjector(schedule, K)
    for pipe in range(K):
        stalls = [
            e for e in schedule.faults
            if e.kind == "pipeline_stall" and e.pipeline == pipe
        ]
        got = injector.egress_tick(tick, pipe, hops)
        assert got == _oracle_egress_tick(stalls, tick, hops)
        free = injector.next_free(pipe, tick)
        assert not _stalled(stalls, free)
        assert all(_stalled(stalls, t) for t in range(tick, free))


@settings(max_examples=100, deadline=None)
@given(st.lists(_window, max_size=6), st.integers(0, 200))
def test_crossbar_and_capacity_match_window_scans(draws, tick):
    schedule = _schedule(draws)
    injector = FaultInjector(schedule, K)
    for pipe in range(K):
        down = any(
            e.kind == "crossbar_fail" and e.pipeline == pipe
            and e.start <= tick < e.end
            for e in schedule.faults
        )
        assert injector.crossbar_down(pipe, tick) == down
        for stage in (1, 2):
            for base in (None, 3):
                want = base
                for e in schedule.faults:
                    if (
                        e.kind == "fifo_shrink"
                        and e.start <= tick < e.end
                        and e.pipeline in (None, pipe)
                        and e.stage in (None, stage)
                    ):
                        if want is None or e.capacity < want:
                            want = e.capacity
                ticks, caps = injector.fifo_capacity_steps(pipe, stage, base)
                at = max(i for i, t in enumerate(ticks) if t <= tick)
                assert caps[at] == want


_stall = st.tuples(
    st.integers(0, 80),
    st.integers(1, 40),
    st.integers(0, K - 1),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_stall, max_size=8))
def test_stalled_mask_matches_next_free(stalls):
    """Overlapping full stalls and slowdowns, asked on every tick from
    before the first window to after the last, window edges included."""
    schedule = FaultSchedule(
        faults=[
            FaultEvent("pipeline_stall", start, duration, pipe,
                       service_rate=rate)
            for start, duration, pipe, rate in stalls
        ]
    )
    injector = FaultInjector(schedule, K)
    for tick in range(130):
        want = sum(
            1 << pipe
            for pipe in range(K)
            if injector.next_free(pipe, tick) != tick
        )
        assert injector.stalled_mask(tick) == want
