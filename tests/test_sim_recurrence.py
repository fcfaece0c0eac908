"""The per-unit simulator recurrence against the event loop it replaced.

``reference_simulate_pass`` is the earlier ``fusion._simulate_pass``: each
step rescans every layer for its next unit and starts the earliest one.
The recurrence in ``fusion`` must give the same schedule, buffer history
and peak occupancy on any plan list, and deadlock exactly when it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from turf.errors import SimDeadlock
from turf.fusion import SimEvent, _LayerPlan, _simulate_pass


@dataclass
class RefBufferState:
    tokens: int
    cap: int
    ready: list
    freed: list
    reserved: list

    def peak(self) -> int:
        times = []
        for r, f in zip(self.reserved, self.freed):
            if r is not None:
                times.append((r, 1))
                times.append((f if f is not None else float("inf"), -1))
        times.sort(key=lambda t: (t[0], -t[1]))
        cur = peak = 0
        for _, d in times:
            cur += d
            peak = max(peak, cur)
        return peak


def reference_simulate_pass(plans: list[_LayerPlan], caps: list[tuple[int, int, int]],
                   collect_events: bool) -> tuple[int, list, list, list]:
    """One tile pass by a global earliest-candidate event loop.  Returns
    (makespan, starts, finishes, (buffer states, events))."""
    n = len(plans)
    bufs = [RefBufferState(t, c, [None] * t, [None] * t, [None] * t)
            for (t, c, _) in caps]
    next_unit = [0] * n
    engine_free = [0] * n
    starts = [[None] * p.units for p in plans]
    finishes = [[None] * p.units for p in plans]
    events: list[SimEvent] = []
    remaining = sum(p.units for p in plans)

    while remaining:
        best = None
        for i, plan in enumerate(plans):
            u = next_unit[i]
            if u >= plan.units:
                continue
            t = engine_free[i]
            ok = True
            if i > 0:
                b = bufs[i - 1]
                if plan.consumer_stream:
                    if b.ready[u] is None:
                        ok = False
                    else:
                        t = max(t, b.ready[u])
                else:
                    if any(r is None for r in b.ready):
                        ok = False
                    else:
                        t = max(t, max(b.ready))
            if ok and i < n - 1:
                b = bufs[i]
                if plan.producer_stream:
                    if u >= b.cap:
                        if b.freed[u - b.cap] is None:
                            ok = False
                        else:
                            t = max(t, b.freed[u - b.cap])
                # channel-major producers reserve the whole tile region at
                # unit 0; capacity >= tokens was validated, so no wait.
            if ok and (best is None or (t, i) < best):
                best = (t, i)
        if best is None:
            raise SimDeadlock(
                f"no schedulable unit with {remaining} units remaining",
                trace=events)

        t, i = best
        plan = plans[i]
        u = next_unit[i]
        finish = t + plan.cycles_per_unit
        starts[i][u] = t
        finishes[i][u] = finish
        engine_free[i] = finish
        next_unit[i] += 1
        remaining -= 1
        if collect_events:
            events.append(SimEvent(t, i, u, "start"))
            events.append(SimEvent(finish, i, u, "finish"))

        if i > 0:
            b = bufs[i - 1]
            if plan.consumer_stream:
                b.freed[u] = finish
            elif u == plan.units - 1:
                for k in range(b.tokens):
                    b.freed[k] = finish
        if i < n - 1:
            b = bufs[i]
            release = finish + plan.fill
            if plan.producer_stream:
                b.reserved[u] = t
                b.ready[u] = release
                if collect_events:
                    events.append(SimEvent(release, i, u, "release"))
            else:
                if u == 0:
                    for k in range(b.tokens):
                        b.reserved[k] = t
                if u == plan.units - 1:
                    for k in range(b.tokens):
                        b.ready[k] = release
                    if collect_events:
                        events.append(SimEvent(release, i, u, "release"))

    # intermediate fills already propagated through token release times;
    # the last layer's own fill extends the makespan
    makespan = max(max(f[-1] for f in finishes),
                   finishes[n - 1][-1] + plans[n - 1].fill)
    return makespan, starts, finishes, (bufs, events)


def _plan(units, cycles, fill, producer_stream, consumer_stream):
    # the simulator reads only the unit counts, cycles, fill and stream flags
    return _LayerPlan(layer=None, hw=None, units=units, cycles_per_unit=cycles,
                      fill=fill, producer_stream=producer_stream,
                      consumer_stream=consumer_stream)


@st.composite
def plan_lists(draw):
    """1-4 layers of 1-16 units.  As ``_buffer_tokens`` derives them, a
    buffer holds one token per unit of a streaming producer and of a
    streaming consumer; other token counts and all capacities are free."""
    n = draw(st.integers(1, 4))
    plans, caps = [], []
    for i in range(n):
        producer_stream = draw(st.booleans())
        consumer_stream = draw(st.booleans())
        if i > 0 and consumer_stream:
            units = caps[-1][0]
        else:
            units = draw(st.integers(1, 16))
        plans.append(_plan(units, draw(st.integers(1, 40)), draw(st.integers(0, 12)),
                           producer_stream, consumer_stream))
        if i < n - 1:
            tokens = units if producer_stream else draw(st.integers(1, 16))
            caps.append((tokens, draw(st.integers(1, tokens + 2)), 0))
    return plans, caps


def _run(simulate, plans, caps):
    try:
        return simulate(plans, caps, True)
    except SimDeadlock:
        return SimDeadlock


def _assert_same(plans, caps):
    got = _run(_simulate_pass, plans, caps)
    want = _run(reference_simulate_pass, plans, caps)
    if want is SimDeadlock or got is SimDeadlock:
        assert got is want
        return
    makespan, starts, finishes, (bufs, events) = got
    ref_makespan, ref_starts, ref_finishes, (ref_bufs, ref_events) = want
    assert makespan == ref_makespan
    assert starts == ref_starts
    assert finishes == ref_finishes
    for b, ref in zip(bufs, ref_bufs, strict=True):
        assert (b.ready, b.freed, b.reserved) == (ref.ready, ref.freed, ref.reserved)
        assert b.peak() == ref.peak()

    def by_time(evs):
        return sorted(evs, key=lambda e: (e.time, e.layer, e.unit))

    assert by_time(events) == by_time(ref_events)


@settings(max_examples=400, deadline=None)
@given(plan_lists())
def test_recurrence_matches_event_loop(case):
    _assert_same(*case)


@pytest.mark.parametrize("seqs", [
    # streaming producer, capacity 1, filter-major consumer of 2 tokens:
    # the producer's second unit waits for a slot the consumer frees only
    # after reading both tokens
    ((True, False), (False, False)),
    # the same consumer fed by a streaming producer that is itself a
    # streaming consumer further down a 3-layer chain
    ((True, True), (True, True), (False, False)),
])
def test_deadlock_raised_by_both(seqs):
    plans = [_plan(2, 5, 1, p, c) for p, c in seqs]
    caps = [(2, 1, 0)] * (len(plans) - 1)
    with pytest.raises(SimDeadlock):
        _simulate_pass(plans, caps, False)
    with pytest.raises(SimDeadlock):
        reference_simulate_pass(plans, caps, False)


def test_peak_counts_reservation_before_free_at_same_time():
    # with one slot, token 1 is reserved the instant token 0 is freed;
    # the reservation counts first, so both are held at that time
    plans = [_plan(2, 5, 0, True, False), _plan(2, 5, 0, True, True)]
    _, _, _, (bufs, _) = _simulate_pass(plans, [(2, 1, 0)], False)
    assert bufs[0].reserved == [0, 10] and bufs[0].freed == [10, 20]
    assert bufs[0].peak() == 2
    _assert_same(plans, [(2, 1, 0)])
