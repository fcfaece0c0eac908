"""The per-unit simulator recurrence against the event loop it replaced.

``reference_simulate_pass`` is the earlier ``fusion._simulate_pass``: each
step rescans every layer for its next unit and starts the earliest one.
The recurrence in ``fusion`` must give the same schedule, buffer history
and peak occupancy on any plan list, and deadlock exactly when it does.
``reference_pass_bound`` is the earlier one-schedule bound walk, which
``fusion._pass_bounds`` must give for each schedule of a product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from turf.errors import SimDeadlock
from turf.fusion import LayerSchedule, _pass_bounds, _pass_lower_bound, _simulate_pass
from turf.inspection import SimEvent, peak_tokens


def _pass_bound(plans, caps):
    """``_pass_bounds`` of the one schedule ``plans``."""
    return _pass_bounds(list(zip(plans)), caps)[0]


def reference_pass_bound(plans, caps):
    """The earlier ``fusion._pass_bound``: the bound walked once per schedule."""
    start, finish = 0, plans[0].units * plans[0].cycles_per_unit
    for prev, plan, (tokens, cap, _) in zip(plans, plans[1:], caps):
        busy = plan.units * plan.cycles_per_unit
        if prev.producer_stream and plan.consumer_stream:
            if cap < tokens:
                laps, rest = divmod(prev.units - 1, cap)
                finish = max(finish, start + (rest + 1) * prev.cycles_per_unit + laps * (
                    prev.cycles_per_unit + prev.fill + plan.cycles_per_unit))
            start += prev.cycles_per_unit + prev.fill
            finish = max(start + busy, finish + prev.fill + plan.cycles_per_unit)
        else:
            start = finish + prev.fill
            finish = start + busy
    return finish + plans[-1].fill


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


def reference_simulate_pass(plans: list[LayerSchedule], caps: list[tuple[int, int, int]],
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
            raise SimDeadlock(f"no schedulable unit with {remaining} units remaining")

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


@st.composite
def plan_lists(draw):
    """1-4 layers of 1-16 units.  As ``_buffer_caps`` derives them, a
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
        plans.append(LayerSchedule(units, draw(st.integers(1, 40)),
                                   draw(st.integers(0, 12)),
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
        assert peak_tokens(b) == ref.peak()

    def by_time(evs):
        return sorted(evs, key=lambda e: e[:3])

    assert by_time(events) == by_time(ref_events)


@settings(max_examples=400, deadline=None)
@given(plan_lists())
def test_recurrence_matches_event_loop(case):
    _assert_same(*case)


@settings(max_examples=400, deadline=None)
@given(plan_lists())
def test_lower_bound_at_most_makespan(case):
    plans, caps = case
    ref = _run(reference_simulate_pass, plans, caps)
    if ref is not SimDeadlock:
        assert _pass_lower_bound(plans) <= ref[0]


def _limited(plans, caps):
    """Per buffer that can make its streaming producer wait (it holds fewer
    than all of its tokens): whether its consumer streams too."""
    return [plans[i + 1].consumer_stream for i, (tokens, cap, _) in enumerate(caps)
            if plans[i].producer_stream and cap < tokens]


@settings(max_examples=400, deadline=None)
@given(plan_lists())
def test_capacity_bound_at_most_makespan(case):
    """With every limited buffer feeding a streaming consumer, the pass
    never deadlocks and the capacity-aware walk bounds its makespan."""
    plans, caps = case
    hypothesis.assume(all(_limited(plans, caps)))
    assert _pass_bound(plans, caps) <= _simulate_pass(plans, caps, False)[0]


@settings(max_examples=400, deadline=None)
@given(plan_lists())
def test_bound_is_the_makespan_when_no_buffer_limits(case):
    """With no buffer able to make a streaming producer wait, the walk is
    the makespan, with or without the buffers."""
    plans, caps = case
    hypothesis.assume(not _limited(plans, caps))
    assert _pass_bound(plans, caps) == _simulate_pass(plans, caps, False)[0] \
        == _pass_lower_bound(plans)


@settings(max_examples=400, deadline=None)
@given(plan_lists(), plan_lists(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_bounds_of_a_product_are_each_schedules_bound(case, other, two):
    """``_pass_bounds`` over one or two choices per layer, walking each
    prefix once, gives the walk of every schedule in their product, in
    product order, with or without the buffers' capacities."""
    (plans, caps), (others, _) = case, other
    choices = [(p, q) if both else (p,) for p, q, both in zip(plans, others, two)]
    for bufs in (caps, [(1, 1, 0)] * len(caps)):
        assert _pass_bounds(choices, bufs) == [reference_pass_bound(schedule, bufs)
                                               for schedule in itertools.product(*choices)]


def test_one_slot_buffer_stalls_the_producer():
    """A producer of 4 units (2 cycles, fill 1) into a one-token buffer
    read by a slower streaming consumer (5 cycles): each producer unit
    waits for the consumer to finish the previous token, so the pass takes
    4 round trips of 2 + 1 + 5 cycles, which the capacity term gives
    exactly, 9 cycles above the no-wait walk."""
    plans = [LayerSchedule(4, 2, 1, True, False), LayerSchedule(4, 5, 0, True, True)]
    makespan = _simulate_pass(plans, [(4, 1, 0)], False)[0]
    assert makespan == _pass_bound(plans, [(4, 1, 0)]) == 4 * (2 + 1 + 5) == 32
    assert _pass_lower_bound(plans) == _pass_bound(plans, [(4, 4, 0)]) == 2 + 1 + 4 * 5 == 23
    assert _simulate_pass(plans, [(4, 4, 0)], False)[0] == 23


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
    plans = [LayerSchedule(2, 5, 1, p, c) for p, c in seqs]
    caps = [(2, 1, 0)] * (len(plans) - 1)
    with pytest.raises(SimDeadlock):
        _simulate_pass(plans, caps, False)
    with pytest.raises(SimDeadlock):
        reference_simulate_pass(plans, caps, False)


def test_peak_counts_reservation_before_free_at_same_time():
    # with one slot, token 1 is reserved the instant token 0 is freed;
    # the reservation counts first, so both are held at that time
    plans = [LayerSchedule(2, 5, 0, True, False), LayerSchedule(2, 5, 0, True, True)]
    _, _, _, (bufs, _) = _simulate_pass(plans, [(2, 1, 0)], False)
    assert bufs[0].reserved == [0, 10] and bufs[0].freed == [10, 20]
    assert peak_tokens(bufs[0]) == 2
    _assert_same(plans, [(2, 1, 0)])
