import pytest
from hypothesis import given, settings, strategies as st

from helpers import record_dispatches
from convergesim.simkernel import CausalityError, Engine, RngStreams


def test_first_event_gets_id_and_queues():
    engine = Engine()
    event_id = engine.schedule(5.0, lambda: None)
    assert event_id == 1
    assert engine.queue_size() == 1


def test_equal_fire_times_dispatch_fifo():
    engine = Engine()
    order = []
    engine.schedule(3.0, lambda: order.append("A"))
    engine.schedule(3.0, lambda: order.append("B"))
    engine.run_until(3.0)
    assert order == ["A", "B"]


def test_scheduling_in_the_past_raises():
    engine = Engine()
    engine.schedule(2.0, lambda: None)
    engine.run_until(2.0)
    with pytest.raises(CausalityError):
        engine.schedule(1.0, lambda: None)


def test_nan_fire_time_raises_and_queues_nothing():
    # NaN compares false with everything, so a `fire_at < now` check let
    # it in, and drain() then spun forever on run_until(nan)
    engine = Engine()
    with pytest.raises(CausalityError):
        engine.schedule(float("nan"), lambda: None)
    assert engine.queue_size() == 0
    assert engine.drain() == 0


def test_run_until_nan_raises():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    with pytest.raises(CausalityError):
        engine.run_until(float("nan"))
    assert engine.now == 0.0 and engine.queue_size() == 1


def test_next_fire_time_is_the_earliest_queued_time():
    engine = Engine()
    assert engine.next_fire_time() == float("inf")
    engine.schedule(3.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.next_fire_time() == 2.0
    engine.run_until(2.5)
    assert engine.next_fire_time() == 3.0


def test_run_until_on_empty_queue_advances_clock():
    engine = Engine()
    assert engine.run_until(10.0) == 0
    assert engine.now == 10.0


def test_run_until_dispatches_only_due_events():
    engine = Engine()
    for t in (1.0, 2.0, 3.0):
        engine.schedule(t, lambda: None)
    assert engine.run_until(2.0) == 2
    assert engine.now == 2.0
    assert engine.queue_size() == 1


def test_child_scheduled_during_dispatch_also_runs():
    # hand trace: parent at t=2 spawns a child at t=3; both land inside
    # run_until(5), and the clock still ends at exactly 5
    engine = Engine()
    seen = []

    def parent():
        seen.append(("parent", engine.now))
        engine.schedule(engine.now + 1.0, lambda: seen.append(("child", engine.now)))

    engine.schedule(2.0, parent)
    dispatched = engine.run_until(5.0)
    assert dispatched == 2
    assert seen == [("parent", 2.0), ("child", 3.0)]
    assert engine.now == 5.0


def test_run_until_backwards_raises():
    engine = Engine()
    engine.run_until(4.0)
    with pytest.raises(CausalityError):
        engine.run_until(3.0)


def _storm(engine, n=300):
    rng = engine.rng.stream("storm")

    def spawn():
        if engine.dispatched < n:
            delay = float(rng.uniform(0.0, 2.0))
            engine.schedule(engine.now + delay, spawn)

    dispatched = record_dispatches(engine)
    for _ in range(10):
        engine.schedule(float(rng.uniform(0.0, 1.0)), spawn)
    engine.drain()
    return dispatched


def test_trace_is_bit_identical_for_fixed_seed():
    trace_a = _storm(Engine(seed=7))
    trace_b = _storm(Engine(seed=7))
    assert trace_a == trace_b
    trace_c = _storm(Engine(seed=8))
    assert trace_c != trace_a


def test_dispatch_times_never_decrease():
    trace = _storm(Engine(seed=3))
    times = [t for t, _ in trace]
    assert times == sorted(times)


def test_rng_streams_are_stable_and_independent():
    draws = RngStreams(11).stream("a").uniform(size=5).tolist()
    again = RngStreams(11).stream("a").uniform(size=5).tolist()
    assert draws == again

    # interleaving a new consumer must not perturb an existing stream
    streams = RngStreams(11)
    first = streams.stream("a").uniform(size=2).tolist()
    streams.stream("b").uniform(size=100)
    rest = streams.stream("a").uniform(size=3).tolist()
    assert first + rest == draws


def test_drain_stops_clock_at_last_event():
    engine = Engine()
    engine.schedule(1.5, lambda: None)
    engine.schedule(4.25, lambda: None)
    assert engine.drain() == 2
    assert engine.now == 4.25


def _reference_drain(engine) -> int:
    """Drain as one `run_until` per distinct fire time."""
    count = 0
    while engine.queue_size():
        count += engine.run_until(engine.next_fire_time())
    return count


# an event's plan: for each child, the delay after the event's own fire
# time (0 schedules it at the same time) and the child's plan
PLANS = st.recursive(
    st.just(()),
    lambda plans: st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), plans),
                           max_size=3).map(tuple),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]), PLANS), max_size=8),
       start=st.sampled_from([None, 0.0, 0.5, 1.0]))
def test_drain_dispatches_as_run_until_per_fire_time(roots, start):
    def run(drain):
        engine = Engine()
        dispatched, clock = record_dispatches(engine), []

        def event(plan):
            def action():
                clock.append(engine.now)
                for delay, child in plan:
                    engine.schedule(engine.now + delay, event(child))
            return action

        for fire_at, plan in roots:
            engine.schedule(fire_at, event(plan))
        if start is not None:  # drain from a clock that has already moved
            engine.run_until(start)
        count = drain(engine)
        return dispatched, clock, count, engine.now, engine.dispatched

    assert run(Engine.drain) == run(_reference_drain)
