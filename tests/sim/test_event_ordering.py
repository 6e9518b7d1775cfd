"""Ordering invariants of the bucketed calendar queue.

The protocol's determinism rests on one property of the event core:
events with equal timestamps fire in the order they were scheduled
(FIFO), regardless of whether they were scheduled via ``schedule`` or
``schedule_at``, before or during the timestamp's drain.  These tests pin
that contract independently of the queue's implementation (they predate
the per-timestamp bucket layout and must survive any future one).
"""

import pytest

from repro.sim.engine import LivelockError, SimulationError, Simulator


def test_equal_timestamp_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(5, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_fifo_across_schedule_and_schedule_at():
    # Mixing the two scheduling APIs at one timestamp keeps call order.
    sim = Simulator()
    order = []
    sim.schedule(7, lambda: order.append("a"))
    sim.schedule_at(7, lambda: order.append("b"))
    sim.schedule(7, lambda: order.append("c"))
    sim.schedule_at(7, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_zero_delay_appends_behind_same_time_events():
    # An event scheduled with delay 0 *during* timestamp T's drain fires
    # at T, after everything already queued for T.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("zero-delay"))

    sim.schedule(3, first)
    sim.schedule(3, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "zero-delay"]
    assert sim.now == 3


def test_nested_zero_delay_chain_fires_same_timestamp():
    sim = Simulator()
    depth = []

    def recurse(n):
        depth.append(sim.now)
        if n:
            sim.schedule(0, lambda: recurse(n - 1))

    sim.schedule(9, lambda: recurse(4))
    sim.run()
    assert depth == [9] * 5


def test_interleaved_timestamps_fire_in_time_then_fifo_order():
    sim = Simulator()
    order = []
    # Schedule out of time order; same-time entries keep schedule order.
    sim.schedule(10, lambda: order.append((10, 0)))
    sim.schedule(2, lambda: order.append((2, 0)))
    sim.schedule(10, lambda: order.append((10, 1)))
    sim.schedule_at(2, lambda: order.append((2, 1)))
    sim.schedule(6, lambda: order.append((6, 0)))
    sim.run()
    assert order == [(2, 0), (2, 1), (6, 0), (10, 0), (10, 1)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    assert sim.now == 5
    with pytest.raises(SimulationError, match="past"):
        sim.schedule_at(4, lambda: None)


def test_step_preserves_fifo_order():
    sim = Simulator()
    order = []
    for i in range(4):
        sim.schedule(2, lambda i=i: order.append(i))
    while sim.step():
        pass
    assert order == [0, 1, 2, 3]


def test_run_until_between_buckets_stops_before_future_work():
    # With events still queued past ``until`` the clock holds at the last
    # fired timestamp; it only advances to ``until`` on a drained queue.
    sim = Simulator()
    fired = []
    sim.schedule(3, lambda: fired.append(3))
    sim.schedule(9, lambda: fired.append(9))
    sim.run(until=5)
    assert fired == [3]
    assert sim.now == 3
    assert sim.pending() == 1
    sim.run()
    assert fired == [3, 9]
    assert sim.now == 9


def test_run_until_past_drained_queue_advances_clock():
    sim = Simulator()
    sim.schedule(2, lambda: None)
    sim.run(until=8)
    assert sim.now == 8
    assert sim.pending() == 0


def test_max_events_budget_enforced_with_equal_timestamps():
    # All ten events share one bucket; the valve still trips mid-bucket.
    sim = Simulator(max_events=5)
    for _ in range(10):
        sim.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run()
    # The sixth event tripped the valve; the rest stay queued.
    assert sim.events_processed == 6
    assert sim.pending() == 4


def test_watchdog_fires_without_progress():
    # Self-rescheduling events with no last_progress updates must trip
    # the livelock watchdog under the bucketed queue too.
    sim = Simulator(watchdog_window=100)
    state = {}

    def spin():
        state["spins"] = state.get("spins", 0) + 1
        sim.schedule(1, spin)

    sim.schedule(1, spin)
    with pytest.raises(LivelockError):
        sim.run()


def test_watchdog_quiet_when_progress_recorded():
    sim = Simulator(watchdog_window=50)
    count = [0]

    def work():
        count[0] += 1
        sim.last_progress = sim.now
        if count[0] < 300:
            sim.schedule(1, work)

    sim.schedule(1, work)
    sim.run()
    assert count[0] == 300


def test_on_stall_dump_attached_when_valve_trips():
    # The diagnostic hook still fires under the bucketed queue.
    sim = Simulator(max_events=1)
    sim.on_stall = lambda: "machine-state-dump"
    sim.schedule(1, lambda: None)
    sim.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="max_events") as exc_info:
        sim.run()
    assert exc_info.value.dump == "machine-state-dump"


def test_pending_tracks_bucket_sizes():
    sim = Simulator()
    assert sim.pending() == 0
    sim.schedule(1, lambda: None)
    sim.schedule(1, lambda: None)
    sim.schedule(4, lambda: None)
    assert sim.pending() == 3
    sim.step()
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


@pytest.mark.parametrize("max_events", [None, 1000], ids=["unlimited", "valve"])
def test_pending_inside_callbacks_counts_only_unfired_events(max_events):
    # Read from inside a callback, pending() excludes every event that
    # already fired (the running one included) on both drain paths, and
    # agrees with pending_events().
    sim = Simulator(max_events=max_events)
    seen = []

    def probe(label):
        seen.append(
            (label, sim.pending(), [args for _, _, args in sim.pending_events()])
        )

    def first():
        probe("a")
        sim.schedule(0, probe, "zero-delay")

    sim.schedule(3, first)
    sim.schedule(3, probe, "b")
    sim.schedule(3, probe, "c")
    sim.schedule(8, probe, "later")
    sim.run()
    assert seen == [
        ("a", 3, [("b",), ("c",), ("later",)]),
        ("b", 3, [("c",), ("zero-delay",), ("later",)]),
        ("c", 2, [("zero-delay",), ("later",)]),
        ("zero-delay", 1, [("later",)]),
        ("later", 0, []),
    ]
    assert sim.pending() == 0
    assert sim.pending_events() == []


def test_raise_mid_bucket_keeps_unfired_remainder_queued():
    # On the unlimited fast path a callback that raises mid-bucket leaves
    # the unfired remainder queued in order with exact counts, and a
    # resumed run() fires it FIFO before later timestamps.
    sim = Simulator()
    order = []

    def boom():
        order.append("boom")
        raise RuntimeError("boom")

    def first():
        order.append("a")
        sim.schedule(0, order.append, "zero-delay")

    sim.schedule(2, first)
    sim.schedule(2, order.append, "b")
    sim.schedule(2, boom)
    sim.schedule(2, order.append, "c")
    sim.schedule(2, order.append, "d")
    sim.schedule(5, order.append, "later")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert order == ["a", "b", "boom"]
    assert sim.now == 2
    assert sim.events_processed == 3
    assert sim.pending() == 4
    assert [(time, args) for time, _, args in sim.pending_events()] == [
        (2, ("c",)), (2, ("d",)), (2, ("zero-delay",)), (5, ("later",)),
    ]
    sim.run()
    assert order == ["a", "b", "boom", "c", "d", "zero-delay", "later"]
    assert sim.events_processed == 7
    assert sim.pending() == 0


def test_raise_on_last_event_of_bucket_leaves_no_empty_bucket():
    sim = Simulator()
    order = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1, order.append, "a")
    sim.schedule(1, boom)
    sim.schedule(4, order.append, "later")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.events_processed == 2
    assert sim.pending() == 1
    assert sim.step()
    assert order == ["a", "later"]
    assert not sim.step()
