"""Tests for Resource / PriorityResource / Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_serializes_unit_capacity():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        log.append((tag, "start", env.now))
        yield env.timeout(hold)
        log.append((tag, "end", env.now))
        res.release(req)

    env.process(user(env, "a", 2))
    env.process(user(env, "b", 3))
    env.run()
    assert log == [
        ("a", "start", 0), ("a", "end", 2),
        ("b", "start", 2), ("b", "end", 5),
    ]


def test_resource_capacity_two_allows_concurrency():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(env, tag):
        req = res.request()
        yield req
        starts.append((tag, env.now))
        yield env.timeout(1)
        res.release(req)

    for tag in range(3):
        env.process(user(env, tag))
    env.run()
    assert starts == [(0, 0), (1, 0), (2, 1)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in range(6):
        env.process(user(env, tag))
    env.run()
    assert order == list(range(6))


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_foreign_request_raises():
    env = Environment()
    a = Resource(env, capacity=1)
    b = Resource(env, capacity=1)
    req = a.request()
    from repro.sim import SimulationError

    with pytest.raises(SimulationError):
        b.release(req)


def test_cancel_ungranted_request():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    def impatient(env):
        req = res.request()
        yield env.timeout(1)
        res.release(req)  # cancel before grant
        order.append("gave up")

    def patient(env):
        yield env.timeout(0.5)
        req = res.request()
        yield req
        order.append(("patient", env.now))
        res.release(req)

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    # The cancelled request must not block `patient` once holder releases.
    assert ("patient", 5) in order


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(1)
        res.release(req)

    def user(env, tag, prio):
        yield env.timeout(0.1)  # enqueue while holder active
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    env.process(holder(env))
    env.process(user(env, "low", 10))
    env.process(user(env, "high", 0))
    env.process(user(env, "mid", 5))
    env.run()
    assert order == ["high", "mid", "low"]


def test_store_fifo_items():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(0, 1), (1, 2), (2, 3)]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    def producer(env):
        yield env.timeout(5)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == ["late"]
    assert env.now == 5


def test_store_bounded_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")  # blocks until a consumed
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(3)
        item = yield store.get()
        log.append((f"got-{item}", env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0) in log
    assert ("got-a", 3) in log
    assert ("put-b", 3) in log


def test_unbounded_put_continues_in_the_same_step(env_steps):
    """An accepted put returns an event that has already fired: yielding
    it resumes the putter at once, inside the step that is running."""
    env = Environment()
    store = Store(env)
    log = []

    def producer(env):
        accepted = store.put("a")
        assert accepted.processed and accepted.ok
        yield accepted
        yield store.put("b")
        log.append((env.now, len(env_steps)))

    env.process(producer(env), name="producer")
    env.run()
    assert log == [(0.0, 0)]  # still inside the boot step
    assert env_steps == [0.0, 0.0]  # the boot and the completion
    assert store.items == ["a", "b"]


def test_store_pipeline_processes_no_acknowledgements(env_steps):
    """Every event of a store-only pipeline is a boot, a get or a
    timeout; no put adds one."""
    env = Environment()
    n_stages, n_items = 3, 5
    stores = [Store(env) for _ in range(n_stages + 1)]
    for item in range(n_items):
        stores[0].put(item)

    def stage(env, k):
        while True:
            item = yield stores[k].get()
            yield env.timeout(k + 1)
            stores[k + 1].put(item)

    for k in range(n_stages):
        env.process(stage(env, k), name=f"stage{k}")
    env.run()
    assert stores[-1].items == list(range(n_items))
    boots, gets, timeouts = n_stages, n_stages * n_items, n_stages * n_items
    assert len(env_steps) == boots + gets + timeouts


def test_store_items_view_and_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == [1, 2]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_multiple_getters_served_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1)
        store.put("x")
        store.put("y")

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", "x"), ("second", "y")]


@given(items=st.lists(st.integers(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_store_preserves_order_and_conserves_items(items):
    """Property: whatever is put into a Store comes out exactly once, in
    FIFO order, regardless of producer/consumer interleaving."""
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for i, item in enumerate(items):
            if i % 3 == 0:
                yield env.timeout(0.5)
            store.put(item)
        if False:
            yield  # make this a generator even for the no-timeout path

    def consumer(env):
        for _ in items:
            out.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == items


@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=10,
                             allow_nan=False), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    """Property: instantaneous holder count never exceeds capacity."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = 0

    def user(env, hold):
        nonlocal max_seen
        req = res.request()
        yield req
        max_seen = max(max_seen, res.count)
        yield env.timeout(hold)
        res.release(req)

    for h in holds:
        env.process(user(env, h))
    env.run()
    assert max_seen <= capacity
    assert res.count == 0
