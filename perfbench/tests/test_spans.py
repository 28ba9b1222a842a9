"""Self-time accounting of the span clock."""

import asyncio
import threading

import pytest

from perfbench.spans import SpanClock


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_self_times_sum_to_outer_duration():
    clock = FakeClock()
    spans = SpanClock(clock)
    outer = spans.enter()
    clock.now += 1.0
    inner = spans.enter()
    clock.now += 2.0
    innermost = spans.enter()
    clock.now += 4.0
    spans.exit(innermost, "c", "c")
    spans.exit(inner, "b", "b")
    clock.now += 0.5
    spans.exit(outer, "a", "a")
    assert spans.self_times() == {"a": 1.5, "b": 2.0, "c": 4.0}
    assert sum(spans.self_times().values()) == clock.now
    assert spans.calls() == {"a": 1, "b": 1, "c": 1}
    assert spans.open_spans() == 0


def test_wrapped_calls_nest_and_close_on_exceptions():
    clock = FakeClock()
    spans = SpanClock(clock)

    def leaf():
        clock.now += 3.0
        raise ValueError("boom")

    def parent():
        clock.now += 1.0
        with pytest.raises(ValueError):
            timed_leaf()
        clock.now += 1.0

    timed_leaf = spans.wrap("leaf", "leaf", leaf)
    spans.wrap("parent", "parent", parent)()
    assert spans.self_times() == {"parent": 2.0, "leaf": 3.0}
    assert spans.open_spans() == 0


def test_spans_on_two_threads_are_accounted_per_thread():
    clock = FakeClock()
    spans = SpanClock(clock)
    main_open = threading.Event()
    worker_done = threading.Event()

    def worker():
        assert main_open.wait(5)
        token = spans.enter()
        clock.now += 3.0
        spans.exit(token, "worker", "worker")
        worker_done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    token = spans.enter()
    clock.now += 1.0
    main_open.set()
    assert worker_done.wait(5)
    spans.exit(token, "main", "main")
    thread.join(5)
    assert not thread.is_alive()
    # The worker's span is no child of the main thread's span: each thread
    # keeps its own stack, so the main span's self time is its full duration.
    assert spans.self_times() == {"main": 4.0, "worker": 3.0}
    assert spans.open_spans() == 0


def test_coroutine_steps_exclude_time_suspended():
    clock = FakeClock()
    spans = SpanClock(clock)

    async def body(step: float) -> float:
        clock.now += step
        await asyncio.sleep(0)
        clock.now += step
        return step

    timed = spans.wrap_coroutine("service", "body", body)

    async def main():
        return await asyncio.gather(timed(1.0), timed(10.0))

    assert asyncio.run(main()) == [1.0, 10.0]
    assert spans.self_times() == {"service": 22.0}
    assert spans.calls() == {"body": 4}
    assert spans.open_spans() == 0


def test_coroutine_cancellation_reaches_the_wrapped_coroutine():
    spans = SpanClock(FakeClock())
    seen = []

    async def body():
        try:
            await asyncio.sleep(10)
        except asyncio.CancelledError:
            seen.append("cancelled")
            raise

    timed = spans.wrap_coroutine("service", "body", body)

    async def main():
        task = asyncio.create_task(timed())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(main())
    assert seen == ["cancelled"]
    assert spans.open_spans() == 0
