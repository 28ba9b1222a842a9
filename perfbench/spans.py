"""Span clock: per-thread span stacks that accumulate self time by layer.

A span covers one call across a layer boundary.  Its *self time* is its
duration minus the part of it covered by child spans opened on the same
thread, so the self times of nested spans add up to the duration of the
outermost one.  Durations are read from the calling thread's CPU clock by
default: a thread waiting for the interpreter lock charges no layer, so the
self times of concurrent threads add up to no more than the wall time they
share.  Spans are aggregated on the fly (per layer: self seconds; per
boundary: call count) instead of being stored, which keeps the cost of
millions of spans to about a microsecond each.

:meth:`SpanClock.wrap` times a plain callable, :meth:`SpanClock.wrap_coroutine`
times each resumption step of a coroutine separately: a coroutine suspends
between steps and other coroutines run on the same thread meanwhile, so only
the steps themselves nest properly on the thread's stack.
"""

from __future__ import annotations

import functools
import threading
import time
import typing as _t

__all__ = ["SpanClock"]


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls")

    def __init__(self) -> None:
        #: One ``[child_seconds]`` cell per open span, innermost last.
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}


class SpanClock:
    """Self-time accounting for spans opened at wrapped layer boundaries."""

    def __init__(self, clock: _t.Callable[[], float] = time.thread_time) -> None:
        self._clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self) -> tuple[_ThreadState, list[float], float]:
        """Open a span on the calling thread; pass the token to :meth:`exit`."""
        state = self._state()
        cell = [0.0]
        state.stack.append(cell)
        return state, cell, self._clock()

    def exit(self, token: tuple[_ThreadState, list[float], float], layer: str, name: str) -> None:
        """Close the span ``token`` opened, charging its self time to ``layer``."""
        state, cell, t0 = token
        duration = self._clock() - t0
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        state.self_s[layer] = state.self_s.get(layer, 0.0) + duration - cell[0]
        state.calls[name] = state.calls.get(name, 0) + 1

    def wrap(self, layer: str, name: str, fn: _t.Callable) -> _t.Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(token, layer, name)

        return timed

    def wrap_coroutine(self, layer: str, name: str, fn: _t.Callable) -> _t.Callable:
        """Coroutine function ``fn`` with each resumption step timed as a span."""
        clock = self

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            return await _TimedSteps(clock, layer, name, fn(*args, **kwargs))

        return timed

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, summed over every thread that opened spans."""
        out: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, seconds in state.self_s.items():
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def calls(self) -> dict[str, int]:
        """Closed spans per boundary name, summed over threads."""
        out: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, n in state.calls.items():
                out[name] = out.get(name, 0) + n
        return out

    def open_spans(self) -> int:
        """Spans still open on any thread (zero once the traced work ended)."""
        with self._lock:
            return sum(len(state.stack) for state in self._states)


class _TimedSteps:
    """Awaitable driving a coroutine step by step, one span per step."""

    def __init__(self, clock: SpanClock, layer: str, name: str, coro: _t.Coroutine) -> None:
        self._clock = clock
        self._layer = layer
        self._name = name
        self._coro = coro

    def __await__(self):
        clock, layer, name, coro = self._clock, self._layer, self._name, self._coro
        value: _t.Any = None
        error: BaseException | None = None
        while True:
            token = clock.enter()
            try:
                signal = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                clock.exit(token, layer, name)
            try:
                value, error = (yield signal), None
            except BaseException as exc:
                # Delegation, as ``yield from`` does: cancellation and
                # generator exit are re-raised inside the wrapped coroutine.
                value, error = None, exc
