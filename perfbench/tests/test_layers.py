"""Instrumentation restores every boundary it wraps."""

from perfbench.layers import BOUNDARIES, COROUTINE_BOUNDARIES, MpiCounter, RunLog, _resolve, instrument
from perfbench.spans import SpanClock


def _raw(owner: str, attr: str):
    target = _resolve(owner)
    return target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)


def test_instrument_wraps_and_restores_every_boundary():
    boundaries = BOUNDARIES + COROUTINE_BOUNDARIES
    before = [_raw(owner, attr) for _, owner, attr in boundaries]
    log = RunLog()
    with instrument(SpanClock(), log, MpiCounter()):
        during = [_raw(owner, attr) for _, owner, attr in boundaries]
        assert log.clock is not None
    after = [_raw(owner, attr) for _, owner, attr in boundaries]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert log.clock is None
