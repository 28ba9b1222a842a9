"""Segment scaling by the host-speed probe."""

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_PROBE_S, SegmentClock


@pytest.fixture
def fake_host(monkeypatch):
    """A host clock that reads ``now``, and a probe that takes ``probes`` in
    turn, advancing the clock by each."""
    state = {"now": 0.0, "probes": []}

    def probe():
        seconds = state["probes"].pop(0)
        state["now"] += seconds
        return seconds

    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: state["now"])
    monkeypatch.setattr(hostspeed, "probe", probe)
    return state


def test_segments_scale_by_the_mean_of_their_probes(fake_host):
    clock = SegmentClock()
    # A host at half the reference speed, then at the reference speed.
    fake_host["probes"] = [2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S]
    clock.start()
    fake_host["now"] += 1.0
    clock.split()
    fake_host["now"] += 0.75
    raw, scaled = clock.stop()
    assert raw == pytest.approx(1.0 + 0.75)
    assert scaled == pytest.approx(1.0 / 2 + 0.75 / 1.5)


def test_start_resets_the_totals(fake_host):
    clock = SegmentClock()
    fake_host["probes"] = [REFERENCE_PROBE_S] * 4
    clock.start()
    fake_host["now"] += 3.0
    clock.stop()
    clock.start()
    fake_host["now"] += 0.5
    assert clock.stop() == pytest.approx((0.5, 0.5))


def test_probe_is_short_and_leaves_the_collector_on():
    import gc

    assert 0.0 < hostspeed.probe() < 1.0
    assert gc.isenabled()
