"""Allocator and rebalance microbenchmarks for the contention engine.

Times the layers the virtual-time engine is built from, bottom up:

* the scalar water filling, per task and over weighted demand groups,
* one ``allocate_batch`` call on the composition of a 64-stream active set
  (four profiles, one task per core) — memo hit and memo miss separately
  (the miss path is what dominates desynchronized workloads, where the
  phase composition drifts continuously),
* one full reference run, reporting the engine counters that the run
  manifest exports under ``engine.cpu``.

Absolute numbers are tracked by the committed ratchet baseline
``BENCH_contention.json`` (see ``perf_guard.py``); these benchmarks only
assert structural facts that hold at any machine speed.
"""

from repro.core.driver import RunConfig, run_fft_phase
from repro.machine.contention import BandwidthContentionAllocator, waterfill
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask
from repro.simkit.simulator import Simulator

_PROFILES = [
    PhaseProfile("fft_z", 1.2, 0.9),
    PhaseProfile("fft_xy", 0.8, 2.1),
    PhaseProfile("pack", 1.9, 0.2),
    PhaseProfile("fft_scatter", 1.1, 1.4),
]


def _composition(alloc, n_streams=64, n_profiles=4):
    """Attach one 64-stream active set (one task per core, as in 8x8) and
    return its composition: active tasks per group key."""
    sim = Simulator()
    composition = {}
    for k in range(n_streams):
        task = FluidTask(
            sim,
            1.0,
            meta={
                "profile": _PROFILES[k % n_profiles],
                "thread": HwThread(core=k, slot=0, index=4 * k, node=0),
                "speed": 1.0 + 0.01 * (k % 7),
            },
        )
        key, _speed, _moves = alloc.attach(task)
        composition[key] = composition.get(key, 0) + 1
    return composition


def test_bench_waterfill_reference(benchmark):
    demands = [1e9 + 1e7 * k for k in range(64)]
    grants = benchmark(waterfill, demands, 30e9)
    assert sum(grants) <= 30e9 * (1 + 1e-9)


def test_bench_waterfill_groups(benchmark):
    demands = [1e9 + 1e8 * k for k in range(8)]
    weights = [8] * 8
    grants = benchmark(waterfill, demands, 30e9, weights)
    assert sum(g * w for g, w in zip(grants, weights)) <= 30e9 * (1 + 1e-9)


def test_bench_allocate_batch_memo_hit(benchmark):
    alloc = BandwidthContentionAllocator(
        frequency_hz=1.4e9, bandwidth_bytes_per_s=90e9
    )
    composition = _composition(alloc)
    alloc.allocate_batch(composition)  # prime the composition memo
    rates = benchmark(alloc.allocate_batch, composition)
    assert len(rates) == 4
    info = alloc.cache_info()
    assert info["alloc_cache_misses"] == 1
    assert info["alloc_cache_hits"] >= 1


def test_bench_allocate_batch_memo_miss(benchmark):
    alloc = BandwidthContentionAllocator(
        frequency_hz=1.4e9, bandwidth_bytes_per_s=90e9
    )
    composition = _composition(alloc)

    def miss():
        alloc._cache.clear()
        return alloc.allocate_batch(composition)

    rates = benchmark(miss)
    assert len(rates) == 4
    assert alloc.cache_info()["alloc_cache_hits"] == 0


def test_bench_rebalance_engine(run_once):
    """Full reference run; prints the counters the manifest exports."""
    cfg = RunConfig(ranks=8, taskgroups=8, version="ompss_perfft")
    run_fft_phase(cfg)  # warm caches out of the measurement
    result = run_once(run_fft_phase, cfg)
    stats = result.cpu.engine_stats()
    print(f"\nengine counters: {stats}")
    # The desynchronized workload must exercise all three layers: coalesced
    # same-timestamp updates, the composition memo, and timer reuse.
    assert stats["n_rebalances"] > 0
    assert stats["n_coalesced"] > 0
    assert stats["alloc_cache_hits"] > 0
    assert stats["alloc_cache_misses"] > 0
    assert stats["n_timer_skips"] > 0
    # Coalescing is what keeps rebalances near the task-finish count (the
    # irreducible floor of an exact fluid engine) instead of 2-3x above it.
    n_computes = sum(
        len(result.cpu.counters.phases(s)) and
        sum(c.occurrences for c in result.cpu.counters.phases(s).values())
        for s in result.cpu.counters.streams
    )
    assert stats["n_rebalances"] <= 1.25 * n_computes
