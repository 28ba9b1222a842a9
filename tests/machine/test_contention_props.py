"""Property tests of the water filling and the allocation memo.

The contention allocator prices every composition with one scalar
:func:`waterfill` over demand groups.  The vectorized sort+cumsum version
it replaced (:func:`waterfill_vec`, kept in ``waterfill_oracle``) is the
reference: these tests pin feasibility, demand-boundedness, max-min
fairness, bit-level agreement with the oracle (per node, for any group
count), and order/cache independence of the memoized allocator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import BandwidthContentionAllocator, waterfill
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidResource, FluidTask
from repro.simkit.simulator import Simulator
from tests.machine.waterfill_oracle import price_vec, waterfill_vec

#: Below this many groups the scalar and numpy sums run in the same order.
_BIT_EXACT_GROUPS = 7

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=24,
)
capacities = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
weight_lists = st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=24)


class TestWaterfillInvariants:
    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_feasible_and_demand_bounded(self, demands, capacity):
        grants = waterfill_vec(np.asarray(demands), capacity)
        assert grants.shape == (len(demands),)
        assert float(grants.sum()) <= capacity * (1.0 + 1e-9) + 1e-6
        for g, d in zip(grants, demands):
            assert g <= d * (1.0 + 1e-12) + 1e-12
            assert g >= 0.0

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_matches_reference_fixpoint(self, demands, capacity):
        ref = waterfill(demands, capacity)
        vec = waterfill_vec(np.asarray(demands), capacity)
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-3)

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=200)
    def test_vectorized_is_max_min_fair(self, demands, capacity):
        """Every grant is min(demand, level) for one shared water level."""
        grants = waterfill_vec(np.asarray(demands), capacity)
        unsatisfied = [
            g for g, d in zip(grants, demands) if g < d * (1.0 - 1e-9) - 1e-12
        ]
        if unsatisfied:
            level = max(unsatisfied)
            # No unsatisfied task sits measurably below another's grant.
            assert min(unsatisfied) >= level * (1.0 - 1e-9) - 1e-6

    @given(demands=demand_lists, capacity=capacities)
    @settings(max_examples=100)
    def test_weights_equal_explicit_duplication(self, demands, capacity):
        """weights=k must allocate like k duplicated demand entries."""
        weights = [2] * len(demands)
        grouped = waterfill_vec(np.asarray(demands), capacity, np.asarray(weights))
        flat = waterfill_vec(np.asarray(np.repeat(demands, 2)), capacity)
        np.testing.assert_allclose(np.repeat(grouped, 2), flat, rtol=1e-9, atol=1e-6)


class TestScalarTwinBitExactness:
    @given(data=st.data(), capacity=capacities)
    @settings(max_examples=200)
    def test_scalar_twin_is_bit_identical_below_group_limit(self, data, capacity):
        m = data.draw(st.integers(min_value=1, max_value=_BIT_EXACT_GROUPS))
        demands = data.draw(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=m,
                max_size=m,
            )
        )
        weights = data.draw(
            st.lists(st.integers(min_value=1, max_value=64), min_size=m, max_size=m)
        )
        vec = waterfill_vec(
            np.asarray(demands), capacity, np.asarray(weights, dtype=np.int64)
        )
        scalar = waterfill(demands, capacity, weights)
        # Bit-identical, not approximately equal: numpy reduces fewer than
        # 8 elements strictly sequentially, exactly like the scalar loop.
        assert [float(v) for v in vec] == scalar


def _make_allocator():
    return BandwidthContentionAllocator(
        frequency_hz=1.4e9, bandwidth_bytes_per_s=90e9
    )


_PROFILES = [
    PhaseProfile("fft_z", 1.2, 0.9),
    PhaseProfile("fft_xy", 0.8, 2.1),
    PhaseProfile("pack", 1.9, 0.2),
    PhaseProfile("compute_free", 2.0, 0.0),
]


def _make_tasks(spec):
    """Build fluid tasks from (profile index, core, speed) triples."""
    sim = Simulator()
    tasks = []
    for k, (p, core, speed) in enumerate(spec):
        thread = HwThread(core=core, slot=k % 4, index=4 * core + k % 4, node=0)
        tasks.append(
            FluidTask(
                sim,
                1.0,
                meta={"profile": _PROFILES[p], "thread": thread, "speed": speed},
            )
        )
    return tasks


task_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_PROFILES) - 1),
        st.integers(min_value=0, max_value=11),
        st.floats(
            min_value=0.5, max_value=1.5, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=1,
    max_size=32,
)


class TestAllocatorMemo:
    @given(spec=task_specs, seed=st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_cached_equals_fresh_under_permutation(self, spec, seed):
        """A warmed memo returns the same rates a cold allocator computes,
        for any permutation of the active set."""
        warm = _make_allocator()
        baseline = warm.allocate(_make_tasks(spec))

        permuted = list(range(len(spec)))
        seed.shuffle(permuted)
        spec_p = [spec[i] for i in permuted]

        warm_rates = warm.allocate(_make_tasks(spec_p))  # memo hit
        cold_rates = _make_allocator().allocate(_make_tasks(spec_p))  # miss
        assert warm_rates == cold_rates
        for j, i in enumerate(permuted):
            assert warm_rates[j] == baseline[i]

    @given(spec=task_specs)
    @settings(max_examples=100)
    def test_rates_positive_and_speed_scaled(self, spec):
        alloc = _make_allocator()
        rates = alloc.allocate(_make_tasks(spec))
        assert all(r > 0.0 for r in rates)
        # Doubling a task's speed factor exactly doubles its rate (speed is
        # a pure post-multiplier outside the memoized base rates).
        doubled = [(p, core, 2.0 * s) for (p, core, s) in spec]
        rates2 = _make_allocator().allocate(_make_tasks(doubled))
        for r1, r2 in zip(rates, rates2):
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    @given(spec=task_specs)
    @settings(max_examples=50)
    def test_notifications_leave_no_residue(self, spec):
        """allocate() must restore the incremental occupancy tracking."""
        alloc = _make_allocator()
        alloc.allocate(_make_tasks(spec))
        assert alloc._cores == {}

    def test_hyperthread_sharing_halves_the_ceiling(self):
        """Two compute-bound hyper-threads on one core each run at ipc0/2."""
        alloc = _make_allocator()
        lone = alloc.allocate(_make_tasks([(3, 0, 1.0)]))[0]
        shared = alloc.allocate(_make_tasks([(3, 0, 1.0), (3, 0, 1.0)]))
        assert shared[0] == pytest.approx(lone / 2.0)
        assert shared[1] == pytest.approx(lone / 2.0)

    def test_cache_info_counts_hits_and_misses(self):
        alloc = _make_allocator()
        spec = [(0, 0, 1.0), (1, 1, 1.0)]
        alloc.allocate(_make_tasks(spec))
        alloc.allocate(_make_tasks(spec))
        info = alloc.cache_info()
        assert info["alloc_cache_misses"] == 1
        assert info["alloc_cache_hits"] == 1
        assert info["alloc_cache_size"] == 1

    def test_engine_path_equals_direct_path(self):
        """The fluid engine's group rates and allocate() agree exactly."""
        alloc = _make_allocator()
        spec = [(0, 0, 1.0), (1, 0, 1.1), (2, 1, 0.9), (1, 2, 1.0)]
        direct = alloc.allocate(_make_tasks(spec))

        sim = Simulator()
        engine = FluidResource(sim, _make_allocator(), name="cpu")
        tasks = [engine.submit(1e9, meta=t.meta) for t in _make_tasks(spec)]
        assert [t.rate for t in engine.active_tasks] == direct
        assert list(engine.active_tasks) == tasks


class TestMathEdgeCases:
    def test_zero_capacity_grants_nothing(self):
        assert waterfill([5.0, 1.0], 0.0) == [0.0, 0.0]
        assert waterfill_vec(np.array([5.0, 1.0]), 0.0).tolist() == [0.0, 0.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            waterfill([1.0], -1.0)
        with pytest.raises(ValueError):
            waterfill_vec(np.array([1.0]), -1.0)

    def test_all_zero_demands(self):
        assert waterfill_vec(np.zeros(4), 7.0).tolist() == [0.0] * 4

    def test_level_is_finite_under_extreme_spread(self):
        grants = waterfill_vec(np.array([1e-30, 1e30]), 1.0)
        assert math.isfinite(float(grants.sum()))
        assert float(grants[0]) == pytest.approx(1e-30)


#: Small value pools so that demands tie across profiles and occupancies
#: (ipc0 2 at occupancy 2 demands what ipc0 1 demands alone).
_IPC0S = (0.5, 1.0, 2.0, 4.0)
_BPIS = (0.0, 0.5, 1.0, 2.0)


class TestOnePricing:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pricing_matches_vectorized_oracle(self, data):
        """Per node, the scalar pricing equals the numpy oracle bit for bit
        below 8 groups and within 1 ulp above, for 1-64 groups on 1-4 nodes."""
        n_nodes = data.draw(st.integers(min_value=1, max_value=4))
        groups = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_IPC0S),
                    st.sampled_from(_BPIS),
                    st.integers(min_value=1, max_value=4),  # core occupancy
                    st.integers(min_value=0, max_value=n_nodes - 1),
                ),
                min_size=1,
                max_size=64,
                unique=True,
            )
        )
        counts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=64),
                min_size=len(groups),
                max_size=len(groups),
            )
        )
        bandwidth = data.draw(st.floats(min_value=1e8, max_value=1e12))
        rampup = data.draw(st.booleans())
        alloc = BandwidthContentionAllocator(
            frequency_hz=1.4e9,
            bandwidth_bytes_per_s=bandwidth,
            bandwidth_rampup_max=bandwidth * 1.5 if rampup else None,
            bandwidth_rampup_half=8.0,
        )
        sim = Simulator()
        profiles = {}
        composition = {}
        for (ipc0, bpi, occ, node), count in zip(groups, counts):
            # Intern the profile through the public protocol.
            probe = FluidTask(
                sim,
                1.0,
                meta={
                    "profile": PhaseProfile("p", ipc0, bpi),
                    "thread": HwThread(core=0, slot=0, index=0, node=node),
                },
            )
            pid = alloc.attach(probe)[0] >> 24
            alloc.detach(probe)
            profiles[pid] = (ipc0, bpi)
            composition[(pid << 24) | (occ << 12) | node] = count
        rates = alloc.allocate_batch(composition)
        oracle = price_vec(alloc, profiles, composition)
        assert rates.keys() == oracle.keys()
        per_node = {}
        for code in composition:
            per_node[code & 0xFFF] = per_node.get(code & 0xFFF, 0) + 1
        for code, rate in rates.items():
            if per_node[code & 0xFFF] <= _BIT_EXACT_GROUPS:
                assert rate == oracle[code]
            else:
                assert abs(rate - oracle[code]) <= math.ulp(oracle[code])
