"""Engine-level tests of the virtual-time fluid resource.

Covers the observability counters (rebalances, coalescing, timer-churn
skips), the group bookkeeping across many arrivals and departures, the
allocator attach/detach hooks with sibling re-keying, the lazy zero-rate
``active_time`` accounting and the virtual-clock numerics — the machinery
behind the contention engine's hot path rather than the fluid semantics
themselves (those live in ``test_fluid.py``).
"""

import math

import pytest

from repro.simkit import EqualShareAllocator, FluidResource, Simulator


@pytest.fixture()
def sim():
    return Simulator()


class RecordingGroupAllocator:
    """Minimal group-protocol allocator that logs every engine hook.

    Every task is in one group; ``capacity`` is shared equally.
    """

    def __init__(self, capacity=4.0):
        self.capacity = capacity
        self.attached = []
        self.detached = []
        self.batch_calls = 0

    def attach(self, task):
        self.attached.append(float(task.meta.get("tag", 0)))
        return "all", 1.0, ()

    def detach(self, task):
        self.detached.append(float(task.meta.get("tag", 0)))
        return ()

    def allocate_batch(self, composition):
        self.batch_calls += 1
        return {"all": self.capacity / composition["all"]}


class TestCounters:
    def test_same_timestamp_submits_coalesce_into_one_rebalance(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(4.0), name="cpu")
        for _ in range(5):
            cpu.submit(100.0)
        sim.run(until=1.0)
        stats = cpu.stats()
        # Five submits at t=0: one flush, four coalesced updates.
        assert stats["n_rebalances"] == 1
        assert stats["n_coalesced"] == 4

    def test_unchanged_deadline_skips_timer_rearm(self, sim):
        class IndependentRates:
            def allocate(self, tasks):
                return [1.0] * len(tasks)

        cpu = FluidResource(sim, IndependentRates(), name="cpu")

        def body():
            cpu.submit(10.0)  # finishes at t=10 at rate 1
            yield sim.timeout(5.0)
            # Joining work does not change the earliest deadline: the
            # rebalance must reuse the armed timer instead of re-arming.
            cpu.submit(100.0)

        sim.process(body())
        sim.run()
        assert cpu.stats()["n_timer_skips"] == 1

    def test_stats_include_allocator_cache_info(self, sim):
        class WithCacheInfo(RecordingGroupAllocator):
            def cache_info(self):
                return {"alloc_cache_hits": 3}

        cpu = FluidResource(sim, WithCacheInfo(), name="cpu")
        assert cpu.stats()["alloc_cache_hits"] == 3

    def test_counters_are_deterministic_across_runs(self):
        def run_once():
            sim = Simulator()
            cpu = FluidResource(sim, EqualShareAllocator(3.0), name="cpu")

            def body():
                for work in (4.0, 2.0, 6.0, 1.0):
                    task = cpu.submit(work)
                    yield sim.timeout(0.5)
                yield task.done

            sim.run(sim.process(body()))
            return cpu.stats()

        assert run_once() == run_once()


class TestNotificationHooks:
    def test_attach_and_detach_bracket_every_task(self, sim):
        alloc = RecordingGroupAllocator()
        cpu = FluidResource(sim, alloc, name="cpu")

        def body():
            a = cpu.submit(4.0, meta={"tag": 1})
            b = cpu.submit(8.0, meta={"tag": 2})
            yield a.done
            yield b.done

        sim.run(sim.process(body()))
        assert alloc.attached == [1.0, 2.0]
        # a (equal shares of 4.0: rate 2 each) finishes before b.
        assert alloc.detached == [1.0, 2.0]

    def test_cancel_also_notifies_detach(self, sim):
        alloc = RecordingGroupAllocator()
        cpu = FluidResource(sim, alloc, name="cpu")
        task = cpu.submit(100.0, meta={"tag": 7})
        cpu.submit(100.0, meta={"tag": 8})
        sim.run(until=0.5)
        cpu.cancel(task)
        assert alloc.detached == [7.0]

    def test_barrier_finish_detaches_everyone(self, sim):
        alloc = RecordingGroupAllocator(capacity=4.0)
        cpu = FluidResource(sim, alloc, name="cpu")
        for tag in (1, 2):
            cpu.submit(6.0, meta={"tag": tag})  # equal rates: both end at t=3
        sim.run()
        assert sorted(alloc.detached) == [1.0, 2.0]
        assert cpu.stats()["n_rebalances"] >= 1
        assert not cpu.active_tasks


class TestStructOfArrays:
    def test_state_survives_growth_and_compaction(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(64.0), name="cpu")
        finish_order = []

        def worker(k):
            task = cpu.submit(float(k))
            yield task.done
            finish_order.append(k)

        # Far beyond the initial array capacity, with staggered works so the
        # compaction path runs once per completion.
        for k in range(1, 130):
            sim.process(worker(k))
        sim.run()
        assert finish_order == sorted(finish_order)
        assert not cpu.active_tasks

    def test_detached_task_state_reads_back(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(2.0), name="cpu")

        def body():
            task = cpu.submit(4.0)
            yield task.done
            return task

        task = sim.run(sim.process(body()))
        assert task.remaining == 0.0
        assert task.finish_time == pytest.approx(2.0)
        assert task.active_time == pytest.approx(2.0)


class TestZeroRateAccounting:
    def test_active_time_excludes_starved_interval(self, sim):
        class OneAtATime:
            """Grants the whole capacity to the first task, zero to others."""

            def allocate(self, tasks):
                return [2.0] + [0.0] * (len(tasks) - 1)

        cpu = FluidResource(sim, OneAtATime(), name="cpu")
        order = []

        def worker(name, work):
            task = cpu.submit(work)
            yield task.done
            order.append((name, sim.now, task.active_time))

        sim.process(worker("a", 4.0))
        sim.process(worker("b", 2.0))
        sim.run()
        # b starves for the 2s a holds the resource, then runs 1s.
        assert order[0] == ("a", pytest.approx(2.0), pytest.approx(2.0))
        name, end, active = order[1]
        assert name == "b"
        assert end == pytest.approx(3.0)
        assert active == pytest.approx(1.0)


class TestCompletionTimer:
    def test_exact_deadline_completion(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")

        def body():
            task = cpu.submit(1.5)
            yield task.done
            return sim.now

        assert sim.run(sim.process(body())) == pytest.approx(1.5)

    def test_stale_timer_after_cancel_is_harmless(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")
        task = cpu.submit(2.0)
        sim.run(until=1.0)
        cpu.cancel(task)
        # The armed t=2 timer fires on an empty resource: must be a no-op.
        sim.run(until=5.0)
        assert not cpu.active_tasks
        assert task.done._exception is not None


class CoreAllocator:
    """Group allocator whose key depends on a sibling count: every active
    task shares one core, so each arrival or departure re-keys the rest."""

    def __init__(self):
        self.members = []

    def attach(self, task):
        self.members.append(task)
        n = len(self.members)
        return n, task.meta.get("speed", 1.0), [(t, n) for t in self.members[:-1]]

    def detach(self, task):
        self.members.remove(task)
        n = len(self.members)
        return [(t, n) for t in self.members]

    def allocate_batch(self, composition):
        # Issue sharing: with n tasks on the core each runs at 1/n.
        return {n: 1.0 / n for n in composition}


class TestGroups:
    def test_sibling_rekeying_follows_occupancy(self, sim):
        cpu = FluidResource(sim, CoreAllocator(), name="cpu")
        finish = {}

        def worker(name, delay, work, speed):
            yield sim.timeout(delay)
            task = cpu.submit(work, meta={"speed": speed})
            yield task.done
            finish[name] = sim.now

        sim.process(worker("a", 0.0, 2.0, 1.0))
        sim.process(worker("b", 1.0, 1.0, 2.0))
        sim.run()
        # a alone until t=1 (1 left); then a at 1/2, b at 2 * 1/2 = 1:
        # b ends at t=2 with a at 0.5 left, which a finishes alone at t=2.5.
        assert finish["b"] == pytest.approx(2.0, rel=1e-15)
        assert finish["a"] == pytest.approx(2.5, rel=1e-15)
        assert not cpu._groups

    def test_rate_is_base_times_multiplier(self, sim):
        cpu = FluidResource(sim, CoreAllocator(), name="cpu")
        a = cpu.submit(10.0, meta={"speed": 1.5})
        b = cpu.submit(10.0, meta={"speed": 0.5})
        assert [t.rate for t in cpu.active_tasks] == [0.75, 0.25]
        assert cpu.throughput() == 1.0
        sim.run(until=2.0)
        cpu.cancel(b)  # a change point: progress is integrated up to now
        assert a.remaining == pytest.approx(8.5)
        assert b.remaining == pytest.approx(9.5)
        assert a.progress == pytest.approx(0.15)
        assert a.active_time == 2.0
        assert [t.rate for t in cpu.active_tasks] == [1.5]

    def test_group_clock_restarts_when_the_group_empties(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")

        def body():
            first = cpu.submit(3.0)
            yield first.done
            second = cpu.submit(2.0)
            assert second._group.clock == 0.0
            assert second._tag == 2.0
            yield second.done

        sim.run(sim.process(body()))
        assert sim.now == 5.0

    def test_non_positive_multiplier_rejected(self, sim):
        alloc = CoreAllocator()
        cpu = FluidResource(sim, alloc, name="cpu")
        with pytest.raises(ValueError, match="multiplier"):
            cpu.submit(1.0, meta={"speed": 0.0})
        assert alloc.members == []

    def test_negative_group_rate_rejected(self, sim):
        class Negative(RecordingGroupAllocator):
            def allocate_batch(self, composition):
                return {"all": -1.0}

        cpu = FluidResource(sim, Negative(), name="cpu")
        cpu.submit(1.0)
        with pytest.raises(RuntimeError, match="negative rate"):
            sim.run()


class TestVirtualClockNumerics:
    def test_long_lived_group_fires_one_timer_per_task(self, sim):
        """10^4 back-to-back tasks in a group that never empties.

        The group runs alone at a high base rate first, so its clock ends
        far ahead of ``base * now`` and its ulp exceeds both the
        ``rate * 8 ulp(now)`` and the ``work * 1e-12`` slack of the small
        tasks; still every task completes on its first timer instead of
        re-arming for residuals that are only clock rounding.
        """
        n = 10_000
        cpu = FluidResource(sim, EqualShareAllocator(3.0), name="cpu")
        fired = []
        on_timer = cpu._on_timer

        def counting(version):
            if version == cpu._timer_version:
                fired.append(sim.now)
            on_timer(version)

        cpu._on_timer = counting
        anchor = cpu.submit(1e12)

        def chain():
            yield sim.timeout(1000.0)
            for _ in range(30):
                cpu.submit(1e12)
            for k in range(n):
                task = cpu.submit(0.01 * (1.0 + (k % 7) / 10.0))
                yield task.done

        sim.run(sim.process(chain()))
        assert len(fired) == n
        clock = anchor._group.clock
        assert math.ulp(clock) > 8.0 * math.ulp(sim.now) * (3.0 / 32)
