"""The virtual-time fluid engine against the per-task reference integrator.

Random open-loop workloads (tasks submitted at fixed times, some cancelled
mid-flight) run once on :class:`~repro.simkit.fluid.FluidResource` and once
on :class:`~tests.simkit.reference_fluid.ReferenceFluid`, each with its own
allocator instance.  Both must complete the same tasks in the same order —
up to exact ties — at times within 1e-12 relative.  The workloads mix phase
profiles, hyper-thread siblings joining and leaving a core on two nodes,
zero work, cancellation, zero-rate groups and an allocator that only offers
``allocate(tasks)``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import BandwidthContentionAllocator
from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit import FluidResource, Simulator
from tests.simkit.reference_fluid import ReferenceFluid

REL_TOL = 1e-12

_PROFILES = [
    PhaseProfile("fft_z", 1.2, 0.9),
    PhaseProfile("fft_xy", 0.8, 2.1),
    PhaseProfile("compute_only", 2.0, 0.0),
]


class PriorityAllocator:
    """Group allocator with a zero-rate group: ``lo`` starves while any
    ``hi`` task is active; each group shares ``capacity`` equally."""

    capacity = 3.0

    def attach(self, task):
        return task.meta["cls"], task.meta["speed"], ()

    def detach(self, task):
        return ()

    def allocate_batch(self, composition):
        n_hi = composition.get("hi", 0)
        rates = {}
        if n_hi:
            rates["hi"] = self.capacity / n_hi
        if "lo" in composition:
            rates["lo"] = 0.0 if n_hi else self.capacity / composition["lo"]
        return rates

    def allocate(self, tasks):
        composition = {}
        for task in tasks:
            cls = task.meta["cls"]
            composition[cls] = composition.get(cls, 0) + 1
        rates = self.allocate_batch(composition)
        return [rates[t.meta["cls"]] * t.meta["speed"] for t in tasks]


class WeightedAllocator:
    """Sequence-only allocator: capacity shared in proportion to weights."""

    capacity = 2.0

    def allocate(self, tasks):
        total = sum(t.meta["weight"] for t in tasks)
        return [self.capacity * t.meta["weight"] / total for t in tasks]


def _cpu_allocator():
    return BandwidthContentionAllocator(
        frequency_hz=1.0,
        bandwidth_bytes_per_s=2.5,
        bandwidth_rampup_max=3.0,
        bandwidth_rampup_half=2.0,
    )


ALLOCATORS = {
    "cpu": _cpu_allocator,
    "priority": PriorityAllocator,
    "weighted": WeightedAllocator,
}

task_specs = st.lists(
    st.fixed_dictionaries(
        {
            "at": st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 1.25]),
                st.floats(min_value=0.0, max_value=3.0),
            ),
            "work": st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
            "profile": st.integers(min_value=0, max_value=len(_PROFILES) - 1),
            "node": st.integers(min_value=0, max_value=1),
            "core": st.integers(min_value=0, max_value=1),
            "speed": st.floats(min_value=0.5, max_value=1.5),
            "cls": st.sampled_from(["hi", "lo"]),
            "weight": st.integers(min_value=1, max_value=3),
            "cancel_after": st.one_of(
                st.none(), st.floats(min_value=0.01, max_value=2.0)
            ),
        }
    ),
    min_size=1,
    max_size=24,
)


def _meta(spec, slot):
    thread = HwThread(core=spec["core"], slot=slot, index=slot, node=spec["node"])
    return {
        "profile": _PROFILES[spec["profile"]],
        "thread": thread,
        "speed": spec["speed"],
        "cls": spec["cls"],
        "weight": spec["weight"],
    }


def run_workload(make_resource, specs):
    """Drive one resource; returns ({task id: finish time}, finish order,
    {task id: cancel time})."""
    sim = Simulator()
    res = make_resource(sim)
    finished = {}
    order = []
    cancelled = {}

    def record(i):
        def on_done(event):
            if event._exception is None:
                finished[i] = sim.now
                order.append(i)

        return on_done

    def proc(i, spec):
        yield sim.timeout(spec["at"])
        task = res.submit(spec["work"], meta=_meta(spec, i % 4))
        task.done.add_callback(record(i))
        if spec["cancel_after"] is not None:
            yield sim.timeout(spec["cancel_after"])
            if task.finish_time is None:
                res.cancel(task)
                cancelled[i] = sim.now
        else:
            yield task.done

    for i, spec in enumerate(specs):
        sim.process(proc(i, spec))
    sim.run()
    return finished, order, cancelled


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


@given(kind=st.sampled_from(sorted(ALLOCATORS)), specs=task_specs)
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_integrator(kind, specs):
    make_alloc = ALLOCATORS[kind]
    fin, order, canc = run_workload(lambda sim: FluidResource(sim, make_alloc()), specs)
    ref_fin, _ref_order, ref_canc = run_workload(
        lambda sim: ReferenceFluid(sim, make_alloc()), specs
    )
    # A task cancelled in one run and finished in the other is a tie
    # between its completion and the cancel at the same instant.
    for i in set(canc) ^ set(ref_canc):
        t_cancel = canc.get(i, ref_canc.get(i))
        t_finish = fin.get(i, ref_fin.get(i))
        assert _close(t_cancel, t_finish), (i, canc, ref_canc)
    common = [i for i in order if i in ref_fin]
    assert len(common) == len(fin) - len(set(ref_canc) - set(canc))
    for i in common:
        assert _close(fin[i], ref_fin[i]), (i, fin[i], ref_fin[i])
    # Same completion order, except exact (within tolerance) ties.
    for a, b in zip(common, common[1:]):
        assert ref_fin[a] <= ref_fin[b] or _close(ref_fin[a], ref_fin[b])
