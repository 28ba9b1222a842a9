"""Fluid (processor-sharing) resources with state-dependent rates.

A :class:`FluidResource` executes *fluid tasks*: each task carries an amount
of abstract ``work`` and progresses continuously at a rate chosen by a
:class:`RateAllocator`.  Whenever the set of active tasks changes (a task is
submitted, cancelled or completes), the resource

1. advances every active task's progress at its previous rate,
2. asks the allocator for fresh rates given the *new* active set, and
3. re-arms a single completion timer for the earliest finisher.

This is the standard fluid-flow approximation used by network/host simulators
(SimGrid-style): it is what allows the KNL model to make a compute phase's
effective IPC depend on the concurrently executing phases — the mechanism
behind the paper's resource-contention analysis (Tables I/II, Fig. 7).

The engine is exact for piecewise-constant rates: between change points every
task progresses linearly, and change points are processed in order.

Virtual-time engine (the contention hot path)
---------------------------------------------
Every allocator in the model grants rates of the form ``base(group) ×
multiplier(task)``: the CPU groups tasks by their packed (phase profile,
core occupancy, node) code with the jitter/fault speed as multiplier, the
network by sender rank.  The engine keeps one *virtual clock* per group,
``V_g += base_g · dt``, and gives each task the tag ``F_i = V_g(entry) +
remaining_i / multiplier_i`` in a per-group heap; the task is done when
``V_g`` reaches ``F_i``.  Integrating progress, finding the next finisher
and settling finishers therefore cost O(groups) per change point, and
submit/finish/cancel cost O(log tasks) — nothing walks the task list.

The allocator owns the grouping (see :class:`RateAllocator`): ``attach``
names a new task's group and multiplier and may move siblings whose group
changed (a hyper-thread joining a core changes its siblings' occupancy);
``allocate_batch`` prices the *composition* (task count per group) and
returns one base rate per group.  An allocator that only offers
``allocate(tasks)`` puts every task in a group of its own.

Changes that land at the same simulation timestamp are *coalesced*: a burst
of k submits (an OmpSs taskloop fan-out) marks the resource dirty and defers
one rebalance to the end of the timestep (:meth:`Simulator.defer`) instead of
running k full reallocations.  This is semantically free — intermediate rate
assignments would act over zero simulated time — and is counted in
``n_coalesced`` for the run manifest.

Numerics: a task completes when its residual ``(F_i - V_g) · multiplier``
is within ``max(rate · 8 ulp(now), work · 1e-12)`` — as a per-task engine
would test it — or its tag is within ``8 ulp(V_g)`` of the clock, which is
pure clock rounding.  A group's clock restarts at 0 whenever it empties, so
tags stay small relative to the work they measure.
"""

from __future__ import annotations

import heapq
import math
import operator
import typing as _t

from repro.simkit.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.simulator import Simulator

__all__ = ["FluidTask", "RateAllocator", "EqualShareAllocator", "FluidResource"]

#: Relative tolerance used to decide a task's work is exhausted.
_REL_EPS = 1e-12
#: Absolute floor so zero-work tasks terminate immediately.
_ABS_EPS = 1e-15
#: Clock-rounding slack of the completion test, in ulps.
_ULP_SLACK = 8.0

_heappush = heapq.heappush
_heappop = heapq.heappop
_ulp = math.ulp
_submit_order = operator.attrgetter("_order")

#: Group moves of one ``attach``/``detach`` call: ``(task, new group key)``.
Moves = _t.Sequence[tuple["FluidTask", _t.Hashable]]


class _TimerEvent:
    """Completion-timer heap entry: one slot cheaper than a lambda closure.

    Satisfies the same minimal run-loop contract as
    :class:`~repro.simkit.events.CallbackEvent`.
    """

    __slots__ = ("_res", "_version")

    _exception: BaseException | None = None
    exception: BaseException | None = None
    _defused = False

    def __init__(self, res: "FluidResource", version: int):
        self._res = res
        self._version = version

    def _process(self) -> None:
        self._res._on_timer(self._version)


class _Group:
    """Tasks sharing one base rate: a virtual clock plus a heap of tags."""

    __slots__ = ("base", "clock", "zero", "heap")

    def __init__(self) -> None:
        self.base = 0.0
        #: Work per unit multiplier done since the group was created.
        self.clock = 0.0
        #: Simulated time the group spent at base rate 0.
        self.zero = 0.0
        #: ``(tag, seq, task)``; entries whose seq is stale are skipped.
        self.heap: list[tuple[float, int, FluidTask]] = []


class FluidTask:
    """A unit of continuously progressing work on a :class:`FluidResource`.

    Attributes
    ----------
    work:
        Total work (engine-agnostic units; the machine layer uses
        *instructions*, the network layer uses *bytes*).
    remaining:
        Work still to do.
    meta:
        Arbitrary metadata the rate allocator may inspect (e.g. the phase
        profile and hardware-thread binding).
    done:
        Event that fires (with the task) on completion.
    rate:
        Current progress rate (work units per simulated second).
    active_time:
        Simulated time this task spent with a non-zero rate.
    """

    __slots__ = (
        "work",
        "meta",
        "done",
        "start_time",
        "finish_time",
        "_res",
        "_group",
        "_key",
        "_mult",
        "_tag",
        "_seq",
        "_thr",
        "_zero0",
        "_order",
        "_remaining",
        "_rate",
        "_active_time",
    )

    def __init__(self, sim: "Simulator", work: float, meta: dict | None = None):
        if work < 0:
            raise ValueError(f"negative work {work!r}")
        self.work = float(work)
        self._remaining = float(work)
        self.meta: dict = meta or {}
        self.done: Event = Event(sim, name="fluid-done")
        self._rate = 0.0
        self._active_time = 0.0
        self.start_time: float | None = None
        self.finish_time: float | None = None
        #: Owning resource and group while active; the progress state then
        #: lives in the group's clock and the task's tag.
        self._res: "FluidResource | None" = None
        self._group: _Group | None = None

    # Active tasks derive their progress from the group clock (as of the
    # resource's last change point); detached (finished/cancelled/never
    # started) tasks return the plain floats written back on exit.

    @property
    def remaining(self) -> float:
        group = self._group
        if group is None:
            return self._remaining
        return (self._tag - group.clock) * self._mult

    @property
    def rate(self) -> float:
        group = self._group
        if group is None:
            return self._rate
        return group.base * self._mult

    @property
    def active_time(self) -> float:
        group = self._group
        if group is None:
            return self._active_time
        elapsed = self._res._last_update - self.start_time
        return elapsed - (group.zero + self._zero0)

    @property
    def progress(self) -> float:
        """Fraction of work completed in [0, 1]."""
        if self.work <= 0.0:
            return 1.0
        return 1.0 - self.remaining / self.work

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FluidTask work={self.work:.3g} remaining={self.remaining:.3g} rate={self.rate:.3g}>"


class RateAllocator(_t.Protocol):
    """Strategy assigning progress rates to the active tasks of a resource.

    The minimal interface is ``allocate(tasks) -> rates``: one non-negative
    rate per task, in submit order.  The resource then keeps every task in a
    group of its own.

    Group allocators instead implement::

        def attach(self, task) -> tuple[Hashable, float, Moves]: ...
        def detach(self, task) -> Moves: ...
        def allocate_batch(self, composition: Mapping[Hashable, int])
            -> Mapping[Hashable, float]: ...

    ``attach`` is called once per task at submit time and returns the task's
    group key, its positive rate multiplier, and ``(sibling, new key)``
    moves for active tasks whose group changed because of the arrival;
    ``detach`` is called when a task leaves and returns the same kind of
    moves.  ``allocate_batch`` receives the composition — the number of
    active tasks per group key — and returns the base rate of every group,
    so a task's rate is ``base[key] * multiplier``.
    """

    def allocate(self, tasks: _t.Sequence[FluidTask]) -> list[float]:
        """Return one non-negative rate per task (same order as ``tasks``)."""
        ...  # pragma: no cover


class EqualShareAllocator:
    """Classic processor sharing: ``capacity`` split equally, capped per task.

    Parameters
    ----------
    capacity:
        Total work-units per second the resource can sustain.
    per_task_cap:
        Optional ceiling for a single task (e.g. a single link cannot exceed
        its own bandwidth even when alone).
    """

    def __init__(self, capacity: float, per_task_cap: float | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if per_task_cap is not None and per_task_cap <= 0:
            raise ValueError(f"per_task_cap must be positive, got {per_task_cap}")
        self.capacity = float(capacity)
        self.per_task_cap = per_task_cap

    def attach(self, task: FluidTask) -> tuple[None, float, Moves]:
        return None, 1.0, ()

    def detach(self, task: FluidTask) -> Moves:
        return ()

    def _share(self, n: int) -> float:
        share = self.capacity / n
        cap = self.per_task_cap
        if cap is not None and share >= cap - _ABS_EPS:
            share = cap
        return share

    def allocate_batch(self, composition: _t.Mapping[None, int]) -> dict[None, float]:
        return {None: self._share(composition[None])}

    def allocate(self, tasks: _t.Sequence[FluidTask]) -> list[float]:
        return [self._share(len(tasks))] * len(tasks)


def _own_group(task: FluidTask) -> tuple[FluidTask, float, Moves]:
    """Grouping of allocators that only offer ``allocate``: one per task."""
    return task, 1.0, ()


class FluidResource:
    """A shared facility executing fluid tasks under a rate allocator.

    Parameters
    ----------
    sim:
        Owning simulator.
    allocator:
        Rate strategy; consulted on every change of the active set.
    name:
        Label for diagnostics and tracing.
    observer:
        Optional callback ``observer(resource, now)`` invoked after every
        rebalance — used by the tracer to record rate/IPC changes.

    Counters (exported into run manifests as the ``engine`` section)
    ----------------------------------------------------------------
    ``n_rebalances``
        Allocator invocations actually performed.
    ``n_coalesced``
        Active-set changes absorbed into an already-pending same-timestamp
        rebalance (the burst savings of the coalescing engine).
    ``n_timer_skips``
        Rebalances that left the completion deadline unchanged and therefore
        re-used the armed timer instead of allocating a fresh one.
    """

    def __init__(
        self,
        sim: "Simulator",
        allocator: RateAllocator,
        name: str = "fluid",
        observer: _t.Callable[["FluidResource", float], None] | None = None,
    ):
        self.sim = sim
        self.allocator = allocator
        self.name = name
        self.observer = observer
        #: Active tasks in submit order (a dict for O(1) removal).
        self._active: dict[FluidTask, None] = {}
        self._groups: dict[_t.Hashable, _Group] = {}
        #: Composition handed to ``allocate_batch``: active tasks per group.
        self._counts: dict[_t.Hashable, int] = {}
        self._seq = 0
        self._last_update = sim.now
        self._last_settled = -math.inf
        self._timer_version = 0
        self._armed_deadline: float | None = None
        self._dirty = False
        batch = getattr(allocator, "allocate_batch", None)
        attach = getattr(allocator, "attach", None)
        if batch is not None and attach is not None:
            self._batch = batch
            self._attach = attach
            self._detach = getattr(allocator, "detach", None)
        else:
            self._batch = None
            self._attach = _own_group
            self._detach = None
        self.n_rebalances = 0
        self.n_coalesced = 0
        self.n_timer_skips = 0

    # -- public API -----------------------------------------------------------

    @property
    def active_tasks(self) -> tuple[FluidTask, ...]:
        """Snapshot of the currently executing tasks (rates up to date)."""
        self._refresh()
        return tuple(self._active)

    def submit(self, work: float, meta: dict | None = None) -> FluidTask:
        """Start ``work`` units of fluid work; returns the task.

        Yield ``task.done`` from a process to wait for completion.  Zero-work
        tasks complete at the current time without entering the active set.
        """
        sim = self.sim
        now = sim._now
        task = FluidTask(sim, work, meta)
        task.start_time = now
        work = task.work
        if work <= _ABS_EPS:
            task.finish_time = now
            task.done.succeed(task)
            return task
        if self._last_update != now:
            self._advance()
        key, mult, moves = self._attach(task)
        if not mult > 0.0:
            if self._detach is not None:
                self._detach(task)
            raise ValueError(f"rate multiplier must be positive, got {mult!r}")
        task._res = self
        task._mult = mult
        thr = work * _REL_EPS
        task._thr = (thr if thr > _ABS_EPS else _ABS_EPS) / mult
        task._order = self._seq
        self._active[task] = None
        self._place(task, key, work / mult, 0.0)
        for sibling, new_key in moves:
            self._move(sibling, new_key)
        self._mark_dirty()
        return task

    def cancel(self, task: FluidTask) -> None:
        """Abort an active task; its ``done`` event is cancelled."""
        if task._res is not self:
            raise ValueError(f"{task!r} is not active on {self.name!r}")
        if self._last_update != self.sim._now:
            self._advance()
        self._retire(task, None)
        if self._detach is not None:
            for sibling, new_key in self._detach(task):
                self._move(sibling, new_key)
        task.done.cancel()
        self._mark_dirty()

    def throughput(self) -> float:
        """Aggregate current rate over all active tasks."""
        self._refresh()
        return sum(task._group.base * task._mult for task in self._active)

    def stats(self) -> dict[str, int]:
        """Engine counters for manifests/telemetry (see class docstring)."""
        out = {
            "n_rebalances": self.n_rebalances,
            "n_coalesced": self.n_coalesced,
            "n_timer_skips": self.n_timer_skips,
        }
        cache_info = getattr(self.allocator, "cache_info", None)
        if cache_info is not None:
            out.update(cache_info())
        return out

    # -- group bookkeeping ----------------------------------------------------

    def _place(self, task: FluidTask, key: _t.Hashable, span: float, zero: float) -> None:
        """Enter ``task`` into group ``key`` with ``span`` work per multiplier
        left and ``zero`` seconds already spent at rate 0."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
            self._counts[key] = 1
        else:
            self._counts[key] += 1
        self._seq = seq = self._seq + 1
        tag = group.clock + span
        task._group = group
        task._key = key
        task._tag = tag
        task._seq = seq
        task._zero0 = zero - group.zero
        _heappush(group.heap, (tag, seq, task))

    def _unplace(self, task: FluidTask) -> tuple[float, float]:
        """Take ``task`` out of its group; returns its (span, zero time).

        The heap entry stays behind and is dropped lazily (its seq no longer
        matches).  An emptied group is deleted, which restarts its clock.
        """
        group = task._group
        key = task._key
        count = self._counts[key] - 1
        if count:
            self._counts[key] = count
        else:
            del self._counts[key]
            del self._groups[key]
        task._group = None
        task._seq = 0
        return task._tag - group.clock, group.zero + task._zero0

    def _move(self, task: FluidTask, key: _t.Hashable) -> None:
        """Re-key an active task whose group changed (e.g. core occupancy)."""
        if task._group is None or task._key == key:
            return
        span, zero = self._unplace(task)
        self._place(task, key, span, zero)

    def _retire(self, task: FluidTask, remaining: float | None) -> None:
        """Remove a finished/cancelled task, writing its state back."""
        task._rate = task._group.base * task._mult
        span, zero = self._unplace(task)
        task._remaining = span * task._mult if remaining is None else remaining
        task._active_time = (self._last_update - task.start_time) - zero
        task._res = None
        del self._active[task]

    # -- engine internals -------------------------------------------------------

    def _refresh(self) -> None:
        """Run a pending rebalance now (for readers of rates)."""
        if self._dirty:
            if self._last_update != self.sim._now:
                self._advance()
            self._flush()

    def _mark_dirty(self) -> None:
        """Request a rebalance at the end of the current timestep.

        Same-timestamp changes coalesce: the first change schedules one
        deferred flush, subsequent ones only bump the ``n_coalesced``
        counter.  Deferral is exact for the fluid model — between the change
        and the flush zero simulated time passes, so no progress is ever
        integrated under stale rates.
        """
        if self._dirty:
            self.n_coalesced += 1
            return
        self._dirty = True
        self.sim.defer(self._deferred_flush)

    def _deferred_flush(self) -> None:
        if not self._dirty:
            return  # a same-timestamp completion timer already flushed
        if self._last_update != self.sim._now:
            self._advance()
        self._flush()

    def _advance(self) -> None:
        """Advance every group clock from the last change point to now."""
        now = self.sim._now
        dt = now - self._last_update
        if dt > 0.0:
            for group in self._groups.values():
                base = group.base
                if base > 0.0:
                    group.clock += base * dt
                else:
                    group.zero += dt
        self._last_update = now

    def _settle(self) -> None:
        """Detach and complete every task whose residual work is exhausted.

        A task is done when its residual work is below numerical noise.  The
        rate*ulp term matters at non-dyadic clock values: integration over a
        dt that is off by one ulp of `now` leaves a residual of ~rate * ulp —
        without forgiving it, the resource would re-arm ever-shorter timers
        that no longer advance the clock (an infinite loop in finite time).
        The ulp(V_g) term forgives the rounding of the group clock itself.
        """
        now = self.sim._now
        self._last_settled = now
        tick = _ulp(now) * _ULP_SLACK
        finished: list[FluidTask] = []
        for group in self._groups.values():
            heap = group.heap
            clock = group.clock
            slack = group.base * tick
            clock_slack = _ulp(clock) * _ULP_SLACK
            if clock_slack > slack:
                slack = clock_slack
            while heap:
                entry = heap[0]
                task = entry[2]
                if task._seq != entry[1]:
                    _heappop(heap)
                    continue
                left = entry[0] - clock
                if left > slack and left > task._thr:
                    break
                _heappop(heap)
                finished.append(task)
        if not finished:
            return
        if len(finished) > 1:
            finished.sort(key=_submit_order)
        for task in finished:
            self._retire(task, 0.0)
            task.finish_time = now
        detach = self._detach
        if detach is not None:
            for task in finished:
                for sibling, new_key in detach(task):
                    self._move(sibling, new_key)
        for task in finished:
            task.done.succeed(task)

    def _flush(self) -> None:
        """Recompute rates for the active set and re-arm the completion timer."""
        self._dirty = False
        self.n_rebalances += 1
        now = self.sim._now
        deadline = self._armed_deadline
        if deadline is not None and now >= deadline and self._last_settled != now:
            # Tasks can only exhaust their work at or after the armed
            # completion deadline (rates are constant between flushes), so a
            # flush strictly before it skips the finished-task scan.
            self._settle()
        groups = self._groups
        if groups:
            if self._batch is not None:
                rates = self._batch(self._counts)
            else:
                tasks = tuple(self._active)
                out = self.allocator.allocate(tasks)
                if len(out) != len(tasks):
                    raise RuntimeError(
                        f"allocator returned {len(out)} rates for {len(tasks)} tasks"
                    )
                rates = dict(zip(tasks, out))
            eta = math.inf
            for key, group in groups.items():
                base = rates[key]
                group.base = base
                if base > 0.0:
                    heap = group.heap
                    top = heap[0]
                    while top[2]._seq != top[1]:
                        _heappop(heap)
                        top = heap[0]
                    left = (top[0] - group.clock) / base
                    if left < eta:
                        eta = left
                elif base != 0.0:
                    raise RuntimeError(f"allocator produced a negative rate {base!r}")
            self._arm_timer(eta)
        else:
            self._timer_version += 1  # disarm any outstanding timer
            self._armed_deadline = None

        if self.observer is not None:
            self.observer(self, now)

    def _arm_timer(self, eta: float) -> None:
        if eta == math.inf:
            self._timer_version += 1
            self._armed_deadline = None
            return
        # Never arm a timer that cannot advance the float clock.
        now = self.sim._now
        tick = _ulp(now)
        if eta < tick:
            eta = tick
        deadline = now + eta
        armed = self._armed_deadline
        if armed is not None and abs(armed - deadline) <= _ulp(deadline):
            # The earliest finisher did not move beyond clock rounding (e.g.
            # a rebalance that left rates unchanged): the already-armed timer
            # stays valid, no fresh Timeout allocation, no version churn.
            self.n_timer_skips += 1
            return
        self._timer_version += 1
        self._armed_deadline = deadline
        self.sim._schedule_event(_TimerEvent(self, self._timer_version), eta)

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # stale timer; rates changed since it was armed
        self._armed_deadline = None  # this timer is consumed
        if self._last_update != self.sim._now:
            self._advance()
        # Complete the finishers now (their callbacks run at NORMAL priority)
        # but *defer* the reallocation: completion callbacks routinely submit
        # successor work at this very timestep, and the deferred LAZY flush
        # absorbs the finish and the resubmits into one allocator call — the
        # intermediate composition is never priced at all.
        self._settle()
        if not self._groups and not self._dirty:
            # Nothing left to price: disarm and notify observers now rather
            # than via a deferred event a caller's `run(until=...)` may never
            # drain.
            self._flush()
        else:
            self._mark_dirty()
