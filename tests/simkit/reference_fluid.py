"""Per-task reference integrator for the virtual-time fluid engine.

:class:`ReferenceFluid` is the arithmetic the engine replaced, one task at
a time: every change point integrates ``remaining -= rate * dt`` for each
active task, completes the tasks whose residual is within
``max(rate * 8 ulp(now), work * 1e-12)``, asks the allocator's sequence
interface ``allocate(tasks)`` for every task's rate and arms one timer for
the earliest ``remaining / rate``.  It rebalances eagerly (no same-timestamp
coalescing) and keeps no groups, so it shares no bookkeeping with
:class:`~repro.simkit.fluid.FluidResource` — only the allocator's pricing.
"""

import math

from repro.simkit.fluid import FluidTask

_REL_EPS = 1e-12
_ABS_EPS = 1e-15


class ReferenceFluid:
    """``submit``/``cancel`` over plain per-task floats."""

    def __init__(self, sim, allocator):
        self.sim = sim
        self.allocator = allocator
        self.active = []
        self.remaining = {}
        self.rates = {}
        self.last = sim.now
        self.version = 0

    def submit(self, work, meta=None):
        now = self.sim.now
        task = FluidTask(self.sim, work, meta)
        task.start_time = now
        if task.work <= _ABS_EPS:
            task.finish_time = now
            task.done.succeed(task)
            return task
        self._advance()
        self.active.append(task)
        self.remaining[task] = task.work
        self.rates[task] = 0.0
        self._rebalance()
        return task

    def cancel(self, task):
        self._advance()
        self.active.remove(task)
        del self.remaining[task], self.rates[task]
        task.done.cancel()
        self._rebalance()

    def _advance(self):
        dt = self.sim.now - self.last
        for task in self.active:
            self.remaining[task] -= self.rates[task] * dt
        self.last = self.sim.now

    def _settle(self):
        now = self.sim.now
        finished = [
            task
            for task in self.active
            if self.remaining[task]
            <= max(
                self.rates[task] * 8.0 * math.ulp(now),
                task.work * _REL_EPS,
                _ABS_EPS,
            )
        ]
        for task in finished:
            self.active.remove(task)
            del self.remaining[task], self.rates[task]
            task.finish_time = now
        for task in finished:
            task.done.succeed(task)

    def _rebalance(self):
        self._settle()
        self.version += 1
        if not self.active:
            return
        rates = self.allocator.allocate(list(self.active))
        eta = math.inf
        for task, rate in zip(self.active, rates):
            self.rates[task] = rate
            if rate > 0.0:
                eta = min(eta, self.remaining[task] / rate)
        if eta < math.inf:
            version = self.version
            timer = self.sim.timeout(max(eta, math.ulp(self.sim.now)))
            timer.add_callback(lambda _ev: self._on_timer(version))

    def _on_timer(self, version):
        if version == self.version:
            self._advance()
            self._rebalance()
