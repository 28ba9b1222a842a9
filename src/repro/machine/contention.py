"""The contention model: concurrent phases -> effective per-thread rates.

:class:`BandwidthContentionAllocator` is a :class:`~repro.simkit.fluid.RateAllocator`
for the node's CPU fluid resource.  Each active fluid task represents one
compute phase executing on one hardware thread; its metadata carries the
:class:`~repro.machine.phases.PhaseProfile` and the
:class:`~repro.machine.topology.HwThread` binding.  Rates are in
*instructions per second* and are derived in two stages:

1. **Issue sharing (per core).**  Hyper-threads of the same physical core
   share issue slots linearly: with ``k`` active hyper-threads each gets a
   ceiling of ``ipc0 * frequency / k`` instructions/s.  This reproduces the
   paper's observation that "the average IPC is more or less cut in half when
   going from 8x8 (no hyper-threading) to 16x8 (two-time hyper-threading)".

2. **Bandwidth water filling (per node).**  Each task *demands* memory
   traffic ``ceiling_i * bytes_per_instr_i``.  The node bandwidth ``B`` is
   divided max-min fairly: tasks demanding less than the fair share are fully
   satisfied, the slack is redistributed over the rest.  A task's final rate
   is ``grant_i / bytes_per_instr_i`` (or its issue ceiling for phases with
   negligible traffic).

When every thread executes the high-intensity phase simultaneously (the
original, statically synchronised FFTXlib), all demands collide and every
thread is throttled to ``B / n / bpi``.  When the OmpSs scheduler
de-synchronises phases, low-demand phases leave bandwidth to high-demand
ones, raising their effective IPC — the mechanism behind Fig. 7.

Per-group pricing
-----------------
A task's rate depends only on its phase profile, the number of active
hyper-threads *on its own core*, its node, and the demand multiset of its
node — not on which core it runs.  So the allocator groups tasks by the
packed code ``(profile, core occupancy, node)`` for the virtual-time fluid
engine, with the per-execution ``speed`` factor (jitter, faults) as the
task's multiplier.  ``attach``/``detach`` keep the per-core membership and
re-key only the siblings of a core whose occupancy changed.

``allocate_batch`` prices a *composition* — task count per code — and is
memoized on it: the steady-state 64-thread phase mixes recur thousands of
times per run even as tasks hop between cores.  A miss runs one scalar
:func:`waterfill` per node over the groups in code order, whatever the
group count.  Cache hits/misses are exported via :meth:`cache_info` into
run manifests.
"""

from __future__ import annotations

import typing as _t

from repro.machine.phases import PhaseProfile
from repro.machine.topology import HwThread
from repro.simkit.fluid import FluidTask, Moves

__all__ = ["BandwidthContentionAllocator", "composition_key", "waterfill"]

#: Numerical slack for the water-filling fixpoint.
_EPS = 1e-12

#: Compositions memoized per allocator before the table is reset (a plain
#: clear — entries are small dicts, so the bound is generous; an LRU would
#: add ordering cost for no hit-rate gain).
_CACHE_LIMIT = 16384


def composition_key(keys: list[int], composition: _t.Mapping[int, int]) -> tuple[int, ...]:
    """Memo key of a composition: its sorted group keys, then their counts.

    A flat tuple of ints holds no containers, so the garbage collector stops
    tracking it (as it never tracks the ``{code: rate}`` memo values): a
    memo of thousands of compositions adds nothing to full collections.
    """
    return (*keys, *map(composition.__getitem__, keys))


def waterfill(
    demands: _t.Sequence[float],
    capacity: float,
    weights: _t.Sequence[int] | None = None,
) -> list[float]:
    """Max-min fair allocation of ``capacity`` over ``demands``.

    With ``weights`` each demand stands for ``weights[j]`` identical tasks
    (a group); the result is still the grant *per task* of each group.  The
    water level ``L`` solves ``sum_j w_j * min(d_j, L) == capacity`` when the
    total demand exceeds the capacity, and every task is granted
    ``min(d_j, L)``: tasks demanding less than the fair share are fully
    served and their slack is shared by the rest.

    The level comes from one pass over the demands in ascending order with
    running prefix sums — O(m log m) plain float operations, which beats
    numpy's per-call overhead at the group counts of the model.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    m = len(demands)
    if weights is None:
        weights = [1] * m
    total = 0.0
    for j in range(m):
        total += weights[j] * demands[j]
    if total <= capacity * (1.0 + _EPS):
        return list(demands)
    order = sorted(range(m), key=demands.__getitem__)
    w_total = 0.0
    for j in order:
        w_total += weights[j]
    # Candidate level when the k smallest demands are fully satisfied:
    #   capacity = prev_wd + L * (w_total - prev_w)
    # The right segment is the first whose candidate stays below its demand.
    prev_w = 0.0
    prev_wd = 0.0
    level = 0.0
    for j in order:
        level = (capacity - prev_wd) / (w_total - prev_w)
        if level <= demands[j] * (1.0 + _EPS):
            break
        prev_w += weights[j]
        prev_wd += weights[j] * demands[j]
    if level < 0.0:
        level = 0.0
    return [d if d < level else level for d in demands]


class BandwidthContentionAllocator:
    """Rate allocator combining per-core issue sharing and node bandwidth.

    Parameters
    ----------
    frequency_hz:
        Core clock frequency.
    bandwidth_bytes_per_s:
        Effective shared node memory bandwidth.

    Fluid-task metadata contract: ``meta["profile"]`` is a
    :class:`PhaseProfile` and ``meta["thread"]`` a :class:`HwThread`.
    """

    def __init__(
        self,
        frequency_hz: float,
        bandwidth_bytes_per_s: float,
        bandwidth_rampup_max: float | None = None,
        bandwidth_rampup_half: float = 0.0,
    ):
        if frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth_bytes_per_s must be positive, got {bandwidth_bytes_per_s}"
            )
        if bandwidth_rampup_half < 0:
            raise ValueError(
                f"bandwidth_rampup_half must be >= 0, got {bandwidth_rampup_half}"
            )
        self.frequency_hz = frequency_hz
        self.bandwidth = bandwidth_bytes_per_s
        #: Concurrency ramp-up of the memory system (Little's-law queueing):
        #: with n demanding threads the achievable aggregate bandwidth is
        #: ``min(rampup_max * n / (n + rampup_half), bandwidth)``.  Real
        #: many-core memory systems need tens of outstanding request streams
        #: to reach peak; the per-thread share therefore *degrades gradually*
        #: with concurrency instead of at a hard saturation knee — this is
        #: what produces the paper's smooth IPC-scalability decline across
        #: 2x8 and 4x8 (Table I).  ``rampup_max=None`` disables the ramp.
        self.bandwidth_rampup_max = bandwidth_rampup_max
        self.bandwidth_rampup_half = bandwidth_rampup_half
        # Profile interning: (ipc0, bytes_per_instr) -> small id.
        self._profile_ids: dict[tuple[float, float], int] = {}
        self._profiles: list[tuple[float, float]] = []
        # Per-task physics of every code seen: see :meth:`_decode`.
        self._physics: dict[int, tuple[float, float, float]] = {}
        # Active tasks per (node, core), each with its profile id.
        self._cores: dict[tuple[int, int], list[tuple[FluidTask, int]]] = {}
        # Composition memo: composition key -> base rate per code (excludes
        # the speed multiplier).
        self._cache: dict[tuple[int, ...], dict[int, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def effective_capacity(self, n_demanding: int) -> float:
        """Achievable aggregate bandwidth with ``n_demanding`` active streams."""
        if self.bandwidth_rampup_max is None or n_demanding <= 0:
            return self.bandwidth
        ramp = self.bandwidth_rampup_max * n_demanding / (n_demanding + self.bandwidth_rampup_half)
        return min(ramp, self.bandwidth)

    def cache_info(self) -> dict[str, int]:
        """Allocation-memo counters (merged into the engine manifest section)."""
        return {
            "alloc_cache_hits": self.cache_hits,
            "alloc_cache_misses": self.cache_misses,
            "alloc_cache_size": len(self._cache),
            "alloc_cache_evictions": self.cache_evictions,
        }

    # -- group protocol (the fluid engine's hot path) -------------------------

    # Group key: the packed code ``(profile id << 24) | (occupancy << 12) |
    # node`` — ascending codes order groups by (profile, occupancy, node).

    def attach(self, task: FluidTask) -> tuple[int, float, Moves]:
        """Group a task entering the active set; re-key its core siblings."""
        meta = task.meta
        try:
            profile: PhaseProfile = meta["profile"]
            thread: HwThread = meta["thread"]
        except KeyError as exc:
            raise RuntimeError(
                f"compute task missing required metadata {exc}: {task!r}"
            ) from None
        pkey = (profile.ipc0, profile.bytes_per_instr)
        pid = self._profile_ids.get(pkey)
        if pid is None:
            pid = self._profile_ids[pkey] = len(self._profiles)
            self._profiles.append(pkey)
        node = thread.node
        core = (node, thread.core)
        members = self._cores.get(core)
        if members is None:
            members = self._cores[core] = []
        members.append((task, pid))
        occ = len(members) << 12
        key = (pid << 24) | occ | node
        if len(members) == 1:
            return key, meta.get("speed", 1.0), ()
        moves = [(t, (p << 24) | occ | node) for t, p in members[:-1]]
        return key, meta.get("speed", 1.0), moves

    def detach(self, task: FluidTask) -> Moves:
        """Drop a task leaving the active set; re-key its core siblings."""
        thread: HwThread = task.meta["thread"]
        node = thread.node
        core = (node, thread.core)
        members = self._cores[core]
        if len(members) == 1:
            del self._cores[core]
            return ()
        for i, (t, _pid) in enumerate(members):
            if t is task:
                del members[i]
                break
        occ = len(members) << 12
        return [(t, (p << 24) | occ | node) for t, p in members]

    def allocate_batch(self, composition: _t.Mapping[int, int]) -> dict[int, float]:
        """Base instruction rate per code for one composition.

        ``composition`` maps each packed code to its number of active tasks
        (the fluid engine keeps it current through :meth:`attach` /
        :meth:`detach`).  A task's rate is its code's base times its speed.
        """
        codes = sorted(composition)
        key = composition_key(codes, composition)
        rates = self._cache.get(key)
        if rates is None:
            self.cache_misses += 1
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
                self.cache_evictions += 1
            rates = self._cache[key] = self._price(codes, composition)
        else:
            self.cache_hits += 1
        return rates

    def _price(self, codes: list[int], composition: _t.Mapping[int, int]) -> dict[int, float]:
        """Speed-independent rate per code: issue ceilings, then one water
        filling per node over its groups in code order.

        Tasks sharing a code have identical ceilings and demands, so max-min
        fairness grants them identical rates; the group size is the
        water-filling weight.
        """
        physics = self._physics
        by_node: dict[int, list[int]] = {}
        for code in codes:
            by_node.setdefault(code & 0xFFF, []).append(code)
        rates: dict[int, float] = {}
        for node in sorted(by_node):
            codes = by_node[node]
            demands = []
            weights = []
            n_demanding = 0
            for code in codes:
                entry = physics.get(code)
                if entry is None:
                    entry = physics[code] = self._decode(code)
                count = composition[code]
                demands.append(entry[1])
                weights.append(count)
                if entry[1] > 0.0:
                    n_demanding += count
            grants = waterfill(demands, self.effective_capacity(n_demanding), weights)
            for code, grant in zip(codes, grants):
                ceiling, _demand, bpi = physics[code]
                rates[code] = ceiling if bpi <= 0.0 else min(ceiling, grant / bpi)
        return rates

    def _decode(self, code: int) -> tuple[float, float, float]:
        """``(issue ceiling, bandwidth demand, bytes per instruction)``."""
        ipc0, bpi = self._profiles[code >> 24]
        ceiling = ipc0 * self.frequency_hz / ((code >> 12) & 0xFFF)
        return ceiling, ceiling * bpi, bpi

    # -- sequence interface (tests, diagnostics, non-engine callers) ----------

    def allocate(self, tasks: _t.Sequence[FluidTask]) -> list[float]:
        """Instruction rates for the active compute tasks (see module docs).

        Both sharing stages are per *node*: hyper-threads share their own
        core's issue slots, and the bandwidth water-filling runs over each
        node's tasks against that node's achievable capacity (nodes of a
        cluster are independent contention domains).  Runs the same group
        protocol and memo the fluid engine drives, so direct calls and
        engine calls agree bit-for-bit.
        """
        keys: dict[FluidTask, int] = {}
        speeds = []
        try:
            for task in tasks:
                key, speed, moves = self.attach(task)
                keys[task] = key
                speeds.append(speed)
                for sibling, new_key in moves:
                    keys[sibling] = new_key
            composition: dict[int, int] = {}
            for key in keys.values():
                composition[key] = composition.get(key, 0) + 1
            base = self.allocate_batch(composition) if composition else {}
            return [base[keys[t]] * s for t, s in zip(tasks, speeds)]
        finally:
            for task in keys:
                self.detach(task)

    def effective_ipc(self, rate_instr_per_s: float) -> float:
        """Convert an instruction rate back to IPC (for counters/tracing)."""
        return rate_instr_per_s / self.frequency_hz
