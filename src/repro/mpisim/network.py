"""On-node communication cost model.

MPI on a single KNL node moves data through the shared memory system.  The
model has three calibrated constants (see :class:`~repro.machine.knl.KnlParameters`):

``latency``
    Per-message software overhead of the MPI stack (s).
``injection_bw``
    Peak copy bandwidth of a single rank (B/s) — the per-task cap of the
    transport fluid resource.
``capacity``
    Aggregate transport bandwidth (B/s) shared by *all* concurrent transfers
    through the :class:`~repro.simkit.fluid.FluidResource`.

Latency terms for collectives follow the usual flat/tree counts:
``alltoall`` pays ``latency * (P - 1)`` (pairwise exchange pattern),
``barrier``/``bcast`` pay ``latency * ceil(log2 P)``, ``allreduce`` twice
that.  Transfer time is not a formula — it comes out of the fluid resource,
so overlapping communication genuinely contends for bandwidth (this is what
makes the paper's Opt 1 overlap question non-trivial in the model).
"""

from __future__ import annotations

import math
import typing as _t

from repro.faults.injector import MpiLinkError, MpiTimeoutError
from repro.machine.contention import composition_key, waterfill
from repro.simkit.events import Event
from repro.simkit.fluid import FluidResource, FluidTask, Moves

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.simkit.simulator import Simulator

__all__ = ["NetworkModel", "ClusterNetworkModel", "RankAwareAllocator"]


def _detail(rank: object) -> object:
    """JSON-safe sender id for fault-report events."""
    return rank if rank is None or isinstance(rank, (int, str)) else repr(rank)


class RankAwareAllocator:
    """Transport rate allocator with per-process injection sharing.

    A transfer's rate is capped by its sending process's injection bandwidth
    *divided among that process's concurrent transfers* (a multi-threaded MPI
    process does not inject N times faster because N tasks call MPI at once),
    then the aggregate capacity is divided max-min fairly over the resulting
    demands.  Transfers without a known sender (``rank=None``) are treated as
    separate one-transfer processes.

    Implements the fluid engine's group protocol: the group of a transfer is
    its sender rank, interned to a small integer id at submit time, and the
    rate computation is memoized on the composition (transfers per sender —
    the same handful of concurrent-transfer mixes, one rank alone or the
    all-ranks alltoall burst, recurs for the whole run).  Anonymous
    transfers share the pseudo-id ``-1``: each is its own single-transfer
    process, demanding the full injection bandwidth.
    """

    def __init__(self, capacity: float, injection_bw: float):
        self.capacity = capacity
        self.injection_bw = injection_bw
        self._rank_ids: dict[object, int] = {}
        self._cache: dict[tuple[int, ...], dict[int, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def cache_info(self) -> dict[str, int]:
        return {
            "alloc_cache_hits": self.cache_hits,
            "alloc_cache_misses": self.cache_misses,
            "alloc_cache_size": len(self._cache),
        }

    def attach(self, task: FluidTask) -> tuple[int, float, Moves]:
        rank = task.meta.get("rank")
        if rank is None:
            return -1, 1.0, ()
        sid = self._rank_ids.get(rank)
        if sid is None:
            sid = self._rank_ids[rank] = len(self._rank_ids)
        return sid, 1.0, ()

    def detach(self, task: FluidTask) -> Moves:
        return ()

    def allocate_batch(self, composition: _t.Mapping[int, int]) -> dict[int, float]:
        """Rate per sender id for one concurrent-transfer composition."""
        sids = sorted(composition)
        key = composition_key(sids, composition)
        rates = self._cache.get(key)
        if rates is not None:
            self.cache_hits += 1
            return rates
        self.cache_misses += 1
        # Transfers of the same sender have identical injection demands and
        # so receive identical max-min grants: the water filling runs per
        # sender with the transfer count as weight.  Each anonymous transfer
        # (-1) is a one-transfer process demanding the full injection rate.
        counts = [composition[sid] for sid in sids]
        inj = self.injection_bw
        demands = [inj if sid == -1 else inj / n for sid, n in zip(sids, counts)]
        rates = dict(zip(sids, waterfill(demands, self.capacity, counts)))
        self._cache[key] = rates
        return rates


class NetworkModel:
    """Shared transport resource + latency bookkeeping for simulated MPI."""

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        injection_bw: float,
        latency: float,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if injection_bw <= 0:
            raise ValueError(f"injection_bw must be positive, got {injection_bw}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.capacity = capacity
        self.injection_bw = injection_bw
        self.latency = latency
        #: World rank -> node index (constant 0 on a single node); cluster
        #: subclasses override.  Collectives use it to route per-node traffic.
        self.node_of: _t.Callable[[object], int] = lambda rank: 0
        self.resource = FluidResource(
            sim,
            RankAwareAllocator(capacity, injection_bw),
            name="network",
        )
        #: Total bytes ever injected (diagnostics / tests).
        self.bytes_transferred = 0.0
        #: Fault injector consulted per transfer (set by the driver when a
        #: fault scenario is active).  Degraded links inflate the fluid
        #: work of their transfers; droppable/killable links additionally
        #: wrap every transfer in the retry/timeout envelope of
        #: :meth:`_guarded`.
        self.faults: "FaultInjector | None" = None

    # -- building blocks ----------------------------------------------------

    def transfer_parts(
        self, src_rank: object, parts: _t.Sequence[tuple[int, float]]
    ) -> Event:
        """Move per-destination payloads from one sender; fires when all moved.

        The single-fabric model ignores destinations and moves the total;
        :class:`ClusterNetworkModel` splits intra- from inter-node traffic.
        """
        total = sum(nbytes for _dst, nbytes in parts)
        return self.transfer(total, rank=src_rank)

    def message_latency(self, ranks: _t.Sequence[int]) -> float:
        """Per-message latency for a communicator spanning ``ranks``."""
        return self.latency

    def transfer(self, nbytes: float, rank: object = None) -> Event:
        """Move ``nbytes`` through the shared transport; event fires when done.

        ``rank`` identifies the sending process for injection sharing (see
        :class:`RankAwareAllocator`).  Zero-byte transfers complete
        immediately (no latency — latency is accounted separately by the
        callers, per *message*, not per byte).

        With an active fault scenario the transfer may retransmit with
        exponential backoff (dropped messages), fail with
        :class:`~repro.faults.injector.MpiLinkError` /
        :class:`~repro.faults.injector.MpiTimeoutError`, or simply run
        slower (degraded link).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if self.faults is not None and self.faults.scenario.guards_transfers:
            return self._guarded(rank, lambda: self._attempt(nbytes, rank))
        return self._attempt(nbytes, rank)

    def _attempt(self, nbytes: float, rank: object) -> Event:
        """One unconditional pass of ``nbytes`` through the transport."""
        self.bytes_transferred += nbytes
        work = nbytes
        if self.faults is not None:
            work *= self.faults.transfer_work_factor(rank)
        done = Event(self.sim, name="net-transfer")
        task = self.resource.submit(work, meta={"rank": rank})
        task.done.add_callback(lambda ev: done.succeed(nbytes))
        return done

    def _guarded(self, rank: object, attempt: _t.Callable[[], Event]) -> Event:
        """Drop/retry/timeout envelope around one-shot transfer attempts.

        Each attempt pays its full transport cost before the drop decision
        (the bytes moved, then were found corrupt/lost); retries back off
        exponentially from ``mpi_retry_backoff_s``.  Timeouts are checked at
        attempt boundaries against ``mpi_timeout_s`` — transfers always
        complete in simulated time, so a deadline check needs no watchdog
        timer (and the error carries the actual elapsed time).
        """
        faults = self.faults
        assert faults is not None
        scenario = faults.scenario
        sim = self.sim
        done = Event(sim, name="net-transfer")
        t0 = sim.now
        attempt_no = [0]

        def start() -> None:
            if done.triggered:
                return
            attempt_no[0] += 1
            attempt().add_callback(finish)

        def finish(ev: Event) -> None:
            if done.triggered:
                return
            elapsed = sim.now - t0
            timeout = scenario.mpi_timeout_s
            if timeout is not None and elapsed > timeout:
                faults.record("timeout", rank=_detail(rank), elapsed=elapsed)
                done.fail(
                    MpiTimeoutError(
                        f"transfer from rank {rank} exceeded the MPI timeout "
                        f"({elapsed:.3g} s > {timeout:g} s)"
                    )
                )
                return
            outcome = faults.transfer_outcome(rank)
            if outcome == "ok":
                if attempt_no[0] > 1:
                    faults.record(
                        "transfer_recovered", rank=_detail(rank), attempts=attempt_no[0]
                    )
                done.succeed(ev.value)
                return
            if outcome == "kill":
                done.fail(
                    MpiLinkError(
                        f"injected hard link failure on transfer "
                        f"#{faults.transfer_count} (rank {rank})"
                    )
                )
                return
            # Dropped: retransmit after exponential backoff, within budgets.
            if attempt_no[0] > scenario.mpi_max_retries:
                done.fail(
                    MpiLinkError(
                        f"transfer from rank {rank} lost after "
                        f"{attempt_no[0]} attempts"
                    )
                )
                return
            backoff = scenario.mpi_retry_backoff_s * (2.0 ** (attempt_no[0] - 1))
            if timeout is not None and elapsed + backoff > timeout:
                faults.record("timeout", rank=_detail(rank), elapsed=elapsed)
                done.fail(
                    MpiTimeoutError(
                        f"transfer from rank {rank} cannot retry within the "
                        f"MPI timeout ({timeout:g} s)"
                    )
                )
                return
            faults.record(
                "retry", rank=_detail(rank), attempts=attempt_no[0], backoff=backoff
            )
            sim.timeout(backoff).add_callback(lambda _ev: start())

        start()
        return done

    def after_latency(self, n_messages: float, event: Event | None = None) -> Event:
        """Event firing ``n_messages * latency`` after now (or after ``event``)."""
        delay = n_messages * self.latency
        if event is None:
            return self.sim.timeout(delay, name="net-latency")
        out = Event(self.sim, name="net-latency")

        def _chain(ev: Event) -> None:
            t = self.sim.timeout(delay)
            t.add_callback(lambda _: out.succeed(ev._value))

        event.add_callback(_chain)
        return out

    def engine_stats(self) -> dict[str, int]:
        """Summed fluid-engine counters over this model's transport resources."""
        return dict(self.resource.stats())

    # -- per-collective latency message counts --------------------------------

    @staticmethod
    def alltoall_messages(n_ranks: int) -> int:
        """Messages each rank sends in a pairwise-exchange alltoall."""
        return max(n_ranks - 1, 0)

    @staticmethod
    def tree_messages(n_ranks: int) -> int:
        """Tree depth for barrier/bcast-style collectives."""
        return int(math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetworkModel(capacity={self.capacity:.3g} B/s, "
            f"injection={self.injection_bw:.3g} B/s, latency={self.latency:.3g} s)"
        )


class ClusterNetworkModel(NetworkModel):
    """Two-tier transport: on-node memory system + inter-node fabric.

    Intra-node traffic uses one :class:`NetworkModel`-style fluid resource
    *per node* (nodes' memory systems are independent); inter-node traffic
    shares a single fabric resource whose injection cap applies per *node*
    (the NIC — all ranks of a node share it, however many threads call MPI).

    Parameters
    ----------
    node_of:
        Callable mapping a world rank to its node index.
    inter_capacity / inter_injection_bw / inter_latency:
        Fabric parameters (bisection bandwidth, per-node NIC bandwidth,
        per-message fabric latency).
    link_capacity:
        Optional per-directed-link bandwidth (B/s).  When set, every
        ordered node pair gets its own fluid resource and inter-node
        traffic must clear *both* the shared fabric (bisection) and its
        link — hot node pairs contend with themselves before the fabric
        saturates.  ``None`` (default) keeps the single-fabric model and
        its timings bit-identical.

    Per-link byte/message counters (:attr:`link_bytes`,
    :attr:`link_messages`, :attr:`inter_messages`) are always on — they
    feed the run manifest's ``internode`` section.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        injection_bw: float,
        latency: float,
        node_of: _t.Callable[[object], int],
        inter_capacity: float,
        inter_injection_bw: float,
        inter_latency: float,
        link_capacity: float | None = None,
    ):
        super().__init__(sim, capacity, injection_bw, latency)
        if inter_capacity <= 0 or inter_injection_bw <= 0:
            raise ValueError("inter-node bandwidths must be positive")
        if inter_latency < 0:
            raise ValueError(f"inter_latency must be >= 0, got {inter_latency}")
        if link_capacity is not None and link_capacity <= 0:
            raise ValueError(f"link_capacity must be positive, got {link_capacity}")
        self.node_of = node_of  # overrides the base's constant-0 mapping
        self.inter_latency = inter_latency
        self.link_capacity = link_capacity
        self._node_resources: dict[int, FluidResource] = {}
        self._link_resources: dict[tuple[int, int], FluidResource] = {}
        self._fabric = FluidResource(
            sim,
            RankAwareAllocator(inter_capacity, inter_injection_bw),
            name="fabric",
        )
        #: Bytes that crossed the fabric (diagnostics / tests).
        self.inter_bytes = 0.0
        #: Fabric-crossing sender bursts (one per transfer_parts call that
        #: had at least one off-node destination).
        self.inter_messages = 0
        #: Bytes per directed node pair ``(src_node, dst_node)``.
        self.link_bytes: dict[tuple[int, int], float] = {}
        #: Bursts per directed node pair.
        self.link_messages: dict[tuple[int, int], int] = {}

    def _node_resource(self, node: int) -> FluidResource:
        res = self._node_resources.get(node)
        if res is None:
            res = FluidResource(
                self.sim,
                RankAwareAllocator(self.capacity, self.injection_bw),
                name=f"net-node{node}",
            )
            self._node_resources[node] = res
        return res

    def transfer_parts(
        self, src_rank: object, parts: _t.Sequence[tuple[int, float]]
    ) -> Event:
        if self.faults is not None and self.faults.scenario.guards_transfers:
            return self._guarded(
                src_rank, lambda: self._attempt_parts(src_rank, parts)
            )
        return self._attempt_parts(src_rank, parts)

    def _link_resource(self, src_node: int, dst_node: int) -> FluidResource:
        key = (src_node, dst_node)
        res = self._link_resources.get(key)
        if res is None:
            res = FluidResource(
                self.sim,
                RankAwareAllocator(self.link_capacity, self.injection_bw),
                name=f"link{src_node}-{dst_node}",
            )
            self._link_resources[key] = res
        return res

    def _attempt_parts(
        self, src_rank: object, parts: _t.Sequence[tuple[int, float]]
    ) -> Event:
        src_node = self.node_of(src_rank)
        intra = 0.0
        inter = 0.0
        per_dst_node: dict[int, float] = {}
        for dst, nbytes in parts:
            dst_node = self.node_of(dst)
            if dst_node == src_node:
                intra += nbytes
            else:
                inter += nbytes
                per_dst_node[dst_node] = per_dst_node.get(dst_node, 0.0) + nbytes
        self.bytes_transferred += intra + inter
        self.inter_bytes += inter
        if inter > 0:
            self.inter_messages += 1
            for dst_node, nbytes in per_dst_node.items():
                key = (src_node, dst_node)
                self.link_bytes[key] = self.link_bytes.get(key, 0.0) + nbytes
                self.link_messages[key] = self.link_messages.get(key, 0) + 1
        work_factor = (
            self.faults.transfer_work_factor(src_rank)
            if self.faults is not None
            else 1.0
        )
        pieces = []
        if intra > 0:
            task = self._node_resource(src_node).submit(
                intra * work_factor, meta={"rank": src_rank}
            )
            pieces.append(task.done)
        if inter > 0:
            # NIC sharing: the fabric allocator keys on the *node*.
            task = self._fabric.submit(
                inter * work_factor, meta={"rank": ("node", src_node)}
            )
            pieces.append(task.done)
            if self.link_capacity is not None:
                # Per-link contention: the burst must also clear each
                # directed link it uses (the slower of fabric and link
                # governs completion).
                for dst_node, nbytes in per_dst_node.items():
                    task = self._link_resource(src_node, dst_node).submit(
                        nbytes * work_factor, meta={"rank": ("node", src_node)}
                    )
                    pieces.append(task.done)
        done = Event(self.sim, name="cluster-transfer")
        if not pieces:
            done.succeed(0.0)
        else:
            self.sim.all_of(pieces).add_callback(lambda ev: done.succeed(intra + inter))
        return done

    def _attempt(self, nbytes: float, rank: object) -> Event:
        """Destination-less transfers stay on the sender's node."""
        if rank is None:
            return super()._attempt(nbytes, rank)
        self.bytes_transferred += nbytes
        work = nbytes
        if self.faults is not None:
            work *= self.faults.transfer_work_factor(rank)
        done = Event(self.sim, name="net-transfer")
        task = self._node_resource(self.node_of(rank)).submit(
            work, meta={"rank": rank}
        )
        task.done.add_callback(lambda ev: done.succeed(nbytes))
        return done

    def message_latency(self, ranks: _t.Sequence[int]) -> float:
        nodes = {self.node_of(r) for r in ranks}
        return self.inter_latency if len(nodes) > 1 else self.latency

    def engine_stats(self) -> dict[str, int]:
        """Counters summed over the base, per-node, fabric and link resources."""
        total = super().engine_stats()
        for res in [
            *self._node_resources.values(),
            self._fabric,
            *self._link_resources.values(),
        ]:
            for k, v in res.stats().items():
                total[k] = total.get(k, 0) + v
        return total

    def internode_summary(self) -> dict:
        """Inter-node counters for the run manifest's ``internode`` section."""
        return {
            "inter_bytes": self.inter_bytes,
            "inter_messages": self.inter_messages,
            "link_bytes": {
                f"{src}->{dst}": nbytes
                for (src, dst), nbytes in sorted(self.link_bytes.items())
            },
            "link_messages": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.link_messages.items())
            },
        }
