"""The POP efficiency model (Tables I and II).

Following Rosas/Giménez/Labarta (the paper's ref. [10]), overall efficiency
is decomposed multiplicatively:

* **Load balance** = mean over streams of useful compute time / max.
* **Communication efficiency** = max useful compute time / runtime, split as
  **serialization (sync) x transfer**, where transfer efficiency is measured
  by replaying the run on an *ideal network* (zero latency, infinite
  bandwidth) — the classic Dimemas what-if, which a simulator performs
  exactly;
* **Parallel efficiency** = load balance x communication efficiency.
* **Computation scalability** (vs. the smallest run) = total useful compute
  time of the base / this run, further split into **IPC scalability** and
  **instruction scalability**.
* **Global efficiency** = parallel efficiency x computation scalability.

The efficiency factors come from :func:`repro.analysis.pop.pop_factors`,
the arithmetic the per-phase analysis shares; this module adds the
scalability rows, which need a base run.

A *stream* is what the analysis treats as a process: an MPI rank in the
original version, an (MPI rank, thread) pair in the task versions — exactly
how the paper's Tables I/II compare "1-16 ranks with 8 FFT task groups /
8 OmpSs tasks each".
"""

from __future__ import annotations

import dataclasses

from repro.analysis.pop import pop_factors
from repro.core.driver import RunResult
from repro.machine.knl import KnlParameters

__all__ = [
    "FactorSet",
    "BaseMetrics",
    "RunAggregates",
    "factors_from_run",
    "factors_from_aggregates",
    "ideal_network",
]


@dataclasses.dataclass(frozen=True)
class BaseMetrics:
    """Aggregates of the smallest (reference) run."""

    total_compute_time: float
    total_instructions: float
    average_ipc: float

    @classmethod
    def from_run(cls, result: RunResult) -> "BaseMetrics":
        c = result.cpu.counters
        return cls(
            total_compute_time=c.total_compute_time(),
            total_instructions=c.total_instructions(),
            average_ipc=c.average_ipc(),
        )


@dataclasses.dataclass(frozen=True)
class RunAggregates:
    """Everything the factor decomposition needs from one run.

    The point of splitting these off :class:`RunResult` is that they are a
    handful of floats — JSON-serializable and picklable — while the result
    object holds the whole simulated world.  Sweep workers reduce each run to
    its aggregates in-process; the parent then computes factor columns with
    :func:`factors_from_aggregates` once the base run is known.
    """

    runtime: float
    per_stream_compute: tuple[float, ...]
    total_compute_time: float
    total_instructions: float
    average_ipc: float

    @classmethod
    def from_run(cls, result: RunResult) -> "RunAggregates":
        counters = result.cpu.counters
        return cls(
            runtime=result.phase_time,
            per_stream_compute=tuple(
                counters.stream_compute_time(s) for s in counters.streams
            ),
            total_compute_time=counters.total_compute_time(),
            total_instructions=counters.total_instructions(),
            average_ipc=counters.average_ipc(),
        )

    def base_metrics(self) -> BaseMetrics:
        """This run viewed as the reference column."""
        return BaseMetrics(
            total_compute_time=self.total_compute_time,
            total_instructions=self.total_instructions,
            average_ipc=self.average_ipc,
        )

    def to_dict(self) -> dict:
        return {
            "runtime": self.runtime,
            "per_stream_compute": list(self.per_stream_compute),
            "total_compute_time": self.total_compute_time,
            "total_instructions": self.total_instructions,
            "average_ipc": self.average_ipc,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunAggregates":
        return cls(
            runtime=doc["runtime"],
            per_stream_compute=tuple(doc["per_stream_compute"]),
            total_compute_time=doc["total_compute_time"],
            total_instructions=doc["total_instructions"],
            average_ipc=doc["average_ipc"],
        )


@dataclasses.dataclass(frozen=True)
class FactorSet:
    """One column of Table I/II (fractions in [0, ~1])."""

    parallel_efficiency: float
    load_balance: float
    communication_efficiency: float
    synchronization_efficiency: float
    transfer_efficiency: float
    computation_scalability: float
    ipc_scalability: float
    instruction_scalability: float
    global_efficiency: float

    def as_rows(self) -> list[tuple[str, float]]:
        """Ordered (label, value) rows matching the paper's table layout."""
        return [
            ("Parallel efficiency", self.parallel_efficiency),
            ("-> Load Balance", self.load_balance),
            ("-> Communication Efficiency", self.communication_efficiency),
            ("   -> Synchronization", self.synchronization_efficiency),
            ("   -> Transfer", self.transfer_efficiency),
            ("Computation Scalability", self.computation_scalability),
            ("-> IPC Scalability", self.ipc_scalability),
            ("-> Instructions Scalability", self.instruction_scalability),
            ("Global Efficiency", self.global_efficiency),
        ]


def ideal_network(knl: KnlParameters | None = None) -> KnlParameters:
    """The what-if machine: same nodes, instantaneous MPI transport.

    Both the on-node network and the inter-node fabric lose their latency
    and bandwidth limits, so a multi-node replay is as ideal as a
    single-node one.
    """
    base = knl or KnlParameters()
    return dataclasses.replace(
        base,
        net_latency=0.0,
        net_injection_bw=1e18,
        net_capacity=1e18,
        fabric_latency=0.0,
        fabric_injection_bw=1e18,
    )


def factors_from_run(
    result: RunResult,
    ideal_time: float | None = None,
    base: BaseMetrics | None = None,
) -> FactorSet:
    """Compute the factor column for one run.

    Parameters
    ----------
    result:
        The measured run.
    ideal_time:
        Runtime of the same configuration on the ideal network; without it
        the sync/transfer split is not identified (transfer is reported as
        1.0 and synchronization carries the communication efficiency).
    base:
        Aggregates of the smallest run; defaults to this run itself (i.e.
        the base column, scalability = 1).
    """
    return factors_from_aggregates(
        RunAggregates.from_run(result), ideal_time=ideal_time, base=base
    )


def factors_from_aggregates(
    agg: RunAggregates,
    ideal_time: float | None = None,
    base: BaseMetrics | None = None,
) -> FactorSet:
    """Compute a factor column from reduced aggregates (see their docstring).

    Semantics (parameters, defaults, identified splits) are exactly those of
    :func:`factors_from_run`; the float operation order is identical, so the
    two paths produce bit-equal columns.
    """
    (
        load_balance,
        comm_eff,
        sync_eff,
        transfer_eff,
        parallel_eff,
    ) = pop_factors(agg.per_stream_compute, agg.runtime, ideal_time)

    if base is None:
        base = agg.base_metrics()
    total_compute = agg.total_compute_time
    total_instr = agg.total_instructions
    comp_scal = base.total_compute_time / total_compute if total_compute > 0 else 1.0
    ipc_scal = agg.average_ipc / base.average_ipc if base.average_ipc > 0 else 1.0
    instr_scal = base.total_instructions / total_instr if total_instr > 0 else 1.0

    return FactorSet(
        parallel_efficiency=parallel_eff,
        load_balance=load_balance,
        communication_efficiency=comm_eff,
        synchronization_efficiency=sync_eff,
        transfer_efficiency=transfer_eff,
        computation_scalability=comp_scal,
        ipc_scalability=ipc_scal,
        instruction_scalability=instr_scal,
        global_efficiency=parallel_eff * comp_scal,
    )
