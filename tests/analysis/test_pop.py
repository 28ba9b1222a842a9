"""POP efficiency decomposition on hand-computable synthetic timelines."""

import pytest

from repro.analysis import analyze_run
from repro.analysis.pop import (
    PopDecomposition,
    StreamTimeline,
    decompose,
    timelines_from_trace,
)
from repro.core import RunConfig, run_fft_phase
from repro.machine.cpu import ComputeRecord
from repro.mpisim.world import MpiRecord
from repro.perf.popmodel import RunAggregates, factors_from_aggregates
from repro.sweep.engine import ideal_replay
from repro.telemetry.trace import Trace


def two_rank_timelines():
    """Rank A computes 8 s; rank B computes 4 s and waits 2 s in MPI."""
    a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0})
    b = StreamTimeline(
        stream="B",
        compute_by_phase={"fft": 4.0},
        mpi_sync_by_layer={"pack": 2.0},
        mpi_transfer_by_layer={"pack": 1.0},
    )
    return [a, b]


class TestDecompose:
    def test_two_rank_estimate_split(self):
        # T = 10: max C = 8, mean C = 6 -> LB 0.75, comm eff 0.8.
        # Estimated ideal runtime = max_s(C + S) = max(8, 6) = 8
        # -> transfer 8/10 = 0.8, serialization 8/8 = 1.0.
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        assert pop.load_balance == pytest.approx(0.75)
        assert pop.communication_efficiency == pytest.approx(0.8)
        assert pop.parallel_efficiency == pytest.approx(0.6)
        assert pop.transfer_efficiency == pytest.approx(0.8)
        assert pop.serialization_efficiency == pytest.approx(1.0)
        assert pop.split_source == "estimate"
        assert pop.ideal_runtime_s == pytest.approx(8.0)

    def test_multiplicative_identity(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        product = (
            pop.load_balance
            * pop.serialization_efficiency
            * pop.transfer_efficiency
        )
        assert product == pytest.approx(pop.parallel_efficiency, rel=1e-12)
        # parallel efficiency == mean C / T by definition
        assert pop.parallel_efficiency == pytest.approx(6.0 / 10.0, rel=1e-12)

    def test_replay_split(self):
        # A measured ideal-network runtime pins the transfer share exactly.
        pop = decompose(two_rank_timelines(), makespan_s=10.0, ideal_time_s=9.0)
        assert pop.split_source == "replay"
        assert pop.transfer_efficiency == pytest.approx(0.9)
        assert pop.serialization_efficiency == pytest.approx(8.0 / 9.0)

    def test_neutral_split_without_mpi(self):
        a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0})
        b = StreamTimeline(stream="B", compute_by_phase={"fft": 4.0})
        pop = decompose([a, b], makespan_s=10.0)
        assert pop.split_source == "neutral"
        assert pop.transfer_efficiency == 1.0
        assert pop.serialization_efficiency == pytest.approx(0.8)
        assert pop.parallel_efficiency == pytest.approx(0.6)

    def test_per_phase_load_balance(self):
        a = StreamTimeline(stream="A", compute_by_phase={"fft": 8.0, "pack": 1.0})
        b = StreamTimeline(stream="B", compute_by_phase={"fft": 4.0, "pack": 1.0})
        pop = decompose([a, b], makespan_s=10.0)
        by_name = {p.phase: p for p in pop.phases}
        assert by_name["fft"].load_balance == pytest.approx(0.75)
        assert by_name["pack"].load_balance == pytest.approx(1.0)
        assert by_name["fft"].time_total_s == pytest.approx(12.0)
        assert by_name["fft"].n_streams == 2

    def test_comm_layer_split(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        layers = {c.layer: c for c in pop.comm_layers}
        assert layers["pack"].sync_s == pytest.approx(2.0)
        assert layers["pack"].transfer_s == pytest.approx(1.0)
        assert layers["pack"].sync_fraction == pytest.approx(2.0 / 3.0)

    def test_empty_timelines_rejected(self):
        with pytest.raises(ValueError):
            decompose([], makespan_s=1.0)

    def test_nonpositive_makespan_rejected(self):
        with pytest.raises(ValueError):
            decompose(two_rank_timelines(), makespan_s=0.0)

    def test_roundtrip_through_dict(self):
        pop = decompose(two_rank_timelines(), makespan_s=10.0)
        doc = pop.to_dict()
        back = PopDecomposition.from_dict(doc)
        assert back.parallel_efficiency == pop.parallel_efficiency
        assert back.split_source == pop.split_source
        assert [p.phase for p in back.phases] == [p.phase for p in pop.phases]
        assert [c.layer for c in back.comm_layers] == ["pack"]


class TestTimelinesFromTrace:
    def test_aggregation_by_phase_and_layer(self):
        trace = Trace()
        trace.compute.append(
            ComputeRecord(stream=0, thread=None, phase="fft",
                          instructions=1e6, start=0.0, end=2.0)
        )
        trace.compute.append(
            ComputeRecord(stream=0, thread=None, phase="fft",
                          instructions=1e6, start=3.0, end=4.0)
        )
        trace.mpi.append(
            MpiRecord(stream=0, call="alltoall", comm_id=1, comm_name="pack3",
                      t_begin=2.0, t_end=3.0, bytes_sent=100.0, sync_time=0.25)
        )
        (tl,) = timelines_from_trace(trace)
        assert tl.compute_by_phase == {"fft": 3.0}
        # pack3 folds into the "pack" layer; sync/transfer split preserved.
        assert tl.mpi_sync_by_layer == {"pack": 0.25}
        assert tl.mpi_transfer_by_layer == {"pack": 0.75}
        assert tl.compute_time == pytest.approx(3.0)


class TestRunLevelAgreement:
    """The per-phase analysis and the Table I/II columns share one
    arithmetic: on real runs with a replay they report equal factors."""

    @pytest.mark.parametrize("version", ["original", "ompss_perfft"])
    def test_analysis_equals_table_column(self, version):
        cfg = RunConfig(
            ecutwfc=12.0, alat=5.0, nbnd=16, ranks=2, taskgroups=8,
            version=version, telemetry=True,
        )
        result = run_fft_phase(cfg)
        ideal = ideal_replay(cfg).phase_time
        pop = analyze_run(result, ideal).pop
        agg = RunAggregates.from_run(result)
        column = factors_from_aggregates(agg, ideal)
        assert pop.split_source == "replay"
        assert pop.load_balance == column.load_balance
        assert pop.communication_efficiency == column.communication_efficiency
        assert pop.serialization_efficiency == column.synchronization_efficiency
        assert pop.transfer_efficiency == column.transfer_efficiency
        assert pop.parallel_efficiency == column.parallel_efficiency
        # Per-phase compute aggregates to the streams' compute.
        assert sum(p.time_total_s for p in pop.phases) == pytest.approx(
            sum(agg.per_stream_compute), rel=1e-12
        )
