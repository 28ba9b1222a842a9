"""Regression triage: synthetic manifest pairs with planted blame, and the
manifest diff on two real runs (``original`` vs ``ompss_perfft``)."""

import pytest

from repro.analysis.triage import diff_manifests, triage_pair
from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import build_manifest


def manifest(label="cfg", phase_time=1.0, phases=None, mpi=None,
             pop=None, engine=None):
    doc = {
        "kind": "repro.run_manifest",
        "config": {"label": label},
        "timing": {"phase_time_s": phase_time},
        "phases": phases or {},
        "mpi": mpi or {},
        "average_ipc": 1.0,
    }
    if pop is not None:
        doc["analysis"] = {"pop": pop}
    if engine is not None:
        doc["engine"] = engine
    return doc


BASE_PHASES = {
    "fft_xy": {"time_s": 0.6, "ipc": 1.0},
    "pack": {"time_s": 0.2, "ipc": 0.8},
}
BASE_POP = {
    "parallel_efficiency": 0.8,
    "load_balance": 0.95,
    "serialization_efficiency": 0.95,
    "transfer_efficiency": 0.89,
}


class TestTriagePair:
    def test_neutral_on_identical_runs(self):
        a = manifest(phases=BASE_PHASES, pop=BASE_POP)
        report = triage_pair(a, a)
        assert report.verdict == "neutral"
        assert report.runtime_relative == pytest.approx(0.0)
        # only the runtime headline survives; nothing moved
        assert [f.kind for f in report.findings] == ["runtime"]
        assert report.dominant is None

    def test_regression_names_dominant_phase_and_factor(self):
        a = manifest(phases=BASE_PHASES, pop=BASE_POP)
        slow_phases = {
            "fft_xy": {"time_s": 0.9, "ipc": 0.7},  # planted regression
            "pack": {"time_s": 0.2, "ipc": 0.8},
        }
        slow_pop = dict(BASE_POP, parallel_efficiency=0.6, load_balance=0.7)
        b = manifest(phase_time=1.3, phases=slow_phases, pop=slow_pop)
        report = triage_pair(a, b)
        assert report.verdict == "regression"
        assert report.dominant_phase == "fft_xy"
        # load_balance dropped most (0.95 -> 0.70)
        assert report.dominant_factor == "load_balance"
        assert any(f.kind == "runtime" for f in report.findings)

    def test_improvement_verdict(self):
        a = manifest(phases=BASE_PHASES)
        b = manifest(phase_time=0.8, phases=BASE_PHASES)
        assert triage_pair(a, b).verdict == "improvement"

    def test_threshold_widens_neutral_band(self):
        a = manifest(phase_time=1.0, phases=BASE_PHASES)
        b = manifest(phase_time=1.05, phases=BASE_PHASES)
        assert triage_pair(a, b, threshold=0.02).verdict == "regression"
        assert triage_pair(a, b, threshold=0.10).verdict == "neutral"

    def test_negative_threshold_rejected(self):
        a = manifest()
        with pytest.raises(ValueError):
            triage_pair(a, a, threshold=-0.1)

    def test_mpi_layer_finding(self):
        a = manifest(mpi={"scatter": {"time_s": 0.1}})
        b = manifest(phase_time=1.2, mpi={"scatter": {"time_s": 0.3}})
        report = triage_pair(a, b)
        (finding,) = [f for f in report.findings if f.kind == "mpi_layer"]
        assert finding.subject == "scatter"
        assert finding.delta == pytest.approx(0.2)

    def test_counter_findings_never_headline(self):
        engine_a = {"cpu": {"rebalances": 10.0, "events": 100.0}}
        engine_b = {"cpu": {"rebalances": 40.0, "events": 100.0}}
        a = manifest(phases=BASE_PHASES, engine=engine_a)
        b = manifest(
            phase_time=1.3,
            phases={"fft_xy": {"time_s": 0.9, "ipc": 0.7},
                    "pack": {"time_s": 0.2, "ipc": 0.8}},
            engine=engine_b,
        )
        report = triage_pair(a, b)
        counters = [f for f in report.findings if f.kind == "counter"]
        assert counters and counters[0].subject == "engine.cpu.rebalances"
        # a counter explains but never outranks the moved phase
        assert report.dominant.kind == "phase"

    def test_to_dict_roundtrips_infinities(self):
        a = manifest(phases={"new_phase": {"time_s": 0.0, "ipc": 0.0}})
        b = manifest(phase_time=1.2,
                     phases={"new_phase": {"time_s": 0.2, "ipc": 1.0}})
        doc = triage_pair(a, b).to_dict()
        (finding,) = [f for f in doc["findings"] if f["kind"] == "phase"]
        assert finding["relative"] is None  # inf serialized as null
        assert doc["verdict"] == "regression"
        assert doc["dominant_phase"] == "new_phase"


@pytest.fixture(scope="module")
def real():
    """Telemetry manifests of the small 2x2 original and per-FFT runs."""
    return {
        version: build_manifest(
            run_fft_phase(
                RunConfig(
                    ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2,
                    version=version, telemetry=True,
                )
            )
        )
        for version in ("original", "ompss_perfft")
    }


class TestRealManifests:
    def test_self_comparison_is_neutral(self, real):
        a = real["original"]
        diff = diff_manifests(a, a)
        assert diff.runtime_relative == 0.0
        assert all(p.relative == 0.0 for p in diff.phases)
        report = triage_pair(a, a)
        assert report.verdict == "neutral"
        assert [f.kind for f in report.findings] == ["runtime"]

    def test_phase_missing_from_b_is_minus_one(self, real):
        diff = diff_manifests(real["original"], real["ompss_perfft"])
        pack = next(p for p in diff.phases if p.name == "pack_sticks")
        assert pack.time_a > 0 and pack.time_b == 0.0
        assert pack.relative == -1.0
        report = triage_pair(real["original"], real["ompss_perfft"])
        (finding,) = [
            f for f in report.findings
            if f.kind == "phase" and f.subject == "pack_sticks"
        ]
        assert finding.relative == -1.0

    def test_phase_new_in_b_is_inf_and_null_in_json(self, real):
        diff = diff_manifests(real["ompss_perfft"], real["original"])
        pack = next(p for p in diff.phases if p.name == "pack_sticks")
        assert pack.relative == float("inf")
        doc = triage_pair(real["ompss_perfft"], real["original"]).to_dict()
        (finding,) = [
            f for f in doc["findings"]
            if f["kind"] == "phase" and f["subject"] == "pack_sticks"
        ]
        assert finding["relative"] is None

    def test_mpi_time_is_split_per_layer(self, real):
        diff = diff_manifests(real["original"], real["ompss_perfft"])
        # The original has both MPI layers; the per-FFT version has no pack.
        assert {"pack", "scatter"} <= set(diff.mpi_a)
        assert "pack" not in diff.mpi_b
        report = triage_pair(real["original"], real["ompss_perfft"])
        layers = {f.subject for f in report.findings if f.kind == "mpi_layer"}
        assert {"pack", "scatter"} <= layers
