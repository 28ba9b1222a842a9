"""The kernel engine behind the data plane: backend choice and telemetry.

``fft_backend`` is a pure host-side knob: the cost model never sees it, so
simulated timings must not move.  The engine's call and row counters ride
the run's ``dataplane`` section and its ``dataplane.*`` gauges, and a
meta-mode run (which executes no kernels) never builds an engine at all.
"""

from repro.core import RunConfig, run_fft_phase

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def test_backend_choice_does_not_move_simulated_time():
    times = set()
    for backend in ("numpy", "native"):
        cfg = RunConfig(
            **SMALL, ranks=2, taskgroups=2, data_mode=True, fft_backend=backend
        )
        times.add(run_fft_phase(cfg).phase_time)
    assert len(times) == 1


def test_dataplane_carries_kernel_gauges():
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, data_mode=True, telemetry=True)
    result = run_fft_phase(cfg)
    dp = result.dataplane
    assert dp is not None
    assert dp["kernel_backend"] == "numpy"
    assert dp["kernel_rows"] >= dp["kernel_calls"] > 0
    snap = result.telemetry.metrics.snapshot()
    gauges = {
        name: fam["series"][0]["value"]
        for name, fam in snap.items()
        if name.startswith("dataplane.kernel")
    }
    assert gauges["dataplane.kernel_calls"] == float(dp["kernel_calls"])
    assert gauges["dataplane.kernel_rows"] == float(dp["kernel_rows"])
    # The backend name is a string label, not a gauge.
    assert "dataplane.kernel_backend" not in snap


def test_manifest_config_records_the_knobs():
    from repro.telemetry.manifest import build_manifest

    cfg = RunConfig(
        **SMALL, ranks=2, taskgroups=2, data_mode=True,
        fft_backend="native", telemetry=True,
    )
    manifest = build_manifest(run_fft_phase(cfg))
    assert manifest["config"]["fft_backend"] == "native"
    assert manifest["dataplane"]["kernel_backend"] == "native"


def test_meta_mode_never_builds_an_engine(monkeypatch):
    # A meta-mode run executes no kernels, so even a config naming an
    # uninstalled optional backend simulates fine.
    from repro.fft.backends.scipy_backend import ScipyBackend

    monkeypatch.setattr(
        ScipyBackend, "availability", lambda self: (False, "uninstalled (test)")
    )
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, fft_backend="scipy")
    result = run_fft_phase(cfg)
    assert result.phase_time > 0
    assert result.dataplane is None
