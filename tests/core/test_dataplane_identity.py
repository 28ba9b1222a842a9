"""Data-plane contracts: cached index maps, fresh inputs, the dataplane record.

The cached index maps every exchange plan is built from equal a
from-scratch recompute; the coefficient split hands each process fresh
contiguous rows; and every data-mode run reports its ``dataplane`` record
(decomposition plus kernel counters) in the result, the telemetry gauges
and the manifest — meta-mode runs report none.
"""

import numpy as np
import pytest

from repro.core import RunConfig, run_fft_phase
from repro.core.wave import distribute_coefficients, make_band_coefficients
from repro.grids.descriptor import Cell, DistributedLayout, FftDescriptor
from repro.telemetry.manifest import build_manifest, validate_manifest

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def small_config(**kwargs):
    return RunConfig(**{**SMALL, **kwargs})


class TestIndexMapCaching:
    @pytest.fixture(scope="class")
    def layouts(self):
        desc_a = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        desc_b = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        return (
            DistributedLayout(desc_a, n_scatter=2, n_groups=2),
            DistributedLayout(desc_b, n_scatter=2, n_groups=2),
        )

    def test_cached_maps_equal_fresh_recompute(self, layouts):
        warm, cold = layouts
        # Warm every cache, then compare against the untouched twin layout.
        for p in range(warm.P):
            warm.local_flat_index(p)
            warm.local_g_table(p)
        for r in range(warm.R):
            warm.group_flat_index(r)
            warm.group_coeff_offsets(r)
        warm.scatter_plane_index()
        for p in range(warm.P):
            np.testing.assert_array_equal(
                warm.local_flat_index(p), cold.local_flat_index(p)
            )
            for a, b in zip(warm.local_g_table(p), cold.local_g_table(p)):
                np.testing.assert_array_equal(a, b)
        for r in range(warm.R):
            np.testing.assert_array_equal(
                warm.group_flat_index(r), cold.group_flat_index(r)
            )
            np.testing.assert_array_equal(
                warm.group_coeff_offsets(r), cold.group_coeff_offsets(r)
            )
        np.testing.assert_array_equal(
            warm.scatter_plane_index(), cold.scatter_plane_index()
        )

    def test_maps_cached_by_identity(self, layouts):
        layout, _ = layouts
        assert layout.local_flat_index(0) is layout.local_flat_index(0)
        assert layout.group_flat_index(0) is layout.group_flat_index(0)
        assert layout.scatter_plane_index() is layout.scatter_plane_index()

    def test_flat_index_consistent_with_g_table(self, layouts):
        layout, _ = layouts
        nr3 = layout.desc.nr3
        for p in range(layout.P):
            _g, stick_local, iz = layout.local_g_table(p)
            np.testing.assert_array_equal(
                layout.local_flat_index(p), stick_local * nr3 + iz
            )


class TestNoCopyMarshalling:
    @pytest.fixture(scope="class")
    def layout(self):
        desc = FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)
        return DistributedLayout(desc, n_scatter=2, n_groups=2)

    def test_distribute_coefficients_rows_fresh_and_contiguous(self, layout):
        coeffs = make_band_coefficients(layout.desc.ngw, 4, seed=0)
        per_proc = distribute_coefficients(layout, coeffs)
        assert len(per_proc) == layout.P
        for p, arr in enumerate(per_proc):
            assert arr.shape == (4, layout.ngw_of(p))
            assert arr.flags.c_contiguous
            # Fresh storage: mutating the split must not touch the source.
            assert not np.shares_memory(arr, coeffs)


class TestDataplaneStats:
    def test_data_mode_run_reports_dataplane(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True)
        dp = run_fft_phase(cfg).dataplane
        assert dp is not None
        assert set(dp) == {"decomposition", "kernel_backend", "kernel_calls", "kernel_rows"}
        assert dp["decomposition"] == "slab"
        assert dp["kernel_calls"] > 0

    def test_meta_mode_and_disabled_have_no_dataplane(self):
        """Meta mode is the one run without a data plane."""
        meta = run_fft_phase(small_config(ranks=2, taskgroups=2, data_mode=False))
        assert meta.dataplane is None

    def test_dataplane_gauges_exported_to_telemetry(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True, telemetry=True)
        res = run_fft_phase(cfg)
        snapshot = res.telemetry.metrics.snapshot()
        for name in ("dataplane.kernel_calls", "dataplane.kernel_rows"):
            assert name in snapshot, name
            assert snapshot[name]["kind"] == "gauge"

    def test_manifest_carries_dataplane_section(self):
        cfg = small_config(ranks=2, taskgroups=2, data_mode=True, telemetry=True)
        res = run_fft_phase(cfg)
        manifest = build_manifest(res, wall_time_s=0.1)
        assert validate_manifest(manifest) == []
        assert manifest["dataplane"] == res.dataplane

    def test_manifest_omits_dataplane_when_disabled(self):
        """A meta-mode run (no data plane) writes no dataplane section."""
        cfg = small_config(ranks=2, taskgroups=2, data_mode=False, telemetry=True)
        res = run_fft_phase(cfg)
        manifest = build_manifest(res, wall_time_s=0.1)
        assert validate_manifest(manifest) == []
        assert "dataplane" not in manifest
