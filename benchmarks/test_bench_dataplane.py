"""Data-plane microbenchmarks: pack-free exchanges, FFT stage, full run.

Times the layers the data plane is built from, bottom up:

* the pack and scatter Alltoallw element moves of one group, applied with
  numpy from the cached plan indices (what the simulated collective does),
* the batched z-stick FFT on a fresh output,
* one full reference data-mode run, reporting the ``dataplane`` counters
  the run manifest exports.

Absolute bands/s are tracked by the committed ratchet baseline
``BENCH_dataplane.json`` (see ``perf_guard.py --target dataplane``); these
benchmarks only assert structural facts that hold at any machine speed.
"""

import numpy as np

from repro.core import redistribute as redist
from repro.core.driver import RunConfig, run_fft_phase
from repro.fft import cft_1z
from repro.grids.descriptor import Cell, DistributedLayout, FftDescriptor

_RNG = np.random.default_rng(7)


def _reference_config():
    return RunConfig(
        ranks=8,
        taskgroups=8,
        version="original",
        ecutwfc=30.0,
        alat=10.0,
        nbnd=32,
        data_mode=True,
    )


def _reference_layout():
    desc = FftDescriptor(Cell(alat=10.0), ecutwfc=30.0)
    return DistributedLayout(desc, n_scatter=8, n_groups=8)


def _random(shape):
    return _RNG.standard_normal(shape) + 1j * _RNG.standard_normal(shape)


def _exchange(plans, sends):
    """Every member's receive buffer after one Alltoallw of ``plans``."""
    recvs = []
    for i, plan in enumerate(plans):
        recv = np.zeros(plan.recv_shape, dtype=np.complex128)
        flat = recv.reshape(-1)
        for j, send in enumerate(sends):
            flat[plan.recv_blocks[j].indices()] = send.reshape(-1)[
                plans[j].send_blocks[i].indices()
            ]
        recvs.append(recv)
    return recvs


def test_bench_pack_exchange(benchmark):
    layout = _reference_layout()
    r = 0
    procs = [layout.proc_of(r, t) for t in range(layout.T)]
    plans = [redist.pack_fw_plan(layout, p, True) for p in procs]
    rows = [_random((layout.T, layout.ngw_of(p))) for p in procs]
    blocks = benchmark(_exchange, plans, rows)
    # Each member's group block holds exactly its group's sphere share.
    ngw_group = int(layout.group_coeff_offsets(r)[-1])
    assert all(np.count_nonzero(b) == ngw_group for b in blocks)


def test_bench_scatter_exchange(benchmark):
    layout = _reference_layout()
    desc = layout.desc
    plans = [redist.scatter_fw_plan(layout, r, True) for r in range(layout.R)]
    blocks = [_random((layout.nst_group(r), desc.nr3)) for r in range(layout.R)]
    planes = benchmark(_exchange, plans, blocks)
    # Every stick of the grid lands once per plane.
    for r, p in enumerate(planes):
        assert np.count_nonzero(p) == desc.sticks.nsticks * layout.npp(r)


def test_bench_cft_1z(benchmark):
    layout = _reference_layout()
    sticks = _random((layout.nst_group(0), layout.desc.nr3))
    res = benchmark(cft_1z, sticks, 1)
    assert res.shape == sticks.shape


def test_bench_reference_run_dataplane_counters(run_once):
    """Full reference data-mode run; prints the manifest's counters."""
    cfg = _reference_config()
    run_fft_phase(cfg)  # warm geometry and plan caches
    result = run_once(run_fft_phase, cfg)
    dp = result.dataplane
    print(f"\ndataplane counters: {dp}")
    assert dp is not None
    assert dp["decomposition"] == "slab"
    # Four batched kernels per band chain on every process.
    assert dp["kernel_calls"] == 4 * cfg.n_iterations * cfg.n_mpi_ranks
