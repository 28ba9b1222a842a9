"""Pack-free exchange plans against the staged (packed) oracle.

Every exchange of the data plane is one Alltoallw over the block plans of
:mod:`repro.core.redistribute`.  Applying a plan's ``BlockType.indices()``
moves with plain numpy must reproduce, bit for bit, what the staged
marshalling of ``tests/core/packed_oracle.py`` produces from the same
random payloads — on slab layouts over R, T in {1, 2, 4} and on a pencil
layout.  Meta-mode runs must drive the cost model exactly as data-mode
runs do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunConfig, run_fft_phase
from repro.core import redistribute as redist
from repro.grids import Cell, DistributedLayout, FftDescriptor
from tests.core import packed_oracle as oracle

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

LAYOUTS = [("slab", R, T) for R in (1, 2, 4) for T in (1, 2, 4)] + [("pencil", 4, 2)]


@pytest.fixture(scope="module")
def desc():
    return FftDescriptor(Cell(alat=5.0), ecutwfc=12.0)


_LAYOUT_CACHE: dict = {}


def layout_of(desc, decomposition, R, T):
    key = (decomposition, R, T)
    if key not in _LAYOUT_CACHE:
        _LAYOUT_CACHE[key] = DistributedLayout(desc, R, T, decomposition=decomposition)
    return _LAYOUT_CACHE[key]


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def apply_plans(plans, sends):
    """Run one Alltoallw by hand: member ``i`` receives, at the slots of
    its ``recv_blocks[j]``, the elements of member ``j``'s send buffer named
    by ``plans[j].send_blocks[i]``.  Slots a plan leaves to the incoming
    blocks start as NaN, so an uncovered slot cannot match the oracle."""
    recvs = []
    for i, plan in enumerate(plans):
        fill = 0.0 if plan.zero_fill else np.nan
        recv = np.full(plan.recv_shape, fill, dtype=np.complex128)
        flat = recv.reshape(-1)
        for j, send in enumerate(sends):
            src = np.ascontiguousarray(send).reshape(-1)
            flat[plan.recv_blocks[j].indices()] = src[plans[j].send_blocks[i].indices()]
        recvs.append(recv)
    return recvs


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("decomposition,R,T", LAYOUTS)
class TestPlansMatchPackedOracle:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pack_plans(self, desc, decomposition, R, T, seed):
        layout = layout_of(desc, decomposition, R, T)
        rng = np.random.default_rng(seed)
        for r in range(layout.R):
            procs = [layout.proc_of(r, t) for t in range(T)]
            # Forward: row t' of member p's send block is band t' on p's sticks.
            rows = [random_complex(rng, (T, layout.ngw_of(p))) for p in procs]
            got = apply_plans([redist.pack_fw_plan(layout, p, True) for p in procs], rows)
            for t in range(T):
                parts = [oracle.pack_parts(layout, p, list(rows[tp]))[t]
                         for tp, p in enumerate(procs)]
                assert_bit_identical(got[t], oracle.expand_group_block(layout, r, parts))
            # Backward: member t's group block (band t) -> every member's rows.
            blocks = [random_complex(rng, (layout.nst_group(r), desc.nr3)) for _ in procs]
            got = apply_plans([redist.pack_bw_plan(layout, p, True) for p in procs], blocks)
            sent = [
                oracle.unpack_parts(
                    layout, r, oracle.extract_group_coefficients(layout, r, block)
                )
                for block in blocks
            ]
            for tp in range(T):
                want = np.stack([sent[t][tp] for t in range(T)])
                assert_bit_identical(got[tp], want)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_scatter_plans(self, desc, decomposition, R, T, seed):
        layout = layout_of(desc, decomposition, R, T)
        rng = np.random.default_rng(seed)
        ranks = range(layout.R)
        blocks = [random_complex(rng, (layout.nst_group(r), desc.nr3)) for r in ranks]
        got = apply_plans([redist.scatter_fw_plan(layout, r, True) for r in ranks], blocks)
        fw = [oracle.scatter_fw_parts(layout, r, blocks[r]) for r in ranks]
        for r in ranks:
            want = oracle.assemble_planes(layout, r, [fw[src][r] for src in ranks])
            assert_bit_identical(got[r], want)
        planes = [random_complex(rng, (layout.npp(r), desc.nr1, desc.nr2)) for r in ranks]
        got = apply_plans([redist.scatter_bw_plan(layout, r, True) for r in ranks], planes)
        bw = [oracle.scatter_bw_parts(layout, r, planes[r]) for r in ranks]
        for r in ranks:
            want = oracle.assemble_group_block_from_planes(
                layout, r, [bw[src][r] for src in ranks]
            )
            assert_bit_identical(got[r], want)

    def test_block_volumes_equal_oracle_part_bytes(self, desc, decomposition, R, T):
        """The simulated collective prices the same bytes as the staged parts."""
        layout = layout_of(desc, decomposition, R, T)
        for p in range(layout.P):
            r, _t = layout.rt_of(p)
            plan = redist.pack_fw_plan(layout, p, True)
            assert [b.nbytes for b in plan.send_blocks] == [
                part.nbytes for part in oracle.pack_parts(layout, p, None)
            ]
        for r in range(layout.R):
            plan = redist.scatter_fw_plan(layout, r, True)
            assert [b.nbytes for b in plan.send_blocks] == [
                part.nbytes for part in oracle.scatter_fw_parts(layout, r, None)
            ]


class TestMetaModeParity:
    @pytest.mark.parametrize("decomposition", ["slab", "pencil"])
    def test_meta_mode_reproduces_data_mode_timeline(self, decomposition):
        """Size-only payloads must drive the cost model identically to real
        arrays — the sweep harness depends on it."""
        times, instrs = [], []
        for data_mode in (True, False):
            cfg = RunConfig(
                ranks=4,
                taskgroups=2,
                version="original",
                data_mode=data_mode,
                decomposition=decomposition,
                **SMALL,
            )
            res = run_fft_phase(cfg)
            times.append(res.phase_time)
            instrs.append(res.cpu.counters.total_instructions())
        assert times[0] == pytest.approx(times[1], rel=1e-14)
        assert instrs[0] == pytest.approx(instrs[1], rel=1e-9)
