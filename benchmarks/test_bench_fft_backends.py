"""Backend-plane microbenchmarks: AoS vs SoA layouts, backend comparison.

The backend plane (:mod:`repro.fft.backends`) executes every batched
kernel in one of two memory layouts:

* **AoS** (array-of-structures) — numpy's native interleaved complex,
  ``re,im`` adjacent per element.  This is what pocketfft consumes
  directly, so AoS execution has zero marshalling cost.
* **SoA** (structure-of-arrays) — planar ``(2,) + shape`` float storage,
  ``x[0]`` the real plane and ``x[1]`` the imaginary plane.  This is the
  layout vectorizing compilers prefer for user arithmetic (unit-stride
  loads per plane — the KNL AVX-512 motivation in the paper), but
  pocketfft does not consume it, so the SoA executable pays two
  marshalling passes (planar → interleaved scratch, transform, →
  planar).

These benchmarks put a number on that trade at the reference workload's
block shape, per backend, so ``docs/PERFORMANCE.md`` can carry a measured
AoS-vs-SoA table.  Structural assertions only — absolute speed is
machine-dependent and tracked by the perf_guard ratchets.

Run with::

    pytest benchmarks/test_bench_fft_backends.py --benchmark-only \
        --benchmark-group-by=func
"""

import numpy as np
import pytest

from repro.fft.backends import available_backends, get_backend
from repro.fft.backends.soa import from_soa, to_soa

#: The reference workload's z-stick block (241 sticks of nr3=35) and the
#: per-group plane block of the same workload.
STICK_SHAPE = (241, 35)
PLANE_SHAPE = (35, 24, 24)

_RNG = np.random.default_rng(11)

BACKENDS = available_backends()


def _sticks() -> np.ndarray:
    return _RNG.standard_normal(STICK_SHAPE) + 1j * _RNG.standard_normal(STICK_SHAPE)


@pytest.mark.parametrize("name", BACKENDS)
def test_bench_c2c_1d_aos(benchmark, name):
    """Plan-cached AoS execution: the layout the data plane runs today."""
    exe = get_backend(name).plan("c2c_1d", STICK_SHAPE)
    x = _sticks()
    out = np.empty(STICK_SHAPE, dtype=np.complex128)
    res = benchmark(exe, x, 1, out=out)
    assert res is out


@pytest.mark.parametrize("name", BACKENDS)
def test_bench_c2c_1d_soa(benchmark, name):
    """SoA execution of the same block: transform + 2 marshalling passes.

    The ratio of this to the AoS time is the marshalling overhead a planar
    layout costs when the kernel itself wants interleaved input.
    """
    exe = get_backend(name).plan("c2c_1d", STICK_SHAPE, layout="soa")
    planes = to_soa(_sticks())
    out = np.empty_like(planes)
    scratch = np.empty(STICK_SHAPE, dtype=np.complex128)
    res = benchmark(exe, planes, 1, out=out, scratch=scratch)
    assert res is out
    assert out.shape == (2,) + STICK_SHAPE


@pytest.mark.parametrize("name", BACKENDS)
def test_bench_c2c_2d_aos_vs_soa(benchmark, name):
    """The plane block, SoA: 2D transforms amortize marshalling better
    (more flops per marshalled byte than the short z-sticks)."""
    exe = get_backend(name).plan("c2c_2d", PLANE_SHAPE, layout="soa")
    x = _RNG.standard_normal(PLANE_SHAPE) + 1j * _RNG.standard_normal(PLANE_SHAPE)
    planes = to_soa(x)
    got = benchmark(exe, planes, 1)
    aos = get_backend(name).plan("c2c_2d", PLANE_SHAPE)(x, 1)
    np.testing.assert_allclose(from_soa(got), aos, rtol=1e-12, atol=1e-12)


def test_bench_soa_marshal_roundtrip(benchmark):
    """The bare marshalling cost: interleaved → planar → interleaved.

    This bounds the best case for any SoA combine step — arithmetic on
    planar data must beat AoS by more than this to win overall.
    """
    x = _sticks()

    def cycle():
        return from_soa(to_soa(x))

    back = benchmark(cycle)
    np.testing.assert_array_equal(back, x)


def test_bench_soa_combine_vs_aos_combine(benchmark):
    """A representative combine step (axpy over the block) in both layouts.

    The SoA side does the scale-accumulate on planar float data, which is
    the access pattern the paper's KNL vectorization notes favor; numpy
    reaches the same flops through its complex ufuncs on AoS, so on
    commodity hardware the two are close and the marshalling tax decides.
    """
    x = _sticks()
    y = _sticks()
    planes_x, planes_y = to_soa(x), to_soa(y)
    acc_aos = np.zeros(STICK_SHAPE, dtype=np.complex128)
    acc_soa = np.zeros((2,) + STICK_SHAPE, dtype=np.float64)

    def combine_both():
        # AoS: complex axpy straight through numpy's ufunc machinery.
        np.multiply(x, 0.5, out=acc_aos)
        np.add(acc_aos, y, out=acc_aos)
        # SoA: the same axpy as two unit-stride float plane operations.
        np.multiply(planes_x, 0.5, out=acc_soa)
        np.add(acc_soa, planes_y, out=acc_soa)
        return acc_aos, acc_soa

    aos, soa = benchmark(combine_both)
    np.testing.assert_allclose(from_soa(soa), aos, rtol=1e-12, atol=1e-12)
