"""Structure-of-arrays (planar) layout adapter for FFT backends.

SoA keeps real and imaginary parts in separate contiguous planes — a float
array of shape ``(2,) + shape`` where ``x[0]`` is the real plane and
``x[1]`` the imaginary plane.  The batched layout study referenced in
SNIPPETS.md (FFT-Optimization-Research) finds planar layouts win on
batched strided transforms on wide-vector hardware because the
real/imaginary streams vectorize without de-interleaving shuffles; on
commodity hardware with pocketfft the AoS path usually wins.  The
microbenchmark in ``benchmarks/test_bench_fft_backends.py`` measures both
so the choice stays data-driven per host.

The adapter stages planar input into an interleaved complex scratch
buffer, runs the backend's AoS executable, and unpacks the result back to
planes.  The interleaved staging buffer is allocated fresh unless the
caller passes one.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import (
    PlanSpec,
    check_input,
    complex_dtype_of,
    real_dtype_of,
    result_shape,
)

__all__ = ["to_soa", "from_soa", "wrap_soa"]


def to_soa(x: np.ndarray) -> np.ndarray:
    """Interleaved complex ``shape`` → planar float ``(2,) + shape``."""
    x = np.asarray(x)
    out = np.empty((2,) + x.shape, dtype=x.real.dtype)
    out[0] = x.real
    out[1] = x.imag
    return out


def from_soa(planes: np.ndarray) -> np.ndarray:
    """Planar float ``(2,) + shape`` → interleaved complex ``shape``."""
    planes = np.asarray(planes)
    if planes.ndim < 1 or planes.shape[0] != 2:
        raise ValueError(f"SoA array must have a leading plane axis of 2, got {planes.shape}")
    cplx = np.dtype("complex64") if planes.dtype == np.float32 else np.dtype("complex128")
    out = np.empty(planes.shape[1:], dtype=cplx)
    out.real = planes[0]
    out.imag = planes[1]
    return out


def wrap_soa(aos_exe, spec: PlanSpec):
    """Wrap an AoS executable into the planar calling convention of ``spec``.

    The returned executable takes planar input (``(2,) + shape`` floats;
    plain real ``shape`` for rfft), produces planar output, and accepts an
    optional planar ``out=``.  An optional ``scratch=`` keyword supplies
    the interleaved staging buffer so a repeated call stays allocation-free.
    """
    cplx = complex_dtype_of(spec)
    rdt = real_dtype_of(spec)
    out_shape = (2,) + result_shape(spec)

    def exe(x, sign, out=None, scratch=None):
        x = np.asarray(x)
        check_input(spec, x, sign)
        if spec.kind == "rfft":
            aos_in = np.ascontiguousarray(x, dtype=rdt)
        else:
            if scratch is None:
                scratch = np.empty(spec.shape, dtype=cplx)
            elif scratch.shape != spec.shape or scratch.dtype != cplx:
                raise ValueError(
                    f"SoA scratch must be {spec.shape} {cplx}, "
                    f"got {scratch.shape} {scratch.dtype}"
                )
            scratch.real = x[0]
            scratch.imag = x[1]
            aos_in = scratch
        res = aos_exe(aos_in, sign)
        if out is None:
            out = np.empty(out_shape, dtype=rdt)
        elif tuple(out.shape) != out_shape:
            raise ValueError(f"SoA out must have shape {out_shape}, got {tuple(out.shape)}")
        out[0] = res.real
        out[1] = res.imag
        return out

    exe.spec = spec
    return exe
