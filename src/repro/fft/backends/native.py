"""The repo's own mixed-radix Cooley–Tukey kernels as a backend.

This wraps the pure-python/einsum kernel plane (`repro.fft.batched`,
`repro.fft.realfft`) behind the backend interface, so the reproduction's
original kernels remain selectable (``fft_backend="native"``) and are held
to the same differential-conformance bar as the external libraries.  For
``complex128`` the executables delegate straight to
:func:`~repro.fft.batched.cft_1z` / :func:`~repro.fft.batched.cft_2xy`, so
selecting ``native`` is bit-identical to the pre-backend-plane data plane.
The native kernels always compute in double precision; ``complex64`` specs
compute in double and cast the delivered result, which conformance checks
at the single-precision tolerance.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.fft.backends.base import (
    FftBackend,
    PlanSpec,
    check_input,
    complex_dtype_of,
    deliver,
)
from repro.fft.batched import cft_1z, cft_2xy
from repro.fft.realfft import rfft as native_rfft

__all__ = ["NativeBackend"]


class NativeBackend(FftBackend):
    name = "native"

    def availability(self) -> tuple[bool, str]:
        version = getattr(repro, "__version__", "dev")
        return True, f"repro {version} mixed-radix (einsum)"

    def _plan_aos(self, spec: PlanSpec):
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            if spec.shape[-1] % 2 != 0:
                raise ValueError(
                    f"native rfft requires an even transform length, got {spec.shape[-1]}"
                )

            def exe(x, sign=-1, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = native_rfft(np.asarray(x, dtype=np.float64))
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                if cplx == np.dtype("complex128"):
                    return cft_1z(x, sign, out=out)
                return deliver(cft_1z(x.astype(np.complex128), sign), out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                if cplx == np.dtype("complex128"):
                    return cft_2xy(x, sign, out=out)
                return deliver(cft_2xy(x.astype(np.complex128), sign), out, cplx)

        exe.spec = spec
        return exe
