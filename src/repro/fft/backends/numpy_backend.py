"""The default backend: numpy's bundled pocketfft.

Mapping QE conventions onto numpy's ``norm="forward"`` mode:

* ``sign=+1`` (G→R, exponent ``+i``, unscaled) is ``np.fft.ifft(..,
  norm="forward")`` — forward-norm puts the ``1/n`` on the *forward*
  transform, leaving the inverse unscaled.
* ``sign=-1`` (R→G, exponent ``-i``, scaled ``1/n``) is ``np.fft.fft(..,
  norm="forward")``.

pocketfft preserves ``complex64`` end to end, so the single-precision
conformance lane exercises a genuine single-precision kernel.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import (
    FftBackend,
    PlanSpec,
    check_input,
    complex_dtype_of,
    deliver,
    real_dtype_of,
)

__all__ = ["NumpyBackend"]


class NumpyBackend(FftBackend):
    name = "numpy"

    def availability(self) -> tuple[bool, str]:
        return True, f"numpy {np.__version__} (pocketfft)"

    def _plan_aos(self, spec: PlanSpec):
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = np.fft.rfft(x.astype(rdt, copy=False), axis=-1)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = np.fft.ifft(x, axis=-1, norm="forward")
                else:
                    res = np.fft.fft(x, axis=-1, norm="forward")
                return deliver(res, out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = np.fft.ifftn(x, axes=(-2, -1), norm="forward")
                else:
                    res = np.fft.fftn(x, axes=(-2, -1), norm="forward")
                return deliver(res, out, cplx)

        exe.spec = spec
        return exe
