"""Optional scipy.fft backend (pocketfft through scipy).

scipy ships the same pocketfft core as numpy behind its own ``scipy.fft``
interface; the engine runs it single-threaded like every backend.

The module import is gated: when scipy is missing the backend reports
unavailable with a reason and the conformance suite skips it cleanly.
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

try:  # gated optional dependency — never a hard import error
    import scipy
    import scipy.fft as _sfft

    _SCIPY_NOTE = f"scipy {scipy.__version__} (pocketfft)"
except ImportError:  # pragma: no cover - exercised in the numpy-only CI env
    _sfft = None
    _SCIPY_NOTE = "scipy is not installed"

__all__ = ["ScipyBackend"]


class ScipyBackend(FftBackend):
    name = "scipy"

    def availability(self) -> tuple[bool, str]:
        return _sfft is not None, _SCIPY_NOTE

    def _plan_aos(self, spec: PlanSpec):
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = _sfft.rfft(x.astype(rdt, copy=False), axis=-1)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = _sfft.ifft(x, axis=-1, norm="forward")
                else:
                    res = _sfft.fft(x, axis=-1, norm="forward")
                return deliver(res, out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                if sign == 1:
                    res = _sfft.ifftn(x, axes=(-2, -1), norm="forward")
                else:
                    res = _sfft.fftn(x, axes=(-2, -1), norm="forward")
                return deliver(res, out, cplx)

        exe.spec = spec
        return exe
