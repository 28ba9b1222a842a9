"""Optional pyFFTW backend (FFTW3 bindings), auto-detected at import.

FFTW is the performance reference of the source paper's era and the
backend the RISC-V FFTW study (PAPERS.md) identifies as the dominant
lever; when ``pyfftw`` is importable this backend plans real FFTW
transforms through the ``pyfftw.interfaces.numpy_fft`` layer with the
plan cache enabled.

When pyfftw is missing (the common case in this container — no new
dependencies are installed) the backend stays registered but reports
unavailable with a reason, the conformance suite skips it visibly, and
selecting it via ``RunConfig.fft_backend`` raises a clean
:class:`~repro.fft.backends.base.BackendUnavailableError`.
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

try:  # gated optional dependency — absent in this container
    import pyfftw
    from pyfftw.interfaces import numpy_fft as _wfft

    pyfftw.interfaces.cache.enable()
    _PYFFTW_NOTE = f"pyfftw {pyfftw.__version__} (FFTW3)"
except ImportError:
    _wfft = None
    _PYFFTW_NOTE = "pyfftw is not installed"

__all__ = ["PyfftwBackend"]


class PyfftwBackend(FftBackend):
    name = "pyfftw"

    def availability(self) -> tuple[bool, str]:
        return _wfft is not None, _PYFFTW_NOTE

    def _plan_aos(self, spec: PlanSpec):  # pragma: no cover - needs pyfftw
        cplx = complex_dtype_of(spec)

        if spec.kind == "rfft":
            rdt = real_dtype_of(spec)

            def exe(x, sign=-1, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                res = _wfft.rfft(x.astype(rdt, copy=False), axis=-1)
                return deliver(res, out, cplx)

        elif spec.kind == "c2c_1d":

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                n = spec.shape[-1]
                if sign == 1:
                    # pyfftw ifft is scaled 1/n; QE's +i transform is unscaled.
                    res = _wfft.ifft(x, axis=-1) * n
                else:
                    res = _wfft.fft(x, axis=-1) / n
                return deliver(res, out, cplx)

        else:  # c2c_2d

            def exe(x, sign, out=None):
                x = np.asarray(x)
                check_input(spec, x, sign)
                x = x.astype(cplx, copy=False)
                n = spec.shape[-2] * spec.shape[-1]
                if sign == 1:
                    res = _wfft.ifftn(x, axes=(-2, -1)) * n
                else:
                    res = _wfft.fftn(x, axes=(-2, -1)) / n
                return deliver(res, out, cplx)

        exe.spec = spec
        return exe
