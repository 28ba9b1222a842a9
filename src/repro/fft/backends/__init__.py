"""Pluggable FFT backend plane.

Public surface:

* :class:`~repro.fft.backends.base.FftBackend` / ``plan(kind, shape,
  dtype, layout)`` — the backend interface (``c2c_1d``/``c2c_2d``/``rfft``
  × AoS/SoA × complex64/complex128, QE sign/scaling conventions).
* :func:`~repro.fft.backends.registry.get_backend` /
  ``available_backends`` / ``backend_info`` — discovery (numpy default,
  scipy auto-detected, native mixed-radix).
* :class:`~repro.fft.backends.engine.KernelEngine` — the per-run facade
  the executors call, with plan caching; every call runs single-threaded.

Every backend is held numerically equivalent to the pocketfft reference by
``tests/fft/test_backend_conformance.py``.
"""

from repro.fft.backends.base import (
    CONFORMANCE_ATOL,
    CONFORMANCE_RTOL,
    KINDS,
    LAYOUTS,
    BackendUnavailableError,
    FftBackend,
    PlanSpec,
)
from repro.fft.backends.engine import KernelEngine, default_engine
from repro.fft.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    backend_info,
    get_backend,
    known_backends,
)
from repro.fft.backends.soa import from_soa, to_soa

__all__ = [
    "KINDS",
    "LAYOUTS",
    "CONFORMANCE_RTOL",
    "CONFORMANCE_ATOL",
    "BackendUnavailableError",
    "FftBackend",
    "PlanSpec",
    "KernelEngine",
    "default_engine",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_info",
    "get_backend",
    "known_backends",
    "to_soa",
    "from_soa",
]
