"""The kernel engine: what the data plane actually calls.

One :class:`KernelEngine` is built per run from ``RunConfig.fft_backend``;
the pipeline's FFT steps call its :meth:`cft_1z` / :meth:`cft_2xy` /
:meth:`rfft` instead of importing the kernels directly.  The engine caches
backend executables per ``(kind, shape, dtype, layout)`` — band after band
hits a ready plan — and runs every call single-threaded: the kernels own
about a fifth of the host time of a data-mode run, and a two-worker
process pool measured 2.3x slower than one worker on a two-core host (see
``docs/PERFORMANCE.md``).

Call and row counters feed the ``dataplane.*`` telemetry gauges through
:meth:`stats`.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backends.base import FftBackend
from repro.fft.backends.registry import DEFAULT_BACKEND, get_backend

__all__ = ["KernelEngine", "default_engine"]


class KernelEngine:
    """Per-run facade over one backend with a plan cache."""

    def __init__(self, backend: str = DEFAULT_BACKEND):
        self.backend: FftBackend = get_backend(backend)
        self._plans: dict = {}
        self.kernel_calls = 0
        self.kernel_rows = 0

    # -- planning -----------------------------------------------------------

    def plan(self, kind: str, shape, dtype=np.complex128, layout: str = "aos"):
        """Cached backend executable for the spec (also the public API)."""
        key = (kind, tuple(shape), np.dtype(dtype).name, layout)
        exe = self._plans.get(key)
        if exe is None:
            exe = self.backend.plan(kind, tuple(shape), dtype=dtype, layout=layout)
            self._plans[key] = exe
        return exe

    # -- execution ----------------------------------------------------------

    def _run_c2c(self, kind: str, x: np.ndarray, sign: int, out):
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        exe = self.plan(kind, x.shape, dtype=x.dtype)
        return exe(x, sign, out=out)

    def cft_1z(self, sticks: np.ndarray, sign: int, out=None) -> np.ndarray:
        """Batched 1D transforms along z: ``(nsticks, nz)``, QE conventions."""
        sticks = np.asarray(sticks)
        if sticks.ndim != 2:
            raise ValueError(f"cft_1z expects (nsticks, nz), got shape {sticks.shape}")
        if not np.issubdtype(sticks.dtype, np.complexfloating):
            sticks = sticks.astype(np.complex128)
        return self._run_c2c("c2c_1d", sticks, sign, out)

    def cft_2xy(self, planes: np.ndarray, sign: int, out=None) -> np.ndarray:
        """Batched 2D transforms: ``(nplanes, nx, ny)``, QE conventions."""
        planes = np.asarray(planes)
        if planes.ndim != 3:
            raise ValueError(f"cft_2xy expects (nplanes, nx, ny), got shape {planes.shape}")
        if not np.issubdtype(planes.dtype, np.complexfloating):
            planes = planes.astype(np.complex128)
        return self._run_c2c("c2c_2d", planes, sign, out)

    def rfft(self, x: np.ndarray, out=None) -> np.ndarray:
        """Batched real-input forward DFT along the last axis."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"rfft expects (nbatch, n), got shape {x.shape}")
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        self.kernel_calls += 1
        self.kernel_rows += x.shape[0]
        exe = self.plan("rfft", x.shape, dtype=x.dtype)
        return exe(x, -1, out=out)

    # -- telemetry ----------------------------------------------------------

    def stats(self) -> dict:
        """Counters merged into the run's ``dataplane`` manifest section."""
        return {
            "kernel_backend": self.backend.name,
            "kernel_calls": self.kernel_calls,
            "kernel_rows": self.kernel_rows,
        }


_DEFAULT: KernelEngine | None = None


def default_engine() -> KernelEngine:
    """Process-wide default-backend engine.

    Used by contexts constructed without an explicit engine (unit tests,
    ad-hoc pipeline steps) so kernel routing never needs a None check.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelEngine(DEFAULT_BACKEND)
    return _DEFAULT
