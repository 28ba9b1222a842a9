"""Backend discovery and selection.

All known backends are registered here; availability is probed lazily so
importing the package never hard-fails on a missing optional library.
``RunConfig.fft_backend`` validates through :func:`get_backend`, the CLI's
``backends`` subcommand prints :func:`backend_info`, and the conformance
suite parametrizes over :func:`known_backends` (skipping unavailable ones
with their reason rather than passing silently).
"""

from __future__ import annotations

from repro.fft.backends.base import BackendUnavailableError, FftBackend

__all__ = [
    "DEFAULT_BACKEND",
    "known_backends",
    "get_backend",
    "available_backends",
    "backend_info",
]

#: pocketfft via numpy: always importable here and the fastest safe default.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, FftBackend] | None = None


def _registry() -> dict[str, FftBackend]:
    global _REGISTRY
    if _REGISTRY is None:
        from repro.fft.backends.native import NativeBackend
        from repro.fft.backends.numpy_backend import NumpyBackend
        from repro.fft.backends.scipy_backend import ScipyBackend

        backends = [NumpyBackend(), ScipyBackend(), NativeBackend()]
        _REGISTRY = {b.name: b for b in backends}
    return _REGISTRY


def known_backends() -> tuple[str, ...]:
    """All registered backend names, available or not (default first)."""
    return tuple(_registry())


def get_backend(name: str, require_available: bool = True) -> FftBackend:
    """Resolve a backend by name.

    Unknown names raise ``ValueError`` listing the registry; known-but-
    unimportable backends raise :class:`BackendUnavailableError` with the
    probe's reason unless ``require_available=False``.
    """
    reg = _registry()
    if name not in reg:
        raise ValueError(
            f"unknown fft backend {name!r}; known backends: {', '.join(sorted(reg))}"
        )
    backend = reg[name]
    if require_available:
        available, note = backend.availability()
        if not available:
            raise BackendUnavailableError(
                f"fft backend {name!r} is not available: {note}"
            )
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of backends that can actually run in this environment."""
    return tuple(n for n, b in _registry().items() if b.availability()[0])


def backend_info() -> list[dict]:
    """One describe() row per registered backend (CLI/tests/manifests)."""
    return [b.describe() for b in _registry().values()]
