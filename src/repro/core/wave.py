"""Wavefunction and potential data (data mode) and stick-buffer helpers.

128 real bands pack pairwise into 64 complex fields; the pipeline operates
on the packed fields directly (the paper's 64 FFTs).  Coefficients live on
the wave G-sphere in the canonical global ordering; each process holds the
contiguous-by-G subset belonging to its sticks.

The helpers here are the *data-mode* halves of the pipeline steps: expanding
packed coefficients into stick columns (``prepare_psis``), extracting them
back (``unpack``), and building the real-space potential slabs for VOFR.
With task groups on, the group-level expansion and extraction are the
pack-free exchanges of :mod:`repro.core.redistribute` instead.
All are deterministic functions of the config seed, so every executor sees
identical inputs and must produce identical outputs.
"""

from __future__ import annotations

import numpy as np

from repro.grids.descriptor import DistributedLayout
from repro.simkit.rng import substream

__all__ = [
    "make_band_coefficients",
    "make_potential",
    "distribute_coefficients",
    "expand_to_sticks",
    "extract_from_sticks",
    "potential_slab",
    "potential_block",
]


def make_band_coefficients(ngw: int, n_complex_bands: int, seed: int) -> np.ndarray:
    """Global packed coefficients, shape ``(n_complex_bands, ngw)``.

    Each packed field is ``psi_{2b} + i * psi_{2b+1}`` of two random real
    bands (unit-variance complex Gaussians serve the same purpose and keep
    the generator simple); deterministic in ``seed``.
    """
    rng = substream(seed)
    re = rng.standard_normal((n_complex_bands, ngw))
    im = rng.standard_normal((n_complex_bands, ngw))
    return (re + 1j * im) / np.sqrt(2.0)


def make_potential(grid_shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """A real, positive, smooth-ish potential on the full grid.

    Layout is ``V[iz, ix, iy]`` (plane-major, matching the pipeline's plane
    blocks).  Smoothness is irrelevant to the kernel; positivity keeps the
    result well-conditioned for relative-error checks.
    """
    nr1, nr2, nr3 = grid_shape
    rng = substream(seed + 1)
    v = 1.0 + 0.5 * rng.random((nr3, nr1, nr2))
    return v


def distribute_coefficients(
    layout: DistributedLayout, coeffs: np.ndarray
) -> list[np.ndarray]:
    """Split global packed coefficients by stick ownership.

    Returns one ``(n_bands, ngw_of(p))`` array per process, columns in the
    process's ascending global-G order (the packed storage convention).
    The ``take`` gathers straight into fresh C-contiguous storage — unlike
    ``coeffs[:, g_idx]`` (whose mixed basic/advanced indexing yields an
    F-ordered intermediate) followed by ``ascontiguousarray``, it makes no
    second copy.
    """
    out = []
    for p in range(layout.P):
        g_idx, _stick_local, _iz = layout.local_g_table(p)
        out.append(np.take(coeffs, g_idx, axis=1))
    return out


def expand_to_sticks(layout: DistributedLayout, p: int, packed: np.ndarray) -> np.ndarray:
    """``prepare_psis``: scatter packed coefficients into stick columns.

    ``packed`` is ``(ngw_of(p),)``; the result is ``(nst_p, nr3)`` with
    zeros outside the sphere.
    """
    flat = layout.local_flat_index(p)
    if packed.shape != flat.shape:
        raise ValueError(
            f"packed coefficients have {packed.shape[0] if packed.ndim else 0} "
            f"entries; process {p} owns {len(flat)} G-vectors"
        )
    block = np.zeros((len(layout.sticks_of(p)), layout.desc.nr3), dtype=np.complex128)
    block.reshape(-1)[flat] = packed
    return block


def extract_from_sticks(
    layout: DistributedLayout, p: int, block: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`expand_to_sticks`: gather the sphere coefficients."""
    expected = (len(layout.sticks_of(p)), layout.desc.nr3)
    if block.shape != expected:
        raise ValueError(f"stick block shape {block.shape}; expected {expected}")
    return np.take(block.reshape(-1), layout.local_flat_index(p))


def potential_slab(layout: DistributedLayout, r: int, potential: np.ndarray) -> np.ndarray:
    """Scatter-rank ``r``'s z-plane slab of the potential ``V[iz, ix, iy]``."""
    expected = (layout.desc.nr3, layout.desc.nr1, layout.desc.nr2)
    if potential.shape != expected:
        raise ValueError(f"potential shape {potential.shape}; expected {expected}")
    return potential[layout.z_slice(r)]


def potential_block(layout: DistributedLayout, r: int, potential: np.ndarray) -> np.ndarray:
    """Pencil rank ``r``'s x-brick view of the potential ``V[iz, ix, iy]``.

    The pencil pipeline applies VOFR on the x-brick ``(ny_i, nz_j, nr1)``
    (full x-lines for ``iy in Y_i``, ``iz in Z_j``); this restricts and
    transposes the potential to match that brick layout exactly.
    """
    grid = layout.pencil
    if grid is None:
        raise ValueError("potential_block needs a pencil-decomposed layout")
    expected = (layout.desc.nr3, layout.desc.nr1, layout.desc.nr2)
    if potential.shape != expected:
        raise ValueError(f"potential shape {potential.shape}; expected {expected}")
    i, j = grid.coords(r)
    zlo, zhi = grid.z_span(j)
    ylo, yhi = grid.y_span(i)
    return np.ascontiguousarray(potential[zlo:zhi, :, ylo:yhi].transpose(2, 0, 1))
