"""Staged (packed) marshalling of the two MPI layers: the test oracle.

QE's FFTXlib moves every band through its two exchanges by staging: the
pack layer sends each member one band's sphere coefficients and the
receiver expands them into its group stick block; the slab scatter sends
per-peer z-slabs of the stick columns and the receiver assembles them
into xy planes (and the reverse on the way back).  The data plane under
``src/`` replaces every such exchange with one pack-free Alltoallw over
the block plans of :mod:`repro.core.redistribute`; this module keeps the
staged form as an independent reference those plans are pinned against.

Every function here is a plain numpy transformation of whole arrays —
parts in, parts or blocks out — with meta-mode passthrough where the
original marshalling had it.
"""

from __future__ import annotations

import numpy as np

from repro.grids.descriptor import DistributedLayout
from repro.mpisim.datatypes import MetaPayload

_COMPLEX = 16  # bytes per complex128 element


# -- pack layer (T members) ---------------------------------------------------


def pack_part_bytes(layout: DistributedLayout, p: int) -> float:
    """Size of one pack/unpack part from process ``p`` (one band's share)."""
    return float(layout.ngw_of(p) * _COMPLEX)


def pack_parts(layout: DistributedLayout, p: int, band_coeffs: list | None) -> list:
    """Parts for the pack Alltoallv of process ``p``.

    ``band_coeffs[t']`` is band ``t'``'s packed coefficients on ``p``'s own
    sticks (or ``None`` in meta mode); part ``t'`` goes to member ``t'``.
    """
    T = layout.T
    if band_coeffs is None:
        return [MetaPayload(pack_part_bytes(layout, p)) for _ in range(T)]
    if len(band_coeffs) != T:
        raise ValueError(f"need {T} band coefficient arrays, got {len(band_coeffs)}")
    ngw = layout.ngw_of(p)
    for t, c in enumerate(band_coeffs):
        if c.shape != (ngw,):
            raise ValueError(
                f"band {t} coefficients have shape {c.shape}; process {p} owns {ngw} G-vectors"
            )
    return list(band_coeffs)


def unpack_parts(layout: DistributedLayout, r: int, member_coeffs: list | None) -> list:
    """Parts for the unpack Alltoallv: member ``t'`` gets back its share."""
    if member_coeffs is None:
        return [
            MetaPayload(pack_part_bytes(layout, layout.proc_of(r, t)))
            for t in range(layout.T)
        ]
    if len(member_coeffs) != layout.T:
        raise ValueError(f"need {layout.T} member arrays, got {len(member_coeffs)}")
    return list(member_coeffs)


def expand_group_block(layout: DistributedLayout, r: int, member_coeffs: list) -> np.ndarray:
    """The pack group's received coefficients placed in its stick block.

    ``member_coeffs[t]`` holds one band's coefficients on member ``t``'s
    sticks; each lands at that member's (stick, z) positions of the
    ``(nst_group(r), nr3)`` block, zeros elsewhere.
    """
    offsets = layout.group_coeff_offsets(r)
    for t, coeffs in enumerate(member_coeffs):
        ngw_t = int(offsets[t + 1] - offsets[t])
        if coeffs.shape != (ngw_t,):
            raise ValueError(
                f"member {t} of group {r} sent {coeffs.shape} coefficients; "
                f"owns {ngw_t} G-vectors"
            )
    block = np.zeros((layout.nst_group(r), layout.desc.nr3), dtype=np.complex128)
    block.reshape(-1)[layout.group_flat_index(r)] = np.concatenate(member_coeffs)
    return block


def extract_group_coefficients(
    layout: DistributedLayout, r: int, block: np.ndarray
) -> list[np.ndarray]:
    """Inverse of :func:`expand_group_block`: per-member coefficients."""
    expected = (layout.nst_group(r), layout.desc.nr3)
    if block.shape != expected:
        raise ValueError(f"group block shape {block.shape}; expected {expected}")
    gathered = block.reshape(-1)[layout.group_flat_index(r)]
    offsets = layout.group_coeff_offsets(r)
    return [gathered[int(offsets[t]) : int(offsets[t + 1])] for t in range(layout.T)]


# -- slab scatter layer (R members) -------------------------------------------


def scatter_part_bytes(layout: DistributedLayout, r_from: int, r_to: int) -> float:
    """Bytes of the slab scatter-rank ``r_from`` sends to ``r_to``."""
    return float(layout.nst_group(r_from) * layout.npp(r_to) * _COMPLEX)


def scatter_fw_parts(layout: DistributedLayout, r: int, group_block: np.ndarray | None) -> list:
    """Forward-scatter parts of rank ``r``: per-peer z-slabs of its sticks."""
    if group_block is None:
        return [MetaPayload(scatter_part_bytes(layout, r, r_to)) for r_to in range(layout.R)]
    return [group_block[:, layout.z_slice(r_to)] for r_to in range(layout.R)]


def assemble_planes(layout: DistributedLayout, r: int, received: list) -> np.ndarray | None:
    """Rank ``r``'s ``(npp(r), nr1, nr2)`` xy planes from received slabs.

    ``received[r']`` has shape ``(nst_group(r'), npp(r))``; its rows land at
    the (ix, iy) coordinates of ``group_sticks(r')``, zeros elsewhere.
    """
    if any(isinstance(b, MetaPayload) for b in received):
        return None
    desc = layout.desc
    npp = layout.npp(r)
    for r_from, block in enumerate(received):
        expected = (layout.nst_group(r_from), npp)
        if block.shape != expected:
            raise ValueError(
                f"scatter slab from rank {r_from} has shape {block.shape}; "
                f"expected {expected}"
            )
    planes = np.zeros((npp, desc.nr1, desc.nr2), dtype=np.complex128)
    stage = np.concatenate(received, axis=0)
    planes.reshape(npp, desc.nr1 * desc.nr2)[:, layout.scatter_plane_index()] = stage.T
    return planes


def scatter_bw_parts(layout: DistributedLayout, r: int, planes: np.ndarray | None) -> list:
    """Backward-scatter parts: each peer's stick values out of the planes."""
    if planes is None:
        return [MetaPayload(scatter_part_bytes(layout, r_to, r)) for r_to in range(layout.R)]
    desc = layout.desc
    npp = layout.npp(r)
    gathered = planes.reshape(npp, desc.nr1 * desc.nr2).T[layout.scatter_plane_index()]
    offsets = layout.scatter_stick_offsets()
    return [
        gathered[int(offsets[r_to]) : int(offsets[r_to + 1])] for r_to in range(layout.R)
    ]


def assemble_group_block_from_planes(
    layout: DistributedLayout, r: int, received: list
) -> np.ndarray | None:
    """Rank ``r``'s ``(nst_group, nr3)`` stick block after the backward scatter."""
    if any(isinstance(b, MetaPayload) for b in received):
        return None
    for r_from, slab in enumerate(received):
        expected = (layout.nst_group(r), layout.npp(r_from))
        if slab.shape != expected:
            raise ValueError(
                f"backward slab from rank {r_from} has shape {slab.shape}; "
                f"expected {expected}"
            )
    return np.concatenate(received, axis=1)
