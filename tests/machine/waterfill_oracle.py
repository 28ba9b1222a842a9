"""Vectorized oracles for the scalar water filling and per-group pricing.

:func:`waterfill_vec` is the numpy sort+cumsum water filling the contention
allocator used before it priced compositions with the scalar
:func:`repro.machine.contention.waterfill`; :func:`price_vec` is the
vectorized per-node pricing built on it.  Both live here only as references
for the property tests.
"""

import numpy as np

_EPS = 1e-12


def waterfill_vec(demands, capacity, weights=None):
    """Max-min fair grants per task of each demand group (numpy version).

    The water level ``L`` solves ``sum_i w_i * min(d_i, L) == capacity``
    when total demand exceeds the capacity; every task gets ``min(d_i, L)``.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    d = np.asarray(demands, dtype=float)
    m = d.size
    if m == 0:
        return np.empty(0)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    total = float((w * d).sum())
    if total <= capacity * (1.0 + _EPS):
        return d.copy()
    order = np.argsort(d, kind="stable")
    ds = d[order]
    ws = w[order]
    cum_w = np.cumsum(ws)
    cum_wd = np.cumsum(ws * ds)
    prev_w = np.concatenate(([0.0], cum_w[:-1]))
    prev_wd = np.concatenate(([0.0], cum_wd[:-1]))
    levels = (capacity - prev_wd) / (cum_w[-1] - prev_w)
    feasible = levels <= ds * (1.0 + _EPS)
    j = int(np.argmax(feasible)) if feasible.any() else m - 1
    level = max(float(levels[j]), 0.0)
    return np.minimum(d, level)


def price_vec(alloc, profiles, composition):
    """Base rate per packed code, priced with numpy per node.

    ``profiles`` maps a profile id to its ``(ipc0, bytes_per_instr)``;
    ``composition`` maps packed codes to task counts, as the allocator's
    ``allocate_batch`` receives them.
    """
    codes = np.array(sorted(composition), dtype=np.int64)
    counts = np.array([composition[c] for c in codes.tolist()], dtype=np.int64)
    pid = (codes >> 24).tolist()
    occupancy = (codes >> 12) & 0xFFF
    node = codes & 0xFFF
    ipc0 = np.array([profiles[p][0] for p in pid])
    bpi = np.array([profiles[p][1] for p in pid])
    ceilings = ipc0 * alloc.frequency_hz / occupancy
    demands = ceilings * bpi
    demanding = demands > 0.0
    grants = np.zeros(codes.size)
    for nd in np.unique(node):
        sel = node == nd
        n_demanding = int(counts[sel & demanding].sum())
        grants[sel] = waterfill_vec(
            demands[sel], alloc.effective_capacity(n_demanding), counts[sel]
        )
    per_instr = np.divide(grants, bpi, out=np.zeros_like(grants), where=bpi > 0.0)
    rates = np.where(bpi <= 0.0, ceilings, np.minimum(ceilings, per_instr))
    return dict(zip(codes.tolist(), rates.tolist()))
