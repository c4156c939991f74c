"""Ensemble transport kernel.

Moves a batch of trajectories through a per-layer velocity-field stack,
vectorized over trajectories with numpy.

Conventions:
  - classical 4th-order one-step integration, fixed substeps per layer;
  - velocity interpolated linearly in space between neighboring sites and
    linearly in time between the two bracketing layer tables;
  - periodic domains wrap positions and interpolation indices; bounded
    domains clamp to the edge sites;
  - a trajectory freezes permanently the first time any of the four
    interpolation corners (two sites, two layers) is node-masked during a
    substep; the freeze record index is reported, -1 if never frozen.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transport"]

# Trajectories are independent, so the batch runs through the whole stack
# in chunks of this many; a chunk's per-substep temporaries then stay in
# cache instead of streaming through memory.
CHUNK = 8192


def _cell_tables(row_a, row_b, mask_a, mask_b, periodic):
    """Per-cell interpolation tables of one segment.

    Cell c holds the two corner sites (ia, ib) of every position whose
    floor index maps to it: c = i0 % n_sites when periodic, and
    c = clip(i0, -1, n_sites - 1) + 1 when bounded, where the two end cells
    clamp both corners to the edge site and so carry zero difference.
    Returns the left values and left-to-right differences of both layer
    rows, and whether any of the four corners is node-masked.
    """
    n_sites = row_a.shape[0]
    if periodic:
        ia = np.arange(n_sites)
        ib = (ia + 1) % n_sites
    else:
        ia = np.minimum(np.maximum(np.arange(-1, n_sites), 0), n_sites - 1)
        ib = np.minimum(np.maximum(np.arange(0, n_sites + 1), 0), n_sites - 1)
    a0 = row_a[ia]
    b0 = row_b[ia]
    bad = mask_a[ia] | mask_a[ib] | mask_b[ia] | mask_b[ib]
    return a0, row_a[ib] - a0, b0, row_b[ib] - b0, bad


def _interp(tables, x, wt, x_min, dx, n_sites, periodic):
    a0, da, b0, db, bad = tables
    u = (x - x_min) / dx
    base = np.floor(u)
    frac = u - base
    i0 = base.astype(np.int64)
    if periodic:
        # i0 % n_sites, exactly: numpy's integer floor division by a scalar
        # is several times faster than its remainder.
        c = i0 - (i0 // n_sites) * n_sites
    else:
        c = np.minimum(np.maximum(i0, -1), n_sites - 1) + 1
    va = a0[c] + frac * da[c]
    vb = b0[c] + frac * db[c]
    return va + wt * (vb - va), bad[c]


def transport(
    values: np.ndarray,
    masks: np.ndarray,
    x0: np.ndarray,
    x_min: float,
    dx: float,
    extent: float,
    periodic: bool,
    dt: float,
    substeps: int,
    forward: bool,
):
    """Transport a batch of positions through the full field stack.

    values, masks: (n_layers + 1, n_sites) tables, one row per layer.
    Returns (records, frozen): records has shape (n, n_layers*substeps + 1)
    with row i the trajectory of x0[i] at every substep; frozen[i] is the
    record index where trajectory i froze on a node, or -1.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    masks = np.ascontiguousarray(masks, dtype=np.bool_)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    n_layers = values.shape[0] - 1
    n_sites = values.shape[1]
    n = x0.shape[0]
    n_rec = n_layers * substeps + 1
    records = np.empty((n, n_rec), dtype=np.float64)
    frozen = np.full(n, -1, dtype=np.int64)
    records[:, 0] = x0
    h = (dt / substeps) if forward else -(dt / substeps)
    inv_sub = 1.0 / substeps
    order = range(n_layers) if forward else range(n_layers - 1, -1, -1)
    segments = [
        _cell_tables(values[t], values[t + 1], masks[t], masks[t + 1], periodic) for t in order
    ]
    for lo in range(0, n, CHUNK):
        rows = records[lo : lo + CHUNK]
        fro = frozen[lo : lo + CHUNK]
        x = x0[lo : lo + CHUNK]
        rec = 0
        for tables in segments:
            for s in range(substeps):
                rec += 1
                wt0 = s * inv_sub if forward else 1.0 - s * inv_sub
                wt_half = wt0 + 0.5 * (inv_sub if forward else -inv_sub)
                wt_full = wt0 + (inv_sub if forward else -inv_sub)
                k1, b1 = _interp(tables, x, wt0, x_min, dx, n_sites, periodic)
                x2 = x + 0.5 * h * k1
                k2, b2 = _interp(tables, x2, wt_half, x_min, dx, n_sites, periodic)
                x3 = x + 0.5 * h * k2
                k3, b3 = _interp(tables, x3, wt_half, x_min, dx, n_sites, periodic)
                x4 = x + h * k3
                k4, b4 = _interp(tables, x4, wt_full, x_min, dx, n_sites, periodic)
                xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if periodic:
                    xn = x_min + ((xn - x_min) % extent)
                else:
                    xn = np.minimum(np.maximum(xn, x_min), x_min + (n_sites - 1) * dx)
                bad = b1 | b2 | b3 | b4
                active = fro < 0
                newly = active & bad
                fro[newly] = rec - 1
                move = active & ~bad
                x = np.where(move, xn, x)
                rows[:, rec] = x
    return records, frozen
