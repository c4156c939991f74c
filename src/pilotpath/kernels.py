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


def _interp(row_a, row_b, mask_a, mask_b, x, wt, x_min, dx, n_sites, periodic):
    u = (x - x_min) / dx
    base = np.floor(u)
    frac = u - base
    i0 = base.astype(np.int64)
    if periodic:
        ia = i0 % n_sites
        ib = (i0 + 1) % n_sites
    else:
        ia = np.minimum(np.maximum(i0, 0), n_sites - 1)
        ib = np.minimum(np.maximum(i0 + 1, 0), n_sites - 1)
    bad = mask_a[ia] | mask_a[ib] | mask_b[ia] | mask_b[ib]
    va = row_a[ia] + frac * (row_a[ib] - row_a[ia])
    vb = row_b[ia] + frac * (row_b[ib] - row_b[ia])
    return va + wt * (vb - va), bad


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
    x = x0.copy()
    records[:, 0] = x
    h = (dt / substeps) if forward else -(dt / substeps)
    inv_sub = 1.0 / substeps
    rec = 0
    for seg in range(n_layers):
        t = seg if forward else n_layers - 1 - seg
        row_a = values[t]
        row_b = values[t + 1]
        mask_a = masks[t]
        mask_b = masks[t + 1]
        for s in range(substeps):
            rec += 1
            wt0 = s * inv_sub if forward else 1.0 - s * inv_sub
            wt_half = wt0 + 0.5 * (inv_sub if forward else -inv_sub)
            wt_full = wt0 + (inv_sub if forward else -inv_sub)
            k1, b1 = _interp(row_a, row_b, mask_a, mask_b, x, wt0, x_min, dx, n_sites, periodic)
            x2 = x + 0.5 * h * k1
            k2, b2 = _interp(row_a, row_b, mask_a, mask_b, x2, wt_half, x_min, dx, n_sites, periodic)
            x3 = x + 0.5 * h * k2
            k3, b3 = _interp(row_a, row_b, mask_a, mask_b, x3, wt_half, x_min, dx, n_sites, periodic)
            x4 = x + h * k3
            k4, b4 = _interp(row_a, row_b, mask_a, mask_b, x4, wt_full, x_min, dx, n_sites, periodic)
            xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if periodic:
                xn = x_min + ((xn - x_min) % extent)
            else:
                xn = np.minimum(np.maximum(xn, x_min), x_min + (n_sites - 1) * dx)
            bad = b1 | b2 | b3 | b4
            active = frozen < 0
            newly = active & bad
            frozen[newly] = rec - 1
            move = active & ~bad
            x = np.where(move, xn, x)
            records[:, rec] = x
    return records, frozen
