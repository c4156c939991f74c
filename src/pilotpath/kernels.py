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

Arithmetic:
  - blended stage tables: each RK stage reads the field at one time weight,
    so per segment the two layer rows are blended once per weight,
    ``(a + w*(b - a)) * (1/dx)``, and a stage interpolates in space only;
  - positions are carried in cell units, ``u = (x - x_min) * (1/dx)``, with
    site i at u = i; a record is written as ``x_min + u*dx``, except that
    record 0 is x0 itself and a frozen trajectory repeats its last
    moving record, which is x0 itself when it froze at record 0;
  - a run keeps no records: each segment's layer-boundary record, or with
    every_substep each of its substep records, is written into one reused
    block and handed to the fold once the segment has finished, so no
    array spans the run; the freeze index counts substeps;
  - periodic starts are wrapped onto the ring ``[0, n_sites]`` before the
    first substep, and every substep's result is wrapped again by one
    subtraction or one addition of the ring;
  - cell indices wrap inside the gather (``take(mode="wrap")``).

The one precondition, check_tables: velocity tables are finite and, on a
ring, a substep moves less than one ring, ``|h| * max|v| < n_sites * dx``.
A substep from ``[0, n_sites]`` then ends in ``(-n_sites, 2 * n_sites)``,
where the one-step wrap equals Python's modulo bit for bit.  Lattice
velocities obey ``|v| <= dx/dt`` to rounding, so a walk's substep moves
about one cell at most, and the smallest ring has two.
guidance.VelocityStack checks its tables with the whole time step, the
longest substep, so a stack that is built is a stack its transport accepts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["check_tables", "transport"]

# Trajectories are independent, so the batch runs through each segment in
# chunks of this many; a chunk's per-substep temporaries then stay in cache
# instead of streaming through memory, and every chunk shares the segment's
# stage tables.
CHUNK = 8192


def check_tables(values: np.ndarray, dx: float, periodic: bool, step: float) -> None:
    """Raise ValidationError unless velocity tables (n_layers + 1, n_sites)
    are finite and, on a ring, a substep of duration at most step moves
    less than one ring: step * max|v| < n_sites * dx."""
    vmax = float(np.max(np.abs(values), initial=0.0))
    if not math.isfinite(vmax):
        raise ValidationError("velocity tables must be finite")
    if periodic and step * vmax >= values.shape[1] * dx:
        raise ValidationError("a transport substep could carry a trajectory once round the ring")


def _corner_sites(n_sites, periodic):
    """Left and right corner sites (ia, ib) of every interpolation cell.

    Periodic cell c holds the positions with floor index i0 = c mod n_sites.
    Bounded cell c holds i0 = clip(i0, -1, n_sites - 1) + 1: the two end
    cells clamp both corners to the edge site, so they carry zero slope.
    """
    if periodic:
        ia = np.arange(n_sites)
        return ia, (ia + 1) % n_sites
    ia = np.clip(np.arange(-1, n_sites), 0, n_sites - 1)
    return ia, np.clip(np.arange(n_sites + 1), 0, n_sites - 1)


def _stage_tables(row_a, row_b, weights, inv_dx, ia, ib):
    """Cell tables of one segment at every stage weight.

    weights: (substeps, 3) time weights.  Returns the left values and the
    left-to-right slopes of the blended rows in cell units, both of shape
    (substeps, 3, n_cells).
    """
    rows = (row_a + weights[..., None] * (row_b - row_a)) * inv_dx
    left = rows[..., ia]
    return left, rows[..., ib] - left


def _stage(left, slope, bad, u, mode, offset):
    """Velocity in cell units at positions u, and whether a corner of their
    cell is node-masked (None when the segment has no masked corner)."""
    base = np.floor(u)
    c = base.astype(np.int64)
    if offset:
        c += offset
    np.subtract(u, base, out=base)
    k = slope.take(c, mode=mode)
    k *= base
    k += left.take(c, mode=mode)
    return k, None if bad is None else bad.take(c, mode=mode)


def transport(
    values: np.ndarray,
    masks: np.ndarray,
    x0: np.ndarray,
    x_min: float,
    dx: float,
    periodic: bool,
    dt: float,
    substeps: int,
    forward: bool,
    fold,
    every_substep: bool = False,
):
    """Transport a batch of positions through the full field stack.

    values, masks: (n_layers + 1, n_sites) tables, one row per layer; a
    periodic grid is a ring of n_sites cells.  Raises ValidationError on
    tables that check_tables rejects at the substep dt / substeps, and on
    non-finite starts.
    Returns (records, frozen): records is an empty (n, 0) array, since fold
    has been handed them all.  frozen[i] is the substep record, numbered
    from 0 at x0, that trajectory i holds from its freeze on a node on, or
    -1.

    fold is called as fold(first, block, frozen) with the run's records in
    integration order, block holding records first .. first + len(block) -
    1: first with record 0 (x0, a (1, n) block), then once per finished
    segment.  That block is the (1, n) layer-boundary record the segment
    ends on, numbered as a layer record; with every_substep it is the
    segment's (substeps, n) block of substep records, numbered as frozen
    numbers them.  frozen is the live freeze-index array, holding every
    freeze up to the block's last substep.  Both are reused, so fold must
    not keep either.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    masks = np.ascontiguousarray(masks, dtype=np.bool_)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    n_layers = values.shape[0] - 1
    n_sites = values.shape[1]
    n = x0.shape[0]
    h = (dt / substeps) if forward else -(dt / substeps)
    check_tables(values, dx, periodic, abs(h))
    if not np.all(np.isfinite(x0)):
        raise ValidationError("transport needs finite start positions")
    frozen = np.full(n, -1, dtype=np.int64)
    # Each segment's records go into one block.
    block = np.empty((substeps if every_substep else 1, n), dtype=np.float64)
    fold(0, x0[None], frozen)
    half = 0.5 * h
    sixth = h / 6.0
    inv_dx = 1.0 / dx
    inv_sub = 1.0 / substeps
    if periodic:
        mode, offset, ring = "wrap", 0, float(n_sites)
        u0 = ((x0 - x_min) * inv_dx) % ring
    else:
        mode, offset, top = "clip", 1, float(n_sites - 1)
        u0 = (x0 - x_min) * inv_dx
    ia, ib = _corner_sites(n_sites, periodic)
    weights = np.empty((substeps, 3))
    for s in range(substeps):
        wt0 = s * inv_sub if forward else 1.0 - s * inv_sub
        wt_half = wt0 + 0.5 * (inv_sub if forward else -inv_sub)
        wt_full = wt0 + (inv_sub if forward else -inv_sub)
        weights[s] = (wt0, wt_half, wt_full)
    starts = range(0, n, CHUNK)
    us = [u0[lo : lo + CHUNK] for lo in starts]
    # Whether any trajectory of the chunk has frozen: until one has, a
    # substep that touches no masked corner moves every trajectory.
    has_frozen = [False] * len(us)
    order = range(n_layers) if forward else range(n_layers - 1, -1, -1)
    for seg, t in enumerate(order):
        left, slope = _stage_tables(values[t], values[t + 1], weights, inv_dx, ia, ib)
        bad = masks[t][ia] | masks[t][ib] | masks[t + 1][ia] | masks[t + 1][ib]
        if not bad.any():
            bad = None
        for j, lo in enumerate(starts):
            first = x0[lo : lo + CHUNK]
            fro = frozen[lo : lo + CHUNK]
            u = us[j]
            rec = seg * substeps
            for s in range(substeps):
                rec += 1
                if every_substep:
                    out = block[s, lo : lo + CHUNK]
                elif s == substeps - 1:
                    out = block[0, lo : lo + CHUNK]
                else:
                    out = None
                k1, b1 = _stage(left[s, 0], slope[s, 0], bad, u, mode, offset)
                k2, b2 = _stage(left[s, 1], slope[s, 1], bad, u + half * k1, mode, offset)
                k3, b3 = _stage(left[s, 1], slope[s, 1], bad, u + half * k2, mode, offset)
                k4, b4 = _stage(left[s, 2], slope[s, 2], bad, u + h * k3, mode, offset)
                # un = u + (h/6) * (k1 + 2*k2 + 2*k3 + k4), in that order
                k2 *= 2.0
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= sixth
                un = np.add(u, k2, out=k2)
                if periodic:
                    # less than a ring from [0, ring]: one exact subtraction
                    # or one addition of the ring wraps it
                    np.subtract(un, ring, out=un, where=un >= ring)
                    np.add(un, ring, out=un, where=un < 0.0)
                else:
                    np.clip(un, 0.0, top, out=un)
                if bad is not None:
                    b1 |= b2
                    b1 |= b3
                    b1 |= b4
                if not has_frozen[j] and (bad is None or not b1.any()):
                    u = un
                    if out is not None:
                        np.multiply(un, dx, out=k1)
                        np.add(k1, x_min, out=out)
                    continue
                move = fro < 0
                if bad is not None:
                    newly = move & b1
                    fro[newly] = rec - 1
                    move ^= newly
                has_frozen[j] = True
                u = np.where(move, un, u)
                if out is not None:
                    # u holds a frozen trajectory's last moving position,
                    # whose record is x_min + u*dx, or x0 if that is record 0.
                    np.multiply(u, dx, out=out)
                    out += x_min
                    np.copyto(out, first, where=fro == 0)
            us[j] = u
        fold(seg * substeps + 1 if every_substep else seg + 1, block, frozen)
    return np.empty((n, 0)), frozen
